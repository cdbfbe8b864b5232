package main

import (
	"sync"
	"testing"

	"rhtm/kv"
)

// small shrinks a workload so a self-test runs in about a second. rounds
// is set by each test; it runs whole rounds with no warm-up.
func small(t *testing.T, name string) *workload {
	t.Helper()
	w := *findWorkload(name)
	if w.dataKeys > 20_000 {
		w.dataKeys = 20_000
	}
	if w.checkpointRounds > 0 {
		w.checkpointRounds = 2
	}
	return &w
}

func runSmall(t *testing.T, w *workload, wrap func(*stack) kv.DB, lose int) *result {
	t.Helper()
	res, err := run(runConfig{w: w, seed: 7, rounds: 5, wrap: wrap, lose: lose})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestChecksPassOnUnchangedProgram(t *testing.T) {
	for _, name := range []string{"local-mixed", "local-hot", "served-durable"} {
		t.Run(name, func(t *testing.T) {
			res := runSmall(t, small(t, name), nil, 0)
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("correct=%v failed=%d on the unchanged program", res.Correct, res.Failed)
			}
		})
	}
}

// faultDB injects one kind of fault in front of the real DB.
type faultDB struct {
	kv.DB
	mu   sync.Mutex
	done bool
	kind string
}

// once reports whether the fault is still to be injected, and marks it.
func (f *faultDB) once() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.done {
		return false
	}
	f.done = true
	return true
}

// Put acknowledges one write without making it.
func (f *faultDB) Put(key, value []byte, opts ...kv.PutOption) error {
	if f.kind == "drop-put" && f.once() {
		return nil
	}
	return f.DB.Put(key, value, opts...)
}

// Update commits only the first half of one transfer.
func (f *faultDB) Update(fn func(tx kv.Txn) error) error {
	if f.kind == "half-transfer" && f.once() {
		return f.DB.Update(func(tx kv.Txn) error { return fn(&halfTxn{Txn: tx}) })
	}
	return f.DB.Update(fn)
}

type halfTxn struct {
	kv.Txn
	puts int
}

func (h *halfTxn) Put(key, value []byte, opts ...kv.PutOption) error {
	h.puts++
	if h.puts == 2 {
		return nil
	}
	return h.Txn.Put(key, value, opts...)
}

// Scan swaps the first two entries of one scan that yields at least two.
func (f *faultDB) Scan(start, end []byte, limit int) kv.Iterator {
	it := f.DB.Scan(start, end, limit)
	if f.kind != "reorder-scan" {
		return it
	}
	var es []kv.Entry
	for it.Next() {
		es = append(es, kv.Entry{Key: append([]byte(nil), it.Key()...), Value: append([]byte(nil), it.Value()...)})
	}
	if len(es) >= 2 && f.once() {
		es[0], es[1] = es[1], es[0]
	}
	return &sliceIter{es: es, err: it.Err()}
}

type sliceIter struct {
	es  []kv.Entry
	i   int
	err error
}

func (s *sliceIter) Next() bool    { s.i++; return s.i <= len(s.es) }
func (s *sliceIter) Key() []byte   { return s.es[s.i-1].Key }
func (s *sliceIter) Value() []byte { return s.es[s.i-1].Value }
func (s *sliceIter) Err() error    { return s.err }

func TestFaultsAreCaught(t *testing.T) {
	for _, kind := range []string{"drop-put", "half-transfer", "reorder-scan"} {
		t.Run(kind, func(t *testing.T) {
			var f *faultDB
			res := runSmall(t, small(t, "local-mixed"), func(st *stack) kv.DB {
				f = &faultDB{DB: st.db, kind: kind}
				return f
			}, 0)
			if !f.done {
				t.Fatal("the fault was never injected")
			}
			if res.Correct {
				t.Fatal("the injected fault was not reported")
			}
		})
	}
	t.Run("lose-synced-bytes", func(t *testing.T) {
		// The log ends with caller 0's last round of writes after its last
		// checkpoint, so the lost tail holds acknowledged transactions.
		if res := runSmall(t, small(t, "served-durable"), nil, 2000); res.Correct {
			t.Fatal("recovery from a log missing synced bytes was not reported")
		}
	})
}

// memDB is an allocation-free, correct in-memory kv.DB for the workload's
// keys: values live in preallocated slots indexed by key number.
type memDB struct {
	kv.DB
	data, acc [][]byte
	txn       memTxn
	it        memIter
}

func newMemDB(w *workload, seed uint64) *memDB {
	d := &memDB{}
	for i := 0; i < w.dataKeys; i++ {
		d.data = append(d.data, encodeValue(make([]byte, valueBytes), seed, kindData, i, byte(i%numCallers), 0))
	}
	for i := 0; i < w.accounts; i++ {
		d.acc = append(d.acc, encodeValue(make([]byte, valueBytes), seed, kindAccount, i, ownerNone, uint64(w.initialBalance)))
	}
	d.txn.d = d
	d.it.d = d
	return d
}

func keyNum(k []byte) int {
	n := 0
	for _, c := range k[2:] {
		n = n*10 + int(c-'0')
	}
	return n
}

func (d *memDB) slot(k []byte) []byte {
	if k[0] == 'a' {
		return d.acc[keyNum(k)]
	}
	return d.data[keyNum(k)]
}

func (d *memDB) Get(k []byte) ([]byte, error) { return d.slot(k), nil }

func (d *memDB) Put(k, v []byte, _ ...kv.PutOption) error {
	copy(d.slot(k), v)
	return nil
}

func (d *memDB) Update(fn func(tx kv.Txn) error) error { return fn(&d.txn) }

func (d *memDB) Scan(start, _ []byte, limit int) kv.Iterator {
	d.it.next, d.it.end = keyNum(start)-1, min(keyNum(start)+limit, len(d.data))
	return &d.it
}

type memTxn struct {
	kv.Txn
	d *memDB
}

func (t *memTxn) Get(k []byte) ([]byte, error)                { return t.d.Get(k) }
func (t *memTxn) Put(k, v []byte, opts ...kv.PutOption) error { return t.d.Put(k, v, opts...) }

type memIter struct {
	d         *memDB
	next, end int
	key       [dataKeyLen]byte
}

func (it *memIter) Next() bool {
	it.next++
	return it.next < it.end
}
func (it *memIter) Key() []byte   { return dataKey(it.key[:], it.next) }
func (it *memIter) Value() []byte { return it.d.data[it.next] }
func (it *memIter) Err() error    { return nil }

func TestCallerAllocatesNothing(t *testing.T) {
	for _, w := range workloads {
		m := newModel(w, 3, numCallers)
		c := newCaller(0, w, m, newMemDB(w, 3), 3)
		for k := opKind(0); k < numOps; k++ {
			if allocs := testing.AllocsPerRun(500, func() { c.step(k) }); allocs != 0 {
				t.Errorf("%s: %s op allocates %.1f times", w.name, opNames[k], allocs)
			}
		}
		if n, first := m.failed(); n > 0 {
			t.Errorf("%s: the in-memory DB failed a check: %s", w.name, first)
		}
	}
}
