package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"rhtm"
	"rhtm/client"
	"rhtm/kv"
	"rhtm/obs"
	"rhtm/server"
	"rhtm/store"
	"rhtm/wal"
)

// shards is the store's partition count; the repository's benchmark
// harness and examples use eight.
const shards = 8

// populateBatch is how many puts one population Batch carries.
const populateBatch = 32

// stack is one built system under test: a System with the default RH1
// engine, a sharded store behind kv.Local, and on served workloads an
// in-memory WAL device, a server on loopback and a client.
type stack struct {
	w     *workload
	raw   rhtm.Engine // the engine, unwrapped; the benchmark's own reads use it
	sh    *store.Sharded
	local *kv.Local
	dev   *syncedDevice // served only
	srv   *server.Server
	cl    *client.Client
	db    kv.DB // what callers call: the client, or the Local
	tr    *tracers
	reg   *obs.Registry // server metrics (traced served runs)
}

// heapWords sizes a System for w: the arena of each shard holds twice its
// share of records (overwrites allocate before they free) plus slack.
func heapWords(w *workload) (arenaWords, dataWords int) {
	records := w.dataKeys + w.accounts
	per := store.RecordFootprintWords(dataKeyLen, valueBytes)
	arenaWords = (records/shards+1)*per*2 + 4096
	dataWords = shards*(arenaWords+store.DefaultLogWords+64) + 8192
	return arenaWords, dataWords
}

// newStore builds an empty System for w and returns its RH1 engine and
// sharded store.
func newStore(w *workload) (rhtm.Engine, *store.Sharded, error) {
	arenaWords, dataWords := heapWords(w)
	s, err := rhtm.NewSystem(rhtm.DefaultConfig(dataWords))
	if err != nil {
		return nil, nil, err
	}
	eng := rhtm.NewRH1(s, rhtm.DefaultRH1Options())
	return eng, store.NewSharded(s, shards, store.Options{ArenaWords: arenaWords}), nil
}

// buildStack is the benchmark's set-up: System, store, kv (with its WAL
// on served workloads), population, and on served workloads server start
// and dial. traced inserts the per-layer wrappers.
func buildStack(w *workload, seed uint64, traced bool) (*stack, error) {
	raw, sh, err := newStore(w)
	if err != nil {
		return nil, err
	}
	st := &stack{w: w, raw: raw, sh: sh}
	eng := raw
	var storer kv.Storer = sh
	if traced {
		st.tr = &tracers{}
		eng = &tracedEngine{Engine: raw, t: st.tr}
		storer = &tracedStore{Storer: sh, t: st.tr}
	}
	if w.served {
		st.dev = &syncedDevice{dev: new(wal.MemDevice), t: st.tr}
		st.local, err = kv.OpenLocal(eng, storer, st.dev)
		if err != nil {
			return nil, fmt.Errorf("open local: %w", err)
		}
	} else {
		st.local = kv.NewLocal(eng, storer)
	}
	if err := populate(st.local, w, seed); err != nil {
		st.close()
		return nil, err
	}
	var db kv.DB = st.local
	if traced {
		db = &tracedDB{Local: st.local, t: st.tr}
	}
	if !w.served {
		st.db = db
		return st, nil
	}
	var opts []server.Option
	if traced {
		st.reg = obs.NewRegistry()
		opts = append(opts, server.WithMetrics(st.reg))
	}
	st.srv = server.New(db, opts...)
	addr, err := st.srv.Start("127.0.0.1:0")
	if err != nil {
		st.close()
		return nil, fmt.Errorf("server start: %w", err)
	}
	st.cl, err = client.Dial(addr.String(), client.WithConns(numCallers))
	if err != nil {
		st.close()
		return nil, fmt.Errorf("dial: %w", err)
	}
	st.db = st.cl
	return st, nil
}

// populate writes every account and data key at sequence 0.
func populate(db kv.DB, w *workload, seed uint64) error {
	ops := make([]kv.Op, 0, populateBatch)
	flush := func() error {
		if len(ops) == 0 {
			return nil
		}
		_, err := db.Batch(ops)
		ops = ops[:0]
		return err
	}
	add := func(key, val []byte) error {
		ops = append(ops, kv.Op{Kind: kv.OpPut, Key: key, Value: val})
		if len(ops) == populateBatch {
			return flush()
		}
		return nil
	}
	for i := 0; i < w.accounts; i++ {
		v := encodeValue(make([]byte, valueBytes), seed, kindAccount, i, ownerNone, uint64(w.initialBalance))
		if err := add(accKey(make([]byte, accKeyLen), i), v); err != nil {
			return fmt.Errorf("populate: %w", err)
		}
	}
	for i := 0; i < w.dataKeys; i++ {
		v := encodeValue(make([]byte, valueBytes), seed, kindData, i, byte(i%numCallers), 0)
		if err := add(dataKey(make([]byte, dataKeyLen), i), v); err != nil {
			return fmt.Errorf("populate: %w", err)
		}
	}
	if err := flush(); err != nil {
		return fmt.Errorf("populate: %w", err)
	}
	return nil
}

func (st *stack) close() {
	if st.cl != nil {
		st.cl.Close()
	}
	if st.srv != nil {
		st.srv.Close()
	}
}

// checkState reads every user key through db in key order and compares
// it with the model.
func checkState(db kv.DB, m *model, what string) {
	ec := m.checker(what)
	var start []byte
	for {
		it := db.Scan(start, nil, 1000)
		n := 0
		var last []byte
		for it.Next() {
			ec.entry(it.Key(), it.Value())
			last = append(last[:0], it.Key()...)
			n++
		}
		if err := it.Err(); err != nil {
			m.fail("%s: scan: %v", what, err)
			return
		}
		if n < 1000 {
			break
		}
		start = append(last, 0)
	}
	ec.done()
}

// checkRecovery rebuilds a fresh System from only the bytes the device
// had synced and compares the recovered state with the model.
func (st *stack) checkRecovery(m *model, lose int) {
	img, err := st.dev.syncedImage()
	if err != nil {
		m.fail("recovery: read device: %v", err)
		return
	}
	img = img[:len(img)-min(lose, len(img))]
	eng, sh, err := newStore(st.w)
	if err != nil {
		m.fail("recovery: %v", err)
		return
	}
	dev := new(wal.MemDevice)
	if err := dev.Append(img); err != nil {
		m.fail("recovery: %v", err)
		return
	}
	db, err := kv.OpenLocal(eng, sh, dev)
	if err != nil {
		m.fail("recovery: open: %v", err)
		return
	}
	checkState(db, m, "recovered state")
}

// syncedDevice wraps the WAL device. It records the bytes appended before
// the last completed Sync, which is all a crash is guaranteed to keep,
// and on traced runs times Append and Sync.
type syncedDevice struct {
	dev      *wal.MemDevice
	t        *tracers
	appended atomic.Int64
	mu       sync.Mutex
	synced   int64
}

func (d *syncedDevice) Append(p []byte) error {
	var t0 time.Time
	if d.t != nil {
		t0 = time.Now()
	}
	err := d.dev.Append(p)
	if err == nil {
		d.appended.Add(int64(len(p)))
	}
	if d.t != nil {
		d.t.appendNs.Add(int64(time.Since(t0)))
	}
	return err
}

func (d *syncedDevice) Sync() error {
	var t0 time.Time
	if d.t != nil {
		t0 = time.Now()
	}
	target := d.appended.Load()
	err := d.dev.Sync()
	if err == nil {
		d.mu.Lock()
		d.synced = max(d.synced, target)
		d.mu.Unlock()
	}
	if d.t != nil {
		d.t.syncNs.Add(int64(time.Since(t0)))
	}
	return err
}

func (d *syncedDevice) Contents() ([]byte, error) { return d.dev.Contents() }
func (d *syncedDevice) Truncate(n int) error {
	err := d.dev.Truncate(n)
	d.appended.Store(int64(d.dev.Size()))
	return err
}
func (d *syncedDevice) Size() int { return d.dev.Size() }

// syncedImage returns the bytes appended before the last completed Sync.
func (d *syncedDevice) syncedImage() ([]byte, error) {
	b, err := d.dev.Contents()
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	n := d.synced
	d.mu.Unlock()
	return b[:n], nil
}
