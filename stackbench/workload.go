package main

import (
	"bytes"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"rhtm/kv"
)

type opKind uint8

const (
	opGet opKind = iota
	opPut
	opTxn
	opScan
	numOps
)

var opNames = [numOps]string{"read", "write", "txn", "scan"}

// workload is one traffic mix. Every caller runs whole rounds: a round
// holds exactly mix[k] ops of kind k in a freshly shuffled order, so each
// run performs the same proportions whatever its length.
type workload struct {
	name     string
	served   bool
	dataKeys int
	// dataTheta and accTheta select zipfian key draws (0 = uniform).
	dataTheta float64
	accounts  int
	accTheta  float64
	// transfer makes a txn move an amount between two accounts; otherwise
	// a txn increments one counter.
	transfer       bool
	initialBalance int64
	mix            [numOps]int
	// checkpointRounds is how many of caller 0's rounds separate two
	// Checkpoint calls (0 = never).
	checkpointRounds int
}

var workloads = []*workload{
	{
		name: "local-mixed", dataKeys: 100_000, accounts: 1_000,
		transfer: true, initialBalance: 1 << 40,
		mix: [numOps]int{opGet: 10, opPut: 7, opTxn: 2, opScan: 1},
	},
	{
		// Every txn increments one of 1k zipfian counters; the small
		// share of reads, writes and scans over a zipfian 1k-key set
		// measures those paths under the same contention.
		name: "local-hot", dataKeys: 1_000, dataTheta: 0.99,
		accounts: 1_000, accTheta: 0.99,
		mix: [numOps]int{opGet: 2, opPut: 2, opTxn: 45, opScan: 1},
	},
	{
		name: "served-durable", served: true, dataKeys: 100_000, accounts: 1_000,
		transfer: true, initialBalance: 1 << 40,
		mix:              [numOps]int{opGet: 10, opPut: 7, opTxn: 2, opScan: 1},
		checkpointRounds: 250, // 2,250 writes by caller 0
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// caller is one closed-loop client: it waits for every reply before it
// sends the next request. Its per-op path allocates nothing itself (a
// test pins this); whatever allocates is the program's.
type caller struct {
	id    int
	w     *workload
	m     *model
	db    kv.DB
	rng   *rand.Rand
	dataZ *zipf
	accZ  *zipf

	round  []opKind
	lat    [numOps]reservoir
	ckpt   []float64 // Checkpoint call durations, ms
	ops    uint64    // mix ops; checkpoints are counted by ckpt
	failed uint64    // failed ops and checkpoints
	rounds int
	// busyNs is the time spent inside calls into the program; userBytes
	// the key and value bytes of acknowledged writes.
	busyNs    int64
	userBytes int64

	keyA, keyB, expKey []byte
	valA, valB         []byte

	// transfer / increment parameters, read by txnFn
	txA, txB int
	txDelta  int64
	txFn     func(tx kv.Txn) error
}

func newCaller(id int, w *workload, m *model, db kv.DB, seed uint64) *caller {
	c := &caller{
		id: id, w: w, m: m, db: db,
		rng:    rand.New(rand.NewPCG(seed, uint64(id)+1)),
		dataZ:  newZipf(w.dataKeys, w.dataTheta),
		accZ:   newZipf(w.accounts, w.accTheta),
		keyA:   make([]byte, 16),
		keyB:   make([]byte, 16),
		expKey: make([]byte, 16),
		valA:   make([]byte, valueBytes),
		valB:   make([]byte, valueBytes),
		ckpt:   make([]float64, 0, 1024),
	}
	for k := opKind(0); k < numOps; k++ {
		c.lat[k] = newReservoir(seed ^ uint64(id)<<8 ^ uint64(k))
		for i := 0; i < w.mix[k]; i++ {
			c.round = append(c.round, k)
		}
	}
	c.txFn = c.txnBody
	return c
}

// phaseCtl coordinates the callers of one phase. Callers run whole
// rounds until the deadline. On a checkpointing workload caller 0 calls
// Checkpoint after every checkpointRounds of its rounds while the other
// callers wait at a round boundary, and the phase ends at the checkpoint
// nearest the deadline. So every phase holds whole checkpoint periods, and
// a checkpoint never races the other caller's writes, which would make it
// re-run a varying number of times (see README.md).
type phaseCtl struct {
	gate     sync.RWMutex
	stop     atomic.Bool
	start    time.Time
	deadline time.Time
	// rounds, when positive, makes each caller run exactly that many
	// rounds regardless of the deadline (self-tests).
	rounds int
}

// endAtCheckpoint reports whether a timed phase ends at caller 0's
// periods-th checkpoint: when the deadline is less than half a period away.
func (p *phaseCtl) endAtCheckpoint(periods int) bool {
	if p.rounds > 0 {
		return false
	}
	now := time.Now()
	half := now.Sub(p.start) / time.Duration(2*periods)
	return !now.Add(half).Before(p.deadline)
}

func (c *caller) runPhase(p *phaseCtl) {
	ckpt := c.w.checkpointRounds > 0
	for n := 0; ; {
		p.gate.RLock()
		if p.stop.Load() || p.rounds > 0 && n >= p.rounds {
			p.gate.RUnlock()
			return
		}
		c.runRound()
		n++
		p.gate.RUnlock()
		switch {
		case !ckpt:
			if p.rounds == 0 && !time.Now().Before(p.deadline) {
				return
			}
		case c.id == 0 && c.rounds%c.w.checkpointRounds == 0:
			p.gate.Lock()
			c.checkpoint()
			end := p.endAtCheckpoint(c.rounds / c.w.checkpointRounds)
			if end {
				p.stop.Store(true)
			}
			p.gate.Unlock()
			if end {
				return
			}
		}
	}
}

func (c *caller) resetSamples() {
	for k := range c.lat {
		c.lat[k].reset()
	}
	c.ckpt = c.ckpt[:0]
	c.ops, c.failed, c.rounds = 0, 0, 0
	c.busyNs, c.userBytes = 0, 0
}

func (c *caller) runRound() {
	r := c.round
	for i := len(r) - 1; i > 0; i-- {
		j := c.rng.IntN(i + 1)
		r[i], r[j] = r[j], r[i]
	}
	for _, k := range r {
		c.step(k)
	}
	c.rounds++
}

// step runs one op, timing the call into the program.
func (c *caller) step(k opKind) {
	var ok bool
	switch k {
	case opGet:
		ok = c.get()
	case opPut:
		ok = c.put()
	case opTxn:
		ok = c.txn()
	case opScan:
		ok = c.scan()
	}
	c.ops++
	if !ok {
		c.failed++
	}
}

func (c *caller) get() bool {
	i := c.dataZ.next(c.rng)
	key := dataKey(c.keyA, i)
	t0 := time.Now()
	v, err := c.db.Get(key)
	c.record(opGet, t0)
	if err != nil {
		c.m.fail("get %s: %v", key, err)
		return false
	}
	owner, seq, ok := decodeValue(v, kindData, i)
	if !ok || int(owner) != c.m.owner(i) {
		c.m.fail("get %s: malformed value", key)
		return false
	}
	// An owner reads its own last write.
	if int(owner) == c.id && !c.m.dataUnk[i] && seq != c.m.dataSeq[i] {
		c.m.fail("get %s: owner read seq %d after writing seq %d", key, seq, c.m.dataSeq[i])
	}
	return true
}

func (c *caller) record(k opKind, t0 time.Time) {
	d := int64(time.Since(t0))
	c.lat[k].add(d)
	c.busyNs += d
}

// ownKey maps a drawn index to the nearest key this caller owns.
func (c *caller) ownKey(i int) int {
	i += (c.id - i%c.m.callers + c.m.callers) % c.m.callers
	if i >= c.w.dataKeys {
		i -= c.m.callers
	}
	return i
}

func (c *caller) put() bool {
	i := c.ownKey(c.dataZ.next(c.rng))
	key := dataKey(c.keyA, i)
	seq := c.m.dataSeq[i] + 1
	v := encodeValue(c.valA, c.m.seed, kindData, i, byte(c.id), seq)
	t0 := time.Now()
	err := c.db.Put(key, v)
	c.record(opPut, t0)
	if err != nil {
		c.m.fail("put %s: %v", key, err)
		c.m.dataUnk[i] = true
		return false
	}
	c.m.dataSeq[i] = seq
	c.userBytes += dataKeyLen + valueBytes
	return true
}

func (c *caller) txn() bool {
	c.txA = c.accZ.next(c.rng)
	c.txB = -1
	c.txDelta = 1
	if c.w.transfer {
		c.txB = c.accZ.next(c.rng)
		for c.txB == c.txA {
			c.txB = c.accZ.next(c.rng)
		}
		c.txDelta = 1 + c.rng.Int64N(100)
	}
	t0 := time.Now()
	err := c.db.Update(c.txFn)
	c.record(opTxn, t0)
	if err != nil {
		c.m.fail("txn on accounts %d,%d: %v", c.txA, c.txB, err)
		c.m.accUnk[c.txA] = true
		if c.txB >= 0 {
			c.m.accUnk[c.txB] = true
		}
		return false
	}
	c.userBytes += accKeyLen + valueBytes
	if c.txB < 0 {
		c.m.accDelta[c.id][c.txA] += c.txDelta
	} else {
		c.m.accDelta[c.id][c.txA] -= c.txDelta
		c.m.accDelta[c.id][c.txB] += c.txDelta
		c.userBytes += accKeyLen + valueBytes
	}
	return true
}

// txnBody is an unconditional add: a transfer debits txA and credits txB;
// an increment adds txDelta to txA. The body may run more than once.
func (c *caller) txnBody(tx kv.Txn) error {
	if c.txB < 0 {
		return c.addTo(tx, c.txA, c.keyA, c.valA, c.txDelta)
	}
	if err := c.addTo(tx, c.txA, c.keyA, c.valA, -c.txDelta); err != nil {
		return err
	}
	return c.addTo(tx, c.txB, c.keyB, c.valB, c.txDelta)
}

func (c *caller) addTo(tx kv.Txn, i int, kb, vb []byte, delta int64) error {
	key := accKey(kb, i)
	v, err := tx.Get(key)
	if err != nil {
		return err
	}
	_, num, ok := decodeValue(v, kindAccount, i)
	if !ok {
		return errMalformed
	}
	return tx.Put(key, encodeValue(vb, c.m.seed, kindAccount, i, ownerNone, uint64(int64(num)+delta)))
}

// scan reads 1–10 data keys from a drawn start; the mix never inserts or
// deletes, so the result must be exactly the model's slice of keys.
func (c *caller) scan() bool {
	i := c.dataZ.next(c.rng)
	limit := 1 + c.rng.IntN(10)
	want := limit
	if rest := c.w.dataKeys - i; rest < want {
		want = rest
	}
	start := dataKey(c.keyA, i)
	t0 := time.Now()
	it := c.db.Scan(start, dataEnd, limit)
	n := 0
	good := true
	for it.Next() {
		if n >= want || !bytes.Equal(it.Key(), dataKey(c.expKey, i+n)) {
			good = false
		} else if owner, _, ok := decodeValue(it.Value(), kindData, i+n); !ok || int(owner) != c.m.owner(i+n) {
			good = false
		}
		n++
	}
	err := it.Err()
	c.record(opScan, t0)
	if err != nil {
		c.m.fail("scan from %s: %v", start, err)
		return false
	}
	if !good || n != want {
		c.m.fail("scan from %s limit %d: got %d entries, want %d keys in order", start, limit, n, want)
	}
	return true
}

func (c *caller) checkpoint() {
	t0 := time.Now()
	err := c.db.Checkpoint()
	d := time.Since(t0)
	c.busyNs += int64(d)
	c.ckpt = append(c.ckpt, float64(d)/1e6)
	if err != nil {
		c.failed++
		c.m.fail("checkpoint: %v", err)
	}
}
