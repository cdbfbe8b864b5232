package main

import (
	"sync/atomic"
	"time"

	"rhtm"
	"rhtm/kv"
	"rhtm/obs"
)

// tracers accumulates the traced run's per-layer clocks and counts. Each
// layer is measured from outside, by wrapping the objects the benchmark
// hands to the program: the engine and its threads (core), the kv.Storer
// (store), the WAL device (wal) and the kv.DB (kv; on served workloads,
// the DB the server calls).
type tracers struct {
	atomicNs, atomicCalls, bodies atomic.Int64
	getNs, gets                   atomic.Int64
	putNs, puts                   atomic.Int64
	scanNs, scanEntries           atomic.Int64
	kvNs                          atomic.Int64
	appendNs, syncNs              atomic.Int64
}

// tracerCounts is a plain copy of tracers, taken at a phase boundary.
type tracerCounts struct {
	atomicNs, atomicCalls, bodies int64
	getNs, gets, putNs, puts      int64
	scanNs, scanEntries, kvNs     int64
	appendNs, syncNs              int64
}

func (t *tracers) counts() tracerCounts {
	return tracerCounts{
		atomicNs: t.atomicNs.Load(), atomicCalls: t.atomicCalls.Load(), bodies: t.bodies.Load(),
		getNs: t.getNs.Load(), gets: t.gets.Load(), putNs: t.putNs.Load(), puts: t.puts.Load(),
		scanNs: t.scanNs.Load(), scanEntries: t.scanEntries.Load(), kvNs: t.kvNs.Load(),
		appendNs: t.appendNs.Load(), syncNs: t.syncNs.Load(),
	}
}

func (a tracerCounts) sub(b tracerCounts) tracerCounts {
	return tracerCounts{
		atomicNs: a.atomicNs - b.atomicNs, atomicCalls: a.atomicCalls - b.atomicCalls, bodies: a.bodies - b.bodies,
		getNs: a.getNs - b.getNs, gets: a.gets - b.gets, putNs: a.putNs - b.putNs, puts: a.puts - b.puts,
		scanNs: a.scanNs - b.scanNs, scanEntries: a.scanEntries - b.scanEntries, kvNs: a.kvNs - b.kvNs,
		appendNs: a.appendNs - b.appendNs, syncNs: a.syncNs - b.syncNs,
	}
}

// tracedEngine times every Atomic call and counts body executions.
type tracedEngine struct {
	rhtm.Engine
	t *tracers
}

func (e *tracedEngine) NewThread() rhtm.Thread {
	return &tracedThread{th: e.Engine.NewThread(), t: e.t}
}

type tracedThread struct {
	th rhtm.Thread
	t  *tracers
}

func (th *tracedThread) Atomic(fn func(tx rhtm.Tx) error) error {
	t0 := time.Now()
	err := th.th.Atomic(func(tx rhtm.Tx) error {
		th.t.bodies.Add(1)
		return fn(tx)
	})
	th.t.atomicNs.Add(int64(time.Since(t0)))
	th.t.atomicCalls.Add(1)
	return err
}

// tracedStore times the store's point reads, writes and range scans.
// They run inside transaction bodies, so aborted attempts count too.
type tracedStore struct {
	kv.Storer
	t *tracers
}

func (s *tracedStore) Get(tx rhtm.Tx, key []byte) ([]byte, bool) {
	t0 := time.Now()
	v, ok := s.Storer.Get(tx, key)
	s.t.getNs.Add(int64(time.Since(t0)))
	s.t.gets.Add(1)
	return v, ok
}

func (s *tracedStore) Read(tx rhtm.Tx, key []byte) ([]byte, uint64, uint64, bool) {
	t0 := time.Now()
	v, rev, lease, ok := s.Storer.Read(tx, key)
	s.t.getNs.Add(int64(time.Since(t0)))
	s.t.gets.Add(1)
	return v, rev, lease, ok
}

func (s *tracedStore) PutLease(tx rhtm.Tx, key, value []byte, lease uint64) error {
	t0 := time.Now()
	err := s.Storer.PutLease(tx, key, value, lease)
	s.t.putNs.Add(int64(time.Since(t0)))
	s.t.puts.Add(1)
	return err
}

func (s *tracedStore) PutStamped(tx rhtm.Tx, key, value []byte, lease uint64) (uint64, error) {
	t0 := time.Now()
	rev, err := s.Storer.PutStamped(tx, key, value, lease)
	s.t.putNs.Add(int64(time.Since(t0)))
	s.t.puts.Add(1)
	return rev, err
}

func (s *tracedStore) ScanLimit(tx rhtm.Tx, start, end []byte, limit int, fn func(key, value []byte) bool) {
	t0 := time.Now()
	n := int64(0)
	s.Storer.ScanLimit(tx, start, end, limit, func(k, v []byte) bool {
		n++
		return fn(k, v)
	})
	s.t.scanNs.Add(int64(time.Since(t0)))
	s.t.scanEntries.Add(n)
}

// tracedDB times every kv.DB call the benchmark or the server makes. It
// embeds *kv.Local, so the optional interfaces the server probes
// (UpdateRev, UpdateRevTraced, BatchTraced, WaitWatchIdle) stay visible
// and the server takes the same path as without the wrapper.
type tracedDB struct {
	*kv.Local
	t *tracers
}

func (d *tracedDB) since(t0 time.Time) { d.t.kvNs.Add(int64(time.Since(t0))) }

func (d *tracedDB) Get(key []byte) ([]byte, error) {
	defer d.since(time.Now())
	return d.Local.Get(key)
}

func (d *tracedDB) GetRev(key []byte) ([]byte, kv.Revision, error) {
	defer d.since(time.Now())
	return d.Local.GetRev(key)
}

func (d *tracedDB) Put(key, value []byte, opts ...kv.PutOption) error {
	defer d.since(time.Now())
	return d.Local.Put(key, value, opts...)
}

func (d *tracedDB) PutIf(key, value []byte, rev kv.Revision, opts ...kv.PutOption) error {
	defer d.since(time.Now())
	return d.Local.PutIf(key, value, rev, opts...)
}

func (d *tracedDB) Delete(key []byte) error {
	defer d.since(time.Now())
	return d.Local.Delete(key)
}

func (d *tracedDB) DeleteIf(key []byte, rev kv.Revision) error {
	defer d.since(time.Now())
	return d.Local.DeleteIf(key, rev)
}

func (d *tracedDB) Update(fn func(tx kv.Txn) error) error {
	defer d.since(time.Now())
	return d.Local.Update(fn)
}

func (d *tracedDB) UpdateRev(fn func(tx kv.Txn) error) (kv.Revision, error) {
	defer d.since(time.Now())
	return d.Local.UpdateRev(fn)
}

func (d *tracedDB) UpdateRevTraced(sink obs.TraceSink, fn func(tx kv.Txn) error) (kv.Revision, error) {
	defer d.since(time.Now())
	return d.Local.UpdateRevTraced(sink, fn)
}

func (d *tracedDB) Batch(ops []kv.Op) ([]kv.OpResult, error) {
	defer d.since(time.Now())
	return d.Local.Batch(ops)
}

func (d *tracedDB) BatchTraced(sink obs.TraceSink, ops []kv.Op) ([]kv.OpResult, error) {
	defer d.since(time.Now())
	return d.Local.BatchTraced(sink, ops)
}

func (d *tracedDB) Scan(start, end []byte, limit int) kv.Iterator {
	defer d.since(time.Now())
	return d.Local.Scan(start, end, limit)
}

func (d *tracedDB) Checkpoint() error {
	defer d.since(time.Now())
	return d.Local.Checkpoint()
}
