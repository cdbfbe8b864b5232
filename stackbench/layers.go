package main

import (
	"fmt"
	"os"
)

// layerMetrics reports the traced run's per-layer metrics. Every metric is
// printed on every workload; a layer the workload does not run reads 0.
// Times are per mix op unless the name says per call or per entry.
func layerMetrics(res *result, st *stack, callers []*caller, ops uint64, p0, p1 phase) {
	set := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	n := float64(ops)
	t := p1.tr.sub(p0.tr)
	l0, l1 := p0.live, p1.live
	data := float64(l1.Reads + l1.Writes - l0.Reads - l0.Writes)
	meta := float64(l1.MetadataReads + l1.MetadataWrites - l0.MetadataReads - l0.MetadataWrites)
	commits := float64(l1.FastCommits + l1.SlowCommits + l1.SlowSlowCommits + l1.ReadOnlyCommits -
		l0.FastCommits - l0.SlowCommits - l0.SlowSlowCommits - l0.ReadOnlyCommits)
	aborts := float64(l1.FastAborts + l1.SlowAborts - l0.FastAborts - l0.SlowAborts)
	fallbacks := float64(l1.SlowCommits + l1.SlowSlowCommits + l1.RH2Fallbacks -
		l0.SlowCommits - l0.SlowSlowCommits - l0.RH2Fallbacks)

	var callerNs, userBytes int64
	var ckpt []float64
	for _, c := range callers {
		callerNs += c.busyNs
		userBytes += c.userBytes
		ckpt = append(ckpt, c.ckpt...)
	}
	elapsed := p1.at.Sub(p0.at).Seconds()

	set("trace.throughput_ops_s", "1/s", n/elapsed)
	set("caller.us_per_op", "us", float64(callerNs)/1e3/n)
	set("memsim.data_accesses_per_op", "count", data/n)
	set("memsim.metadata_accesses_per_op", "count", meta/n)
	set("memsim.host_ns_per_access", "ns", ratio(float64(t.atomicNs), data+meta))
	set("core.atomic_us_per_op", "us", float64(t.atomicNs)/1e3/n)
	set("core.attempts_per_atomic", "count", ratio(float64(t.bodies), float64(t.atomicCalls)))
	set("core.fast_commit_share", "ratio", ratio(float64(l1.FastCommits-l0.FastCommits), commits))
	set("core.aborts_per_commit", "count", ratio(aborts, commits))
	set("core.fallbacks_per_kop", "count", fallbacks/n*1e3)
	set("store.get_us", "us", ratio(float64(t.getNs)/1e3, float64(t.gets)))
	set("store.put_us", "us", ratio(float64(t.putNs)/1e3, float64(t.puts)))
	set("store.scan_us_per_entry", "us", ratio(float64(t.scanNs)/1e3, float64(t.scanEntries)))
	w := st.w
	liveUser := float64(w.dataKeys*(dataKeyLen+valueBytes) + w.accounts*(accKeyLen+valueBytes))
	set("store.bytes_per_user_byte", "ratio", float64(p1.ss.Arena.LiveWords)*8/liveUser)
	set("kv.self_us_per_op", "us", float64(t.kvNs-t.atomicNs-t.appendNs-t.syncNs)/1e3/n)
	set("kv.atomic_calls_per_op", "count", float64(t.atomicCalls)/n)

	w0, w1 := p0.ss.WAL, p1.ss.WAL
	set("wal.txns_per_sync", "count", ratio(float64(w1.TxnsLogged-w0.TxnsLogged), float64(w1.Syncs-w0.Syncs)))
	set("wal.append_us_per_op", "us", float64(t.appendNs)/1e3/n)
	set("wal.sync_us_per_op", "us", float64(t.syncNs)/1e3/n)
	set("wal.bytes_per_user_byte", "ratio", ratio(float64(w1.BytesAppended-w0.BytesAppended), float64(userBytes)))
	devMB := 0.0
	if st.dev != nil {
		devMB = float64(st.dev.Size()) / 1e6
	}
	set("wal.device_mb_end", "MB", devMB)
	set("wal.checkpoint_ms", "ms", median(ckpt))

	s0, s1 := p0.snap, p1.snap
	serverKv := 0.0
	if w.served {
		serverKv = float64(t.kvNs) / 1e3 / n
	}
	set("server.kv_us_per_op", "us", serverKv)
	outside := 0.0
	if w.served {
		outside = float64(callerNs)/1e3/n - serverKv
	}
	set("server.outside_kv_us_per_op", "us", outside)
	h0, h1 := s0.Histograms["server.batch_fill"], s1.Histograms["server.batch_fill"]
	set("server.ops_per_kv_batch", "count", ratio(float64(h1.Sum-h0.Sum), float64(h1.Count-h0.Count)))
	set("server.requests_per_op", "count", float64(counterSum(s1, "server.requests")-counterSum(s0, "server.requests"))/n)
	set("server.bytes_per_op", "B", float64(counterSum(s1, "server.bytes_")-counterSum(s0, "server.bytes_"))/n)

	set("runtime.gc_per_kop", "count", float64(p1.mem.NumGC-p0.mem.NumGC)/n*1e3)
	set("runtime.gc_pause_us_per_kop", "us", float64(p1.mem.PauseTotalNs-p0.mem.PauseTotalNs)/1e3/n*1e3)

	// Layer times nest: the store runs inside transaction bodies, bodies
	// inside Atomic, Atomic inside kv calls, kv calls inside the callers'.
	storeNs := t.getNs + t.putNs + t.scanNs
	if !(storeNs <= t.atomicNs && t.atomicNs <= t.kvNs && t.kvNs <= callerNs) {
		res.Correct = false
		fmt.Fprintf(os.Stderr, "stackbench: layer times do not nest: store %d, core %d, kv %d, caller %d ns\n",
			storeNs, t.atomicNs, t.kvNs, callerNs)
	}
}
