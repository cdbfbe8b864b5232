// Command stackbench measures the serving stack end to end: a seeded,
// closed-loop load from two callers against kv.Local (local-mixed,
// local-hot) or against server + client over loopback with a WAL
// (served-durable). It checks every output against a model it keeps apart
// from the program, and prints one JSON result line.
//
//	stackbench --workload local-mixed --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics with tracing off. --trace 1
// runs the same seeds and sizes with wrappers around each layer's entry
// points and reports the per-layer metrics instead.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"syscall"
	"time"

	"rhtm"
	"rhtm/kv"
	"rhtm/obs"
	"rhtm/store"
)

const (
	numCallers = 2
	// A timed run sets up at least setupMinReps times and for at least
	// setupMinTime, and reports the median as setup_s, so that a short
	// set-up (local-hot's takes about 60 ms) is repeated often enough to
	// be steady.
	setupMinReps = 3
	setupMinTime = 3 * time.Second
	warmup       = time.Second
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: local-mixed, local-hot or served-durable")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	w := findWorkload(*name)
	if w == nil || *seconds < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintf(os.Stderr, "stackbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	res, err := run(runConfig{w: w, seed: *seed, dur: time.Duration(*seconds) * time.Second, traced: *trace == 1})
	if err != nil {
		fmt.Fprintln(os.Stderr, "stackbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "stackbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

type runConfig struct {
	w      *workload
	seed   uint64
	dur    time.Duration
	traced bool
	// rounds, when positive, runs exactly that many rounds per caller
	// after one set-up, with no warm-up and no deadline (self-tests).
	rounds int
	// wrap substitutes the DB callers use (self-tests inject faults).
	wrap func(*stack) kv.DB
	// lose drops that many bytes off the synced log before recovery.
	lose int
}

// phase is what the counters read at a phase boundary.
type phase struct {
	at    time.Time
	cpuNs int64
	mem   runtime.MemStats
	live  rhtm.Stats
	ss    store.Stats
	tr    tracerCounts
	snap  obs.Snapshot
}

func cpuNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

func (st *stack) storeStats() store.Stats {
	var ss store.Stats
	th := st.raw.NewThread()
	_ = th.Atomic(func(tx rhtm.Tx) error { // a read-only body cannot fail
		ss = st.sh.Stats(tx)
		return nil
	})
	return ss
}

func (st *stack) readPhase(start bool) phase {
	var p phase
	if start {
		p.ss = st.storeStats()
		p.snap = st.reg.Snapshot()
		runtime.ReadMemStats(&p.mem)
		p.live = st.raw.Live()
		if st.tr != nil {
			p.tr = st.tr.counts()
		}
		p.cpuNs = cpuNs()
		p.at = time.Now()
		return p
	}
	p.at = time.Now()
	p.cpuNs = cpuNs()
	if st.tr != nil {
		p.tr = st.tr.counts()
	}
	p.live = st.raw.Live()
	runtime.ReadMemStats(&p.mem)
	p.snap = st.reg.Snapshot()
	p.ss = st.storeStats()
	return p
}

// setUps builds the stack and times each build. A timed run makes about
// half of its set-ups before the timed phase and the rest after it, so that
// the median samples the host over the whole run, as the timed phase does.
type setUps struct {
	cfg   runConfig
	times []float64
	spent time.Duration
}

// owed reports whether a timed run has made less than share of its
// set-ups; a self-test run makes one.
func (s *setUps) owed(share float64) bool {
	if s.cfg.rounds > 0 {
		return len(s.times) == 0
	}
	return float64(len(s.times)) < share*setupMinReps || float64(s.spent) < share*float64(setupMinTime)
}

func (s *setUps) build() (*stack, error) {
	runtime.GC()
	t0 := time.Now()
	st, err := buildStack(s.cfg.w, s.cfg.seed, s.cfg.traced)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	d := time.Since(t0)
	s.spent += d
	s.times = append(s.times, d.Seconds())
	return st, nil
}

func run(cfg runConfig) (*result, error) {
	su := &setUps{cfg: cfg}
	var st *stack
	for su.owed(0.5) {
		if st != nil {
			st.close()
		}
		var err error
		if st, err = su.build(); err != nil {
			return nil, err
		}
	}
	res, err := measure(cfg, st)
	st.close()
	if err != nil {
		return nil, err
	}
	if !cfg.traced {
		for su.owed(1) {
			extra, err := su.build()
			if err != nil {
				return nil, err
			}
			extra.close()
		}
		res.Metrics["setup_s"] = metric{Value: median(su.times), Unit: "s"}
	}
	printTable(os.Stdout, cfg.w, cfg, res)
	return res, nil
}

// measure runs the warm-up and the timed phase on st, checks the outputs
// against the model and computes every metric but setup_s.
func measure(cfg runConfig, st *stack) (*result, error) {
	w := cfg.w
	m := newModel(w, cfg.seed, numCallers)
	var db kv.DB = st.db
	if cfg.wrap != nil {
		db = cfg.wrap(st)
	}
	callers := make([]*caller, numCallers)
	for i := range callers {
		callers[i] = newCaller(i, w, m, db, cfg.seed)
	}
	runAll := func(d time.Duration) {
		now := time.Now()
		p := &phaseCtl{start: now, deadline: now.Add(d), rounds: cfg.rounds}
		var wg sync.WaitGroup
		for _, c := range callers {
			wg.Add(1)
			go func(c *caller) {
				defer wg.Done()
				c.runPhase(p)
			}(c)
		}
		wg.Wait()
	}
	if cfg.rounds == 0 {
		runAll(warmup)
		for _, c := range callers {
			c.resetSamples()
		}
	}
	p0 := st.readPhase(true)
	runAll(cfg.dur)
	p1 := st.readPhase(false)

	res := &result{Correct: true, Metrics: map[string]metric{}}
	var ops uint64
	for _, c := range callers {
		ops += c.ops
		res.Attempted += c.ops + uint64(len(c.ckpt))
		res.Failed += c.failed
	}

	checkState(st.db, m, "final state")
	if w.served {
		st.close()
		st.checkRecovery(m, cfg.lose)
	}
	if n, first := m.failed(); n > 0 {
		res.Correct = false
		fmt.Fprintf(os.Stderr, "stackbench: %d check failures; first: %s\n", n, first)
	}
	if ops == 0 {
		return nil, fmt.Errorf("no operations completed")
	}
	if cfg.traced {
		layerMetrics(res, st, callers, ops, p0, p1)
	} else {
		endToEnd(res, callers, ops, p0, p1)
	}
	return res, nil
}

func perOp(x float64, ops uint64) float64 { return x / float64(ops) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func endToEnd(res *result, callers []*caller, ops uint64, p0, p1 phase) {
	elapsed := p1.at.Sub(p0.at).Seconds()
	set := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	set("throughput_ops_s", "1/s", float64(ops)/elapsed)
	for k := opKind(0); k < numOps; k++ {
		var rs []*reservoir
		for _, c := range callers {
			rs = append(rs, &c.lat[k])
		}
		s := mergeSamples(rs)
		set(opNames[k]+"_p50_us", "us", s.quantileUs(0.50))
		if k == opGet || k == opPut {
			set(opNames[k]+"_p90_us", "us", s.quantileUs(0.90))
		}
	}
	set("cpu_us_per_op", "us", perOp(float64(p1.cpuNs-p0.cpuNs)/1e3, ops))
	set("allocs_per_op", "count", perOp(float64(p1.mem.Mallocs-p0.mem.Mallocs), ops))
	set("sim_accesses_per_op", "count", perOp(float64(accesses(p1.live)-accesses(p0.live)), ops))
	set("mem_mb", "MB", float64(p1.mem.Sys)/1e6)
}

func accesses(s rhtm.Stats) uint64 {
	return s.Reads + s.Writes + s.MetadataReads + s.MetadataWrites
}

func printTable(f *os.File, w *workload, cfg runConfig, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	slices.Sort(names)
	mode := "untraced"
	if cfg.traced {
		mode = "traced"
	}
	fmt.Fprintf(f, "# %s seed=%d %s: %d ops attempted, %d failed, correct=%v\n",
		w.name, cfg.seed, mode, res.Attempted, res.Failed, res.Correct)
	for _, n := range names {
		fmt.Fprintf(f, "#   %-34s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
}

// counterSum sums the counters whose names start with prefix.
func counterSum(s obs.Snapshot, prefix string) uint64 {
	var n uint64
	for k, v := range s.Counters {
		if strings.HasPrefix(k, prefix) {
			n += v
		}
	}
	return n
}
