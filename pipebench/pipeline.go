package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/eval"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/router"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/sqlparse"
	"repro/internal/trace"
	"repro/internal/twopc"
	"repro/internal/workloads"
	_ "repro/internal/workloads/all"
)

// Fixed pipeline settings: k = 8 partitions and two partitioner workers
// (the host the benchmark was sized on has two CPUs).
const (
	numParts    = 8
	parallelism = 2
)

// errGate marks a failed correctness check; the run's metrics are
// discarded.
var errGate = errors.New("correctness gate")

func gateErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errGate, fmt.Sprintf(format, args...))
}

// fingerprint holds the outputs that must be identical for one seed in
// every rep of every run.
type fingerprint struct {
	DistPct       float64 `json:"dist_pct"`
	RouteLocalPct float64 `json:"route_local_pct"`
	RouteAgreePct float64 `json:"route_agree_pct"`
	RouteMissPct  float64 `json:"route_miss_pct"`
	DurableWAL    int64   `json:"durable_wal_bytes"`
	TwoPCWAL      int64   `json:"twopc_wal_bytes"`
	Phase3Combos  int     `json:"phase3_combos"`
	GoodputVTPS   float64 `json:"serve_goodput_vtps"`
}

// setup is one set-up of the workload's inputs, with its timings in
// wall seconds. The last set-up of a run feeds every rep.
type setup struct {
	load, gen, split, columnarize float64
	total                         float64
	genTxns                       int

	b           workloads.Benchmark
	d           *db.DB
	train, test *trace.Trace
	col         *trace.Columnar
}

// rep is everything one pass through the pipeline after set-up
// measured. Times are wall seconds.
type rep struct {
	traced bool
	wall   float64

	partition, partitionCPU      float64
	partitionAlloc, partitionMal uint64
	phase1, phase2, phase3       float64 // traced reps only
	evaluate                     float64
	evalMallocs                  uint64
	indexBuild, indexEval        float64
	testTxns                     int

	routerBuild  float64
	routeNS      []int64 // every Route call of every pass
	routePasses  int
	routeMallocs uint64
	routeGCs     uint32
	local, multi int
	broadcast    int
	routeErrs    int

	// Each replay stage records its first run's result, how many runs
	// it made, and their total wall time.
	durable    float64
	durRuns    int
	dur        *sim.DurableResult
	walRecords int64

	twopcWall               float64
	twopcRuns               int
	tp                      *twopc.Result
	msgs, msgBytes, prepare int64

	serveWall float64
	serveRuns int
	sv        *serve.Result

	fp fingerprint
}

// attempted counts the operations the rep offered: routes, commits of
// both replays, and serve requests.
func (r *rep) attempted() int {
	return len(r.routeNS) + r.dur.Offered*r.durRuns + r.tp.Offered*r.twopcRuns + r.sv.Offered*r.serveRuns
}

// failed counts route errors, permanent commit failures and serve
// failures.
func (r *rep) failed() int {
	return r.routeErrs + r.dur.PermanentFailures*r.durRuns + r.tp.PermanentFailures*r.twopcRuns +
		r.sv.Failed*r.serveRuns
}

// timed runs f and returns its wall seconds.
func timed(f func()) float64 {
	start := time.Now()
	f()
	return time.Since(start).Seconds()
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}

// runSetup loads the database, generates the trace, splits it and
// columnarizes the test half. Trace generation runs transactions
// against the database, so every set-up loads afresh.
func runSetup(cfg config, idx int, t *tracer) (*setup, error) {
	b, ok := cfg.w.open()
	if !ok {
		return nil, fmt.Errorf("benchmark %q is not registered", cfg.w.bench)
	}
	st := &setup{b: b}
	id := int64(idx)
	root := t.begin("setup", -1, id)
	defer t.end(root)
	runtime.GC()
	var err error
	s := t.begin("workloads.Benchmark.Load", root, id)
	st.load = timed(func() { st.d, err = b.Load(workloads.Config{Scale: cfg.w.scale, Seed: cfg.seed}) })
	t.end(s)
	if err != nil {
		return nil, fmt.Errorf("load %s: %w", cfg.w.bench, err)
	}
	var full *trace.Trace
	s = t.begin("workloads.GenerateTrace", root, id)
	st.gen = timed(func() { full = workloads.GenerateTrace(b, st.d, cfg.w.txns, cfg.seed+1) })
	t.end(s)
	s = t.begin("trace.TrainTest", root, id)
	st.split = timed(func() { st.train, st.test = full.TrainTest(cfg.w.train, rand.New(rand.NewSource(cfg.seed+2))) })
	t.end(s)
	s = t.begin("trace.Columnarize", root, id)
	st.columnarize = timed(func() { st.col = trace.Columnarize(st.test) })
	t.end(s)
	st.total = st.load + st.gen + st.split + st.columnarize
	st.genTxns = full.Len()
	if st.test.Len() == 0 || st.train.Len() == 0 {
		return nil, gateErr("empty train or test trace (%d/%d)", st.train.Len(), st.test.Len())
	}
	return st, nil
}

// runRep runs one pass of the pipeline over the set-up inputs —
// partition, evaluate, route, durable commit, networked 2PC, serve —
// and checks each stage's output. No stage changes the database.
func runRep(ctx context.Context, cfg config, in *setup, idx int, t *tracer) (*rep, error) {
	d, train, test, col := in.d, in.train, in.test, in.col
	r := &rep{traced: t.on, testTxns: test.Len()}
	id := int64(idx)
	root := t.begin("rep", -1, id)
	start := time.Now()
	defer func() { r.wall = time.Since(start).Seconds(); t.end(root) }()

	// Advise: partition on the training trace, score on the test trace.
	procs := workloads.Procedures(in.b)
	pctx, ptrace := ctx, (*obs.Trace)(nil)
	if t.on {
		pctx, ptrace = obs.WithTrace(ctx, "core.Partition")
	}
	var sol *partition.Solution
	var report *core.Report
	var err error
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuSeconds()
	s := t.begin("core.Partition", root, id)
	r.partition = timed(func() {
		sol, report, err = core.Partition(pctx, core.Input{DB: d, Procedures: procs, Train: train, Test: test},
			core.Options{K: numParts, Seed: cfg.seed, Parallelism: parallelism})
	})
	t.end(s)
	r.partitionCPU = cpuSeconds() - cpu0
	runtime.ReadMemStats(&m1)
	r.partitionAlloc = m1.TotalAlloc - m0.TotalAlloc
	r.partitionMal = m1.Mallocs - m0.Mallocs
	if err != nil {
		return nil, fmt.Errorf("partition: %w", err)
	}
	r.fp.Phase3Combos = report.CombosEvaluated
	if ptrace != nil {
		ptrace.Finish()
		snap := ptrace.Snapshot()
		t.attachPhases(s, id, snap)
		for _, c := range snap.Children {
			sec := time.Duration(c.DurationNS).Seconds()
			switch c.Name {
			case "jecb/phase1":
				r.phase1 = sec
			case "jecb/phase2":
				r.phase2 = sec
			case "jecb/phase3":
				r.phase3 = sec
			}
		}
	}
	if cfg.tamper != nil {
		cfg.tamper(sol)
	}
	if err := sol.Validate(d.Schema()); err != nil {
		return nil, gateErr("Solution.Validate: %v", err)
	}

	var res *eval.Result
	runtime.ReadMemStats(&m0)
	s = t.begin("eval.Evaluate", root, id)
	r.evaluate = timed(func() { res, err = eval.Evaluate(d, sol, test) })
	t.end(s)
	runtime.ReadMemStats(&m1)
	r.evalMallocs = m1.Mallocs - m0.Mallocs
	if err != nil {
		return nil, fmt.Errorf("evaluate: %w", err)
	}
	r.fp.DistPct = 100 * res.Cost()

	// The columnar evaluator must agree with the row evaluator, and every
	// placement must name a real partition.
	a, err := eval.NewAssigner(d, sol)
	if err != nil {
		return nil, fmt.Errorf("assigner: %w", err)
	}
	var pidx *eval.PlaceIndex
	s = t.begin("eval.Assigner.Index", root, id)
	r.indexBuild = timed(func() { pidx = a.Index(col) })
	t.end(s)
	var ires *eval.Result
	s = t.begin("eval.PlaceIndex.Evaluate", root, id)
	r.indexEval = timed(func() { ires = pidx.Evaluate() })
	t.end(s)
	if err := sameResult(res, ires); err != nil {
		return nil, gateErr("row and columnar evaluators disagree: %v", err)
	}
	for i := 0; i < col.NumTxns(); i++ {
		parts, _, _ := pidx.TxnPartitions(i)
		if !parts.Empty() && (parts.Min() < 0 || slices.Max(parts.Slice()) >= sol.K) {
			return nil, gateErr("test txn %d placed on partitions %v, outside [0, %d)", i, parts.Slice(), sol.K)
		}
	}

	if err := routeStage(ctx, cfg.window, r, t, root, id, d, sol, procs, test, pidx); err != nil {
		return nil, err
	}
	if err := commitStages(ctx, cfg, r, t, root, id, d, sol, test, procs); err != nil {
		return nil, err
	}
	return r, nil
}

// sameResult compares two evaluator results field by field.
func sameResult(a, b *eval.Result) error {
	if a.Total != b.Total || a.Distributed != b.Distributed || a.TouchSum != b.TouchSum || a.K != b.K {
		return fmt.Errorf("totals %d/%d/%d vs %d/%d/%d", a.Total, a.Distributed, a.TouchSum,
			b.Total, b.Distributed, b.TouchSum)
	}
	if len(a.ByClass) != len(b.ByClass) {
		return fmt.Errorf("%d classes vs %d", len(a.ByClass), len(b.ByClass))
	}
	for name, ca := range a.ByClass {
		cb, ok := b.ByClass[name]
		if !ok || *ca != *cb {
			return fmt.Errorf("class %s: %+v vs %+v", name, ca, cb)
		}
	}
	return nil
}

// routeStage builds the router from the code analysis and routes every
// test txn once, in trace order, from one closed-loop client. Only the
// Route call is timed; each decision is then compared with the
// evaluator's placement of the same txn.
func routeStage(ctx context.Context, window float64, r *rep, t *tracer, root int, id int64, d *db.DB,
	sol *partition.Solution, procs []*sqlparse.Procedure, test *trace.Trace, pidx *eval.PlaceIndex) error {
	var rt *router.Router
	var err error
	s := t.begin("router.New", root, id)
	r.routerBuild = timed(func() {
		analyses := make([]*sqlparse.Analysis, 0, len(procs))
		for _, proc := range procs {
			var a *sqlparse.Analysis
			if a, err = sqlparse.Analyze(proc, d.Schema()); err != nil {
				err = fmt.Errorf("analyze %s: %w", proc.Name, err)
				return
			}
			analyses = append(analyses, a)
		}
		rt, err = router.New(d, sol, analyses)
	})
	t.end(s)
	if err != nil {
		return fmt.Errorf("router: %w", err)
	}

	// Route every test txn once per pass, in trace order, until the
	// passes have taken window seconds. Decisions are kept from the
	// first pass.
	r.routeNS = make([]int64, 0, test.Len())
	decs := make([]router.Decision, 0, test.Len())
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for routed := 0.0; r.routePasses == 0 || routed < window; r.routePasses++ {
		loop := t.begin("router.Route pass", root, id)
		t.reserve(test.Len())
		r.routeNS = slices.Grow(r.routeNS, test.Len())
		passStart := time.Now()
		for i, txn := range test.All() {
			req := router.Request{Class: txn.Class, Params: txn.Params}
			t0 := time.Now()
			dec, err := rt.Route(ctx, req)
			t1 := time.Now()
			r.routeNS = append(r.routeNS, int64(t1.Sub(t0)))
			t.add("router.Route", loop, int64(i), t0, t1)
			if err != nil {
				r.routeErrs++
			}
			if r.routePasses == 0 {
				decs = append(decs, dec)
			}
		}
		routed += time.Since(passStart).Seconds()
		t.end(loop)
	}
	runtime.ReadMemStats(&m1)
	r.routeMallocs = m1.Mallocs - m0.Mallocs
	r.routeGCs = m1.NumGC - m0.NumGC

	single, agree, miss := 0, 0, 0
	for i, dec := range decs {
		for _, p := range dec.Partitions {
			if p < 0 || p >= sol.K {
				return gateErr("route of test txn %d names partition %d, outside [0, %d)", i, p, sol.K)
			}
		}
		switch n := len(dec.Partitions); {
		case n == 0:
			// a route error: counted in routeErrs
		case n == 1:
			r.local++
		case n >= sol.K:
			r.broadcast++
		default:
			r.multi++
		}
		parts, writesRepl, allPlaced := pidx.TxnPartitions(i)
		if parts.Len() == 1 && !writesRepl && allPlaced {
			single++
			if dec.Local() && dec.Partitions[0] == parts.Min() {
				agree++
			}
		}
		for _, p := range parts.Slice() {
			if !slices.Contains(dec.Partitions, p) {
				miss++
				break
			}
		}
	}
	n := float64(len(decs))
	r.fp.RouteLocalPct = 100 * float64(r.local) / n
	r.fp.RouteMissPct = 100 * float64(miss) / n
	if single > 0 {
		r.fp.RouteAgreePct = 100 * float64(agree) / float64(single)
	}
	return nil
}

// minWindow is the least wall time a rep spends routing, and in each of
// the durable, 2PC and serve runs; a shorter stage is repeated on the
// same inputs, so that every rate is measured over enough work to smooth
// out scheduling noise.
const minWindow = 0.5 // seconds

// commitStages replays the test trace through the durable in-process
// 2PC engine and the networked 2PC engine over the in-proc bus, each
// with a fresh WAL directory, then drives the serving engine. All three
// run fault-free.
func commitStages(ctx context.Context, cfg config, r *rep, t *tracer, root int, id int64, d *db.DB,
	sol *partition.Solution, test *trace.Trace, procs []*sqlparse.Procedure) error {
	none, err := faults.Builtin("none", sol.K)
	if err != nil {
		return err
	}
	base := sim.Scenario{DB: d, Solution: sol, Trace: test, Faults: none, Seed: cfg.seed}
	st := stage{ctx: ctx, workdir: cfg.workdir, window: cfg.window, t: t, root: root, id: id}

	sc := base
	sc.Mode = sim.ModeDurable
	res, err := st.repeat("sim.Run durable", sc, true, func(a, b *sim.RunResult) bool {
		return a.Durable.WALBytes == b.Durable.WALBytes && a.Durable.Committed == b.Durable.Committed
	})
	if err != nil {
		return err
	}
	r.dur, r.durRuns, r.durable, r.walRecords = res.Durable, st.runs, st.wall, st.delta[0]
	if err := checkCommit("durable", test.Len(), r.dur.OracleOK, r.dur.Offered, r.dur.Committed, r.dur.PermanentFailures); err != nil {
		return err
	}
	r.fp.DurableWAL = r.dur.WALBytes

	sc = base
	sc.Mode = sim.ModeTwoPC
	sc.TwoPC = twopc.Config{Transport: "bus"}
	res, err = st.repeat("sim.Run twopc", sc, true, func(a, b *sim.RunResult) bool {
		return a.TwoPC.WALBytes == b.TwoPC.WALBytes && a.TwoPC.Committed == b.TwoPC.Committed
	})
	if err != nil {
		return err
	}
	r.tp, r.twopcRuns, r.twopcWall = res.TwoPC, st.runs, st.wall
	r.msgs, r.msgBytes, r.prepare = st.delta[1], st.delta[2], st.delta[3]
	if err := checkCommit("twopc", test.Len(), r.tp.OracleOK, r.tp.Offered, r.tp.Committed, r.tp.PermanentFailures); err != nil {
		return err
	}
	r.fp.TwoPCWAL = r.tp.WALBytes

	sc = base
	sc.Mode = sim.ModeServe
	sc.Serve = serve.Config{
		Load:       serve.LoadConfig{LoadFactor: 1, DurationSec: cfg.w.serveSec, Arrival: serve.ArrivalPoisson},
		Admission:  serve.AdmissionConfig{Enabled: true},
		Procedures: procs,
	}
	res, err = st.repeat("sim.Run serve", sc, false, func(a, b *sim.RunResult) bool {
		return a.Serve.Offered == b.Serve.Offered && a.Serve.GoodputTPS == b.Serve.GoodputTPS
	})
	if err != nil {
		return err
	}
	r.sv, r.serveRuns, r.serveWall = res.Serve, st.runs, st.wall
	if got := r.sv.Committed + r.sv.Shed + r.sv.Denied + r.sv.Failed + r.sv.Expired; got != r.sv.Offered || r.sv.Offered == 0 {
		return gateErr("serve outcomes sum to %d for %d offered", got, r.sv.Offered)
	}
	r.fp.GoodputVTPS = r.sv.GoodputTPS
	return nil
}

// stage repeats one simulation scenario within a rep and keeps what the
// last repeat measured.
type stage struct {
	ctx     context.Context
	workdir string
	window  float64
	t       *tracer
	root    int
	id      int64

	runs  int      // runs made
	wall  float64  // their total wall seconds
	delta [5]int64 // spanCounters deltas of the first run
}

// repeat runs sc until st.window seconds have passed, each run with a fresh WAL
// directory when wal is set, and returns the first run's result. Every
// run must produce what the first did (same reports whether they agree).
func (st *stage) repeat(name string, sc sim.Scenario, wal bool, same func(a, b *sim.RunResult) bool) (*sim.RunResult, error) {
	var first *sim.RunResult
	st.runs, st.wall = 0, 0
	for st.runs == 0 || st.wall < st.window {
		res, wall, delta, err := st.once(name, sc, wal)
		if err != nil {
			return nil, err
		}
		if first == nil {
			first, st.delta = res, delta
		} else if !same(first, res) {
			return nil, gateErr("%s: repeated runs on the same inputs disagree", name)
		}
		st.runs++
		st.wall += wall
	}
	return first, nil
}

func (st *stage) once(name string, sc sim.Scenario, wal bool) (*sim.RunResult, float64, [5]int64, error) {
	var delta [5]int64
	if wal {
		dir, err := os.MkdirTemp(st.workdir, "wal-")
		if err != nil {
			return nil, 0, delta, err
		}
		defer os.RemoveAll(dir)
		sc.WALDir = dir
	}
	runtime.GC()
	c0 := readCounters()
	var res *sim.RunResult
	var err error
	s := st.t.begin(name, st.root, st.id)
	wall := timed(func() { res, err = sim.New(sc).Run(st.ctx) })
	st.t.end(s)
	c1 := readCounters()
	for i := range delta {
		delta[i] = c1[i] - c0[i]
	}
	if err != nil {
		return nil, 0, delta, fmt.Errorf("%s: %w", name, err)
	}
	return res, wall, delta, nil
}

// checkCommit is the replay gate: the consistency oracle holds and every
// offered txn either committed or failed permanently.
func checkCommit(name string, txns int, oracleOK bool, offered, committed, failed int) error {
	switch {
	case !oracleOK:
		return gateErr("%s replay: consistency oracle diverged", name)
	case offered != txns:
		return gateErr("%s replay offered %d of %d test txns", name, offered, txns)
	case committed+failed != offered:
		return gateErr("%s replay: %d committed + %d failed != %d offered", name, committed, failed, offered)
	case committed == 0:
		return gateErr("%s replay committed nothing", name)
	}
	return nil
}
