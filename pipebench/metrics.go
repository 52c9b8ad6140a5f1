package main

import (
	"math"
	"slices"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// sample is what a metric is computed from: a run's set-ups and the
// reps (all of them, or only the traced or untraced ones).
type sample struct {
	setups []*setup
	reps   []*rep
}

// metricDef names a metric, its unit, and how a sample reduces to it.
type metricDef struct {
	name, unit string
	value      func(sample) float64
}

// medianOf is the median of f over the elements of xs.
func medianOf[T any](xs []T, f func(T) float64) float64 {
	v := make([]float64, len(xs))
	for i, x := range xs {
		v[i] = f(x)
	}
	return median(v)
}

// repMetric is the median of f over the sample's reps.
func repMetric(name, unit string, f func(*rep) float64) metricDef {
	return metricDef{name, unit, func(s sample) float64 { return medianOf(s.reps, f) }}
}

// setupMetric is the median of f over the sample's set-ups.
func setupMetric(name, unit string, f func(*setup) float64) metricDef {
	return metricDef{name, unit, func(s sample) float64 { return medianOf(s.setups, f) }}
}

// firstRep reads a deterministic output, equal in every rep.
func firstRep(name, unit string, f func(*rep) float64) metricDef {
	return metricDef{name, unit, func(s sample) float64 { return f(s.reps[0]) }}
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantileNS is the nearest-rank q-quantile of latencies in ns.
func quantileNS(ns []int64, q float64) float64 {
	s := slices.Clone(ns)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return float64(s[max(i, 0)])
}

func per(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

const mb = 1 << 20

// endToEnd are the metrics a user of the pipeline sees. Timings and
// rates are medians over the run's reps; the quality shares are
// deterministic and equal in every rep.
var endToEnd = []metricDef{
	setupMetric("setup_s", "s", func(st *setup) float64 { return st.total }),
	repMetric("advise_s", "s", func(r *rep) float64 { return r.partition + r.evaluate }),
	repMetric("partition_alloc_mb", "MB", func(r *rep) float64 { return float64(r.partitionAlloc) / mb }),
	{"peak_rss_mb", "MB", func(sample) float64 { return peakRSSMB() }},
	firstRep("dist_pct", "%", func(r *rep) float64 { return r.fp.DistPct }),
	repMetric("route_p50_us", "us", func(r *rep) float64 { return quantileNS(r.routeNS, 0.50) / 1e3 }),
	repMetric("route_p99_us", "us", func(r *rep) float64 { return quantileNS(r.routeNS, 0.99) / 1e3 }),
	firstRep("route_local_pct", "%", func(r *rep) float64 { return r.fp.RouteLocalPct }),
	firstRep("route_agree_pct", "%", func(r *rep) float64 { return r.fp.RouteAgreePct }),
	// route_cover_pct is 100 - route_miss_pct, so that the end-to-end
	// metric is never 0; route_miss_pct itself is a per-layer metric.
	firstRep("route_cover_pct", "%", func(r *rep) float64 { return 100 - r.fp.RouteMissPct }),
	repMetric("commit_tps", "1/s", func(r *rep) float64 { return float64(r.dur.Committed*r.durRuns) / r.durable }),
	repMetric("twopc_tps", "1/s", func(r *rep) float64 { return float64(r.tp.Committed*r.twopcRuns) / r.twopcWall }),
	repMetric("serve_rps", "1/s", func(r *rep) float64 { return float64(r.sv.Offered*r.serveRuns) / r.serveWall }),
	// ok_pct is 100 - fail_pct, for the same reason as route_cover_pct.
	{"ok_pct", "%", func(s sample) float64 { return 100 - failPct(s) }},
}

func failPct(s sample) float64 {
	attempted, failed := 0, 0
	for _, r := range s.reps {
		attempted += r.attempted()
		failed += r.failed()
	}
	return 100 * per(float64(failed), float64(attempted))
}

// perLayer are the metrics of single layers, each measured from outside
// by timing or counting calls into that layer's public functions.
var perLayer = []metricDef{
	setupMetric("workloads.load_s", "s", func(st *setup) float64 { return st.load }),
	setupMetric("workloads.gen_s", "s", func(st *setup) float64 { return st.gen }),
	setupMetric("workloads.gen_us_per_txn", "us", func(st *setup) float64 { return 1e6 * st.gen / float64(st.genTxns) }),
	setupMetric("trace.split_s", "s", func(st *setup) float64 { return st.split }),
	setupMetric("trace.columnarize_s", "s", func(st *setup) float64 { return st.columnarize }),

	repMetric("core.partition_s", "s", func(r *rep) float64 { return r.partition }),
	repMetric("core.cpu_s", "s", func(r *rep) float64 { return r.partitionCPU }),
	repMetric("core.mallocs", "count", func(r *rep) float64 { return float64(r.partitionMal) }),
	repMetric("core.phase1_s", "s", func(r *rep) float64 { return r.phase1 }),
	repMetric("core.phase2_s", "s", func(r *rep) float64 { return r.phase2 }),
	repMetric("core.phase3_s", "s", func(r *rep) float64 { return r.phase3 }),
	repMetric("core.phase3_combos", "count", func(r *rep) float64 { return float64(r.fp.Phase3Combos) }),

	repMetric("eval.evaluate_s", "s", func(r *rep) float64 { return r.evaluate }),
	repMetric("eval.index_build_s", "s", func(r *rep) float64 { return r.indexBuild }),
	repMetric("eval.index_evaluate_s", "s", func(r *rep) float64 { return r.indexEval }),
	repMetric("eval.evaluate_allocs_per_txn", "allocs/txn", func(r *rep) float64 {
		return float64(r.evalMallocs) / float64(r.testTxns)
	}),

	repMetric("router.build_s", "s", func(r *rep) float64 { return r.routerBuild }),
	repMetric("router.route_allocs_per_op", "allocs/op", func(r *rep) float64 {
		return float64(r.routeMallocs) / float64(len(r.routeNS))
	}),
	repMetric("router.gc_cycles_during_routes", "count", func(r *rep) float64 { return float64(r.routeGCs) }),
	repMetric("router.broadcast_pct", "%", func(r *rep) float64 {
		return 100 * float64(r.broadcast) / float64(r.testTxns)
	}),
	repMetric("router.multi_pct", "%", func(r *rep) float64 { return 100 * float64(r.multi) / float64(r.testTxns) }),
	repMetric("route_miss_pct", "%", func(r *rep) float64 { return r.fp.RouteMissPct }),

	repMetric("sim.durable_s", "s", func(r *rep) float64 { return r.durable / float64(r.durRuns) }),
	repMetric("sim.durable_distributed_pct", "%", func(r *rep) float64 {
		return 100 * per(float64(r.dur.Distributed), float64(r.dur.Committed))
	}),
	repMetric("wal.bytes_per_commit", "B/commit", func(r *rep) float64 {
		return per(float64(r.dur.WALBytes), float64(r.dur.Committed))
	}),
	repMetric("wal.records_per_commit", "records/commit", func(r *rep) float64 {
		return per(float64(r.walRecords), float64(r.dur.Committed))
	}),
	repMetric("sim.durable_checkpoints", "count", func(r *rep) float64 { return float64(r.dur.Checkpoints) }),

	repMetric("twopc.run_s", "s", func(r *rep) float64 { return r.twopcWall / float64(r.twopcRuns) }),
	repMetric("twopc.prepares_per_commit", "msgs/commit", func(r *rep) float64 {
		return per(float64(r.prepare), float64(r.tp.Committed))
	}),
	repMetric("transport.msgs_per_commit", "msgs/commit", func(r *rep) float64 {
		return per(float64(r.msgs), float64(r.tp.Committed))
	}),
	repMetric("transport.bytes_per_commit", "B/commit", func(r *rep) float64 {
		return per(float64(r.msgBytes), float64(r.tp.Committed))
	}),
	repMetric("twopc.aborts", "count", func(r *rep) float64 { return float64(r.tp.Aborts) }),
	repMetric("twopc.retries", "count", func(r *rep) float64 { return float64(r.tp.Retries) }),

	repMetric("serve.run_s", "s", func(r *rep) float64 { return r.serveWall / float64(r.serveRuns) }),
	repMetric("serve.attempts_per_request", "attempts/req", func(r *rep) float64 {
		return per(float64(r.sv.Attempts), float64(r.sv.Offered))
	}),
	repMetric("serve.shed_pct", "%", func(r *rep) float64 { return 100 * per(float64(r.sv.Shed), float64(r.sv.Offered)) }),
	repMetric("serve.goodput_vtps", "txn/vs", func(r *rep) float64 { return r.fp.GoodputVTPS }),

	{"fail_pct", "%", failPct},
}

// evaluate reduces a sample to the named metrics.
func evaluate(defs []metricDef, s sample) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.name] = metric{Value: d.value(s), Unit: d.unit}
	}
	return out
}
