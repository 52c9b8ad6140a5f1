package main

import (
	"fmt"

	"repro/internal/workloads"
	_ "repro/internal/workloads/all"
	"repro/internal/workloads/synthetic"
)

// workload is one named input of the benchmark: a paper benchmark at a
// fixed scale and trace length. Every set-up loads the database and
// generates the trace afresh from the run's seed.
type workload struct {
	name  string
	bench string // the benchmark, as the report names it
	open  func() (workloads.Benchmark, bool)
	scale int // benchmark scale; 0 keeps the benchmark's default
	txns  int // trace length before the train/test split
	train float64
	// serveSec is the serving engine's arrival horizon in virtual
	// seconds; the engine offers about capacity × serveSec requests.
	serveSec float64
}

// workloadTable lists the named workloads, in BENCHMARK.json order. Their
// reasons are recorded there.
//
// synthetic-2pc uses a 60/40 mix of the schema-respecting and the
// implicit-join class instead of the registered 50/50: at 50/50 the
// class that happens to be more frequent in the sampled trace decides
// which solution JECB picks, so the commit work changes by a third from
// one seed to the next.
var workloadTable = []workload{
	{name: "tpcc-advise", bench: "tpcc", open: registered("tpcc"), txns: 20000, train: 0.5, serveSec: 2},
	{name: "synthetic-2pc", bench: "synthetic (mix 0.6)", open: func() (workloads.Benchmark, bool) {
		return synthetic.NewWithMix(0.6), true
	}, txns: 20000, train: 0.5, serveSec: 2},
}

func registered(name string) func() (workloads.Benchmark, bool) {
	return func() (workloads.Benchmark, bool) { return workloads.Get(name) }
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloadTable {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloadTable))
	for i, w := range workloadTable {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// tiny shrinks a workload to a few hundred transactions, for the
// benchmark's own tests.
func (w workload) tiny() workload {
	w.txns = 400
	w.serveSec = 0.05
	if w.bench == "tpcc" {
		w.scale = 4
	}
	return w
}
