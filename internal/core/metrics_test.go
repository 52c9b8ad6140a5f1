package core

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/eval"
	"repro/internal/obs"
	"repro/internal/workloads"
	"repro/internal/workloads/tpcc"
)

// metricTokens reads every Default-registry metric as a comparable
// token: a counter's or gauge's value, a histogram's or HDR's count.
func metricTokens() map[string]string {
	out := map[string]string{}
	for name, v := range obs.Default.Snapshot() {
		switch s := v.(type) {
		case obs.HDRSnapshot:
			v = s.Count
		case obs.HistogramSnapshot:
			v = s.Count
		}
		out[name] = fmt.Sprint(v)
	}
	return out
}

// TestPartitionMetricLiveness walks DESIGN.md's metric-reference rows
// for the partitioner and the evaluator (core.*, eval.*, db.path_*):
// every metric must move on the canonical entry point that feeds it —
// core.Partition + eval.Evaluate on a small TPC-C fixture for the search
// and scoring rows, and dedicated runs for the rows only a min-cut
// fallback, a read-only or unpartitionable class, an incremental
// repartition, per-access placement or a resource measurement reach.
// Gauges are reset to a sentinel before every run, so a run that sets
// one to the value it already held (a drained queue's 0) still counts.
func TestPartitionMetricLiveness(t *testing.T) {
	if testing.Short() {
		t.Skip("liveness sweep partitions a TPC-C fixture")
	}
	b := tpcc.New()
	d, err := b.Load(workloads.Config{Scale: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	full := workloads.GenerateTrace(b, d, 600, 2)
	train, test := full.TrainTest(0.5, rand.New(rand.NewSource(3)))
	tpccIn := Input{DB: d, Procedures: workloads.Procedures(b), Train: train, Test: test}

	runs := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"partition/tpcc", func(t *testing.T) {
			sol, _, err := Partition(context.Background(), tpccIn, Options{K: 4, Seed: 1, Parallelism: 2})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := eval.Evaluate(d, sol, test); err != nil {
				t.Fatal(err)
			}
		}},
		{"placekey/tpcc", func(t *testing.T) {
			sol, _, err := Partition(context.Background(), tpccIn, Options{K: 4, Seed: 1, Parallelism: 2})
			if err != nil {
				t.Fatal(err)
			}
			a, err := eval.NewAssigner(d, sol)
			if err != nil {
				t.Fatal(err)
			}
			for _, txn := range test.All() {
				a.Distributed(txn)
			}
		}},
		{"mincut", func(t *testing.T) {
			in, _ := clusteredPairsDB(t, true)
			if _, _, err := Partition(context.Background(), in, Options{K: 8}); err != nil {
				t.Fatal(err)
			}
		}},
		{"non-partitionable", func(t *testing.T) {
			in, _ := clusteredPairsDB(t, true)
			if _, _, err := Partition(context.Background(), in, Options{K: 8, DisableMinCutFallback: true}); err != nil {
				t.Fatal(err)
			}
		}},
		{"read-only", TestJECBReadOnlyClass},
		{"repartition/warm", TestRepartitionWarmAccept},
		{"repartition/search", TestRepartitionRegressionRunsSearch},
		{"measure", func(t *testing.T) {
			if _, err := eval.Measure(func() error { return nil }); err != nil {
				t.Fatal(err)
			}
		}},
	}
	// Each row names the run that must move the metric.
	rows := []struct{ metric, run string }{
		{"core.runs", "partition/tpcc"},
		{"core.classes_solved", "partition/tpcc"},
		{"core.classes_read_only", "read-only"},
		{"core.classes_non_partitionable", "non-partitionable"},
		{"core.total_solutions", "partition/tpcc"},
		{"core.partial_solutions", "partition/tpcc"},
		{"core.mincut_fallbacks", "mincut"},
		{"core.combos_evaluated", "partition/tpcc"},
		{"core.best_improvements", "partition/tpcc"},
		{"core.best_cost", "partition/tpcc"},
		{"core.warm_accepts", "repartition/warm"},
		{"core.warm_full_searches", "repartition/search"},
		{"core.phase2_workers", "partition/tpcc"},
		{"core.phase3_workers", "partition/tpcc"},
		{"core.phase2_queue", "partition/tpcc"},
		{"core.phase3_queue", "partition/tpcc"},
		{"eval.evaluations", "partition/tpcc"},
		{"eval.assigners_built", "partition/tpcc"},
		{"eval.place_index_builds", "partition/tpcc"},
		{"eval.txns_scored", "partition/tpcc"},
		{"eval.txns_distributed", "partition/tpcc"},
		{"eval.measure_runs", "measure"},
		{"eval.measure_wall_ns", "measure"},
		{"eval.measure_cpu_ns", "measure"},
		{"eval.measure_alloc_bytes", "measure"},
		{"db.path_evaluators_built", "partition/tpcc"},
		{"db.path_evals", "partition/tpcc"},
		{"db.path_cache_hits", "placekey/tpcc"},
		{"db.path_cache_misses", "placekey/tpcc"},
	}

	moved := map[string]map[string]bool{} // run -> metrics it moved
	for _, r := range runs {
		for name, v := range obs.Default.Snapshot() {
			if _, ok := v.(float64); ok && (strings.HasPrefix(name, "core.") || strings.HasPrefix(name, "eval.")) {
				obs.Set(name, -1)
			}
		}
		before := metricTokens()
		t.Run(r.name, r.run)
		moved[r.name] = map[string]bool{}
		for name, v := range metricTokens() {
			if v != before[name] {
				moved[r.name][name] = true
			}
		}
	}
	for _, row := range rows {
		if !moved[row.run][row.metric] {
			t.Errorf("%s did not move on %s", row.metric, row.run)
		}
	}
}
