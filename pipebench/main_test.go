package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"strings"
	"testing"

	"repro/internal/partition"
	"repro/internal/value"
)

// declared is the metric list of BENCHMARK.json at the repository root.
type declared struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

func tinyConfig(t *testing.T, name string, trace bool) config {
	t.Helper()
	w, err := lookupWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	return config{w: w.tiny(), seed: 7, trace: trace, workdir: t.TempDir(), minReps: 2}
}

// TestTinyRunsPrintDeclaredMetrics runs every workload at a tiny size,
// untraced and traced, and checks that the last line of the output
// carries exactly the metrics BENCHMARK.json declares, with their units.
func TestTinyRunsPrintDeclaredMetrics(t *testing.T) {
	decl := readDeclared(t)
	if len(decl.Workloads) != len(workloadTable) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(decl.Workloads), len(workloadTable))
	}
	for _, w := range decl.Workloads {
		for _, trace := range []bool{false, true} {
			want := decl.EndToEnd
			if trace {
				want = decl.PerLayer
			}
			var out bytes.Buffer
			if err := execute(tinyConfig(t, w.Name, trace), &out); err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%v: last line: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, %d declared", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %q", w.Name, trace, m.Name, got, m.Unit)
				}
			}
		}
	}
}

// outOfRange sends every value to partition k, one past the last.
type outOfRange struct{ partition.Mapper }

func (m outOfRange) Map(value.Value) int { return m.K() }

// TestGateTripsOnOutOfRangePartition hands the pipeline a solution that
// places a table on a partition that does not exist: the run must fail
// the correctness gate and print no result.
func TestGateTripsOnOutOfRangePartition(t *testing.T) {
	cfg := tinyConfig(t, "tpcc-advise", false)
	cfg.tamper = func(sol *partition.Solution) {
		for _, ts := range sol.Tables {
			if !ts.Replicate {
				ts.Mapper = outOfRange{ts.Mapper}
			}
		}
	}
	var out bytes.Buffer
	err := execute(cfg, &out)
	if !errors.Is(err, errGate) {
		t.Fatalf("execute = %v, want a correctness-gate error", err)
	}
	if out.Len() != 0 {
		t.Errorf("a failed run printed %q", out.String())
	}
}

// TestDeterminismRecord checks that a second run of the same binary and
// seed must reproduce the first run's deterministic outputs.
func TestDeterminismRecord(t *testing.T) {
	cfg := tinyConfig(t, "synthetic-2pc", false)
	fp := fingerprint{DistPct: 40, DurableWAL: 1234, Phase3Combos: 2}
	if err := checkDeterminism(cfg, "bin", fp); err != nil {
		t.Fatal(err)
	}
	if err := checkDeterminism(cfg, "bin", fp); err != nil {
		t.Fatalf("same outputs: %v", err)
	}
	fp.DurableWAL++
	if err := checkDeterminism(cfg, "bin", fp); !errors.Is(err, errGate) {
		t.Fatalf("changed outputs: %v, want a correctness-gate error", err)
	}
	if err := checkDeterminism(cfg, "other-bin", fp); err != nil {
		t.Fatalf("another binary: %v", err)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "rep", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 40},
		{Name: "b", Parent: 0, Start: 30, End: 50},
		{Name: "c", Parent: 1, Start: 10, End: 20},
	}
	got := selfTimes(spans)
	for name, want := range map[string]int64{"rep": 60, "a": 20, "b": 20, "c": 10} {
		if got[name].SelfNS != want {
			t.Errorf("self time of %s = %d, want %d", name, got[name].SelfNS, want)
		}
	}
}
