package eval_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/workloads"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/partition_golden.json from the current partitioner and evaluator")

// partitionGolden is what one paper benchmark must reproduce: the
// SHA-256 of the JECB Solution and Report JSON (identical at every
// worker count) and the evaluator's Result for that solution on the
// held-out test half, frozen verbatim.
type partitionGolden struct {
	Solution string          `json:"solution_sha256"`
	Report   string          `json:"report_sha256"`
	Result   json.RawMessage `json:"result"`
}

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// TestPartitionGolden pins the partitioner and the evaluator end to end
// on all five paper benchmarks: at Parallelism 1, 2 and 8 the Solution
// and Report JSON must hash to the values in
// testdata/partition_golden.json, and eval.Evaluate of the solution on
// the test half must reproduce the frozen Result byte for byte.
// Regenerate with -update-golden only for an intended, reviewed change
// of the search or the cost function.
func TestPartitionGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("golden sweep partitions all five benchmarks three times")
	}
	got := make([]partitionGolden, len(paperBenches))
	for i, pb := range paperBenches {
		t.Run(pb.name, func(t *testing.T) {
			t.Parallel()
			d, err := pb.bench.Load(workloads.Config{Scale: pb.scale, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			full := workloads.GenerateTrace(pb.bench, d, 2000, 2)
			train, test := full.TrainTest(0.5, rand.New(rand.NewSource(3)))
			in := core.Input{DB: d, Procedures: workloads.Procedures(pb.bench), Train: train, Test: test}
			for _, par := range []int{1, 2, 8} {
				sol, rep, err := core.Partition(context.Background(), in, core.Options{K: 4, Seed: 1, Parallelism: par})
				if err != nil {
					t.Fatal(err)
				}
				sb, err := json.Marshal(sol)
				if err != nil {
					t.Fatal(err)
				}
				rb, err := json.Marshal(rep)
				if err != nil {
					t.Fatal(err)
				}
				g := partitionGolden{Solution: sha(sb), Report: sha(rb)}
				if par == 1 {
					res, err := eval.Evaluate(d, sol, test)
					if err != nil {
						t.Fatal(err)
					}
					g.Result = json.RawMessage(canonicalResult(t, res))
					got[i] = g
					continue
				}
				if g.Solution != got[i].Solution || g.Report != got[i].Report {
					t.Errorf("parallelism=%d: Solution/Report JSON diverged from parallelism=1", par)
				}
			}
		})
	}
	t.Cleanup(func() { checkPartitionGolden(t, got) })
}

func checkPartitionGolden(t *testing.T, got []partitionGolden) {
	if t.Failed() {
		return
	}
	byName := map[string]partitionGolden{}
	for i, pb := range paperBenches {
		byName[pb.name] = got[i]
	}
	path := filepath.Join("testdata", "partition_golden.json")
	if *updateGolden {
		enc, err := json.MarshalIndent(byName, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(enc, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden records to %s", len(byName), path)
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]partitionGolden
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(byName) {
		t.Errorf("golden holds %d benchmarks, the sweep produced %d", len(want), len(byName))
	}
	for name, g := range byName {
		w, ok := want[name]
		var frozen bytes.Buffer
		if ok {
			if err := json.Compact(&frozen, w.Result); err != nil {
				t.Fatal(err)
			}
		}
		switch {
		case !ok:
			t.Errorf("%s: missing from the golden file", name)
		case w.Solution != g.Solution:
			t.Errorf("%s: Solution JSON changed", name)
		case w.Report != g.Report:
			t.Errorf("%s: Report JSON changed", name)
		case frozen.String() != string(g.Result):
			t.Errorf("%s: eval.Result changed\n got %s\nwant %s", name, g.Result, frozen.String())
		}
	}
}
