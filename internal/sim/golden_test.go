package sim

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/faults"
	"repro/internal/fixture"
	"repro/internal/obs"
	"repro/internal/repl"
	"repro/internal/serve"
	"repro/internal/sqlparse"
	"repro/internal/twopc"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/commit_golden.json from the current engines")

// goldenCase is one commit-path configuration the golden file pins.
type goldenCase struct {
	name string
	sc   Scenario
}

func goldenCases() []goldenCase {
	procs := []*sqlparse.Procedure{fixture.CustInfoProcedure(), fixture.TradeUpdateProcedure()}
	return []goldenCase{
		{"chaos", Scenario{Mode: ModeChaos}},
		{"durable", Scenario{Mode: ModeDurable, Durable: DurableConfig{CheckpointEvery: 16}}},
		{"twopc-bus", Scenario{Mode: ModeTwoPC, TwoPC: twopc.Config{Transport: "bus", CheckpointEvery: 16}}},
		{"twopc-bus-standby", Scenario{Mode: ModeTwoPC, TwoPC: twopc.Config{Transport: "bus", Standby: true, CheckpointEvery: 16}}},
		{"repl-async", Scenario{Mode: ModeReplicated, Repl: repl.Config{CommitRule: repl.RuleAsync}}},
		{"repl-quorum", Scenario{Mode: ModeReplicated, Repl: repl.Config{CommitRule: repl.RuleQuorum}}},
		{"serve-wal", Scenario{Mode: ModeServe, Serve: serve.Config{
			Load:       serve.LoadConfig{DurationSec: 1},
			Admission:  serve.AdmissionConfig{Enabled: true},
			Procedures: procs,
		}}},
	}
}

// goldenDigest is what one (case, scenario) run must reproduce: the
// SHA-256 of the RunResult JSON and of the flight-recorder dump.
type goldenDigest struct {
	Result string `json:"result_sha256"`
	Flight string `json:"flight_sha256"`
}

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// TestCommitGolden pins every commit path end to end: the analytic chaos
// replay, the durable replay, networked 2PC over the bus with and without the
// standby, replica groups under both commit rules, and the WAL-backed
// serving run, each under every builtin fault scenario. The RunResult
// JSON and the flight dump of each run must hash to the values recorded
// in testdata/commit_golden.json. Regenerate with -update-golden only
// for an intended, reviewed behavior change.
func TestCommitGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("golden sweep runs the full commit matrix")
	}
	d := fixture.CustInfoDB()
	tr := fixture.MixedTrace(d, 300, 2)
	sol := scatterSolution(2)

	got := map[string]goldenDigest{}
	for _, gc := range goldenCases() {
		for _, name := range faults.BuiltinNames() {
			key := gc.name + "/" + name
			fsc, err := faults.Builtin(name, sol.K)
			if err != nil {
				t.Fatal(err)
			}
			sc := gc.sc
			sc.DB, sc.Solution, sc.Trace = d, sol, tr
			sc.Faults, sc.Seed, sc.WALDir = fsc, 1, t.TempDir()
			rec := obs.NewRecorder(1 << 17)
			sc.Recorder = rec
			res, err := New(sc).Run(context.Background())
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			enc, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			var dump bytes.Buffer
			if err := rec.DumpJSON(&dump); err != nil {
				t.Fatal(err)
			}
			got[key] = goldenDigest{Result: sha(enc), Flight: sha(dump.Bytes())}
		}
	}

	path := filepath.Join("testdata", "commit_golden.json")
	if *updateGolden {
		enc, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(enc, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden digests to %s", len(got), path)
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]goldenDigest
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden holds %d runs, the matrix produced %d", len(want), len(got))
	}
	for key, g := range got {
		w, ok := want[key]
		switch {
		case !ok:
			t.Errorf("%s: missing from the golden file", key)
		case w.Result != g.Result:
			t.Errorf("%s: RunResult JSON changed", key)
		case w.Flight != g.Flight:
			t.Errorf("%s: flight dump changed", key)
		}
	}
}
