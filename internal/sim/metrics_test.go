package sim

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/fixture"
	"repro/internal/obs"
	"repro/internal/repl"
	"repro/internal/serve"
	"repro/internal/sqlparse"
	"repro/internal/transport"
	"repro/internal/twopc"
)

// metricTokens reads every Default-registry metric as a comparable
// token: a counter's or gauge's value, an HDR's observation count.
func metricTokens() map[string]string {
	out := map[string]string{}
	for name, v := range obs.Default.Snapshot() {
		if h, ok := v.(obs.HDRSnapshot); ok {
			v = h.Count
		}
		out[name] = fmt.Sprint(v)
	}
	return out
}

// gauges are reset to a sentinel before every run, so a run that sets
// one to the value it already held still counts as moving it.
var livenessGauges = []string{
	"sim.durable_availability_pct", "sim.durable_wal_bytes",
	"serve.goodput_tps", "serve.admit_rate_tps",
}

// TestCommitPathMetricLiveness walks DESIGN.md's metric-reference rows
// for the commit path (sim.durable_*, wal.*, twopc.*, repl.*, serve.*):
// every metric must move on a run of its own mode, the oracle-failure
// counters must stay put on every run (the oracles hold), and no twopc.*
// or repl.* metric may move on a durable run — so the benchmark's
// per-layer twopc.prepares_per_commit and wal.records_per_commit keep
// measuring one layer each.
func TestCommitPathMetricLiveness(t *testing.T) {
	if testing.Short() {
		t.Skip("liveness sweep runs every commit mode")
	}
	d := fixture.CustInfoDB()
	tr := fixture.MixedTrace(d, 300, 2)
	sol := scatterSolution(2)
	procs := []*sqlparse.Procedure{fixture.CustInfoProcedure(), fixture.TradeUpdateProcedure()}
	scenario := func(name string, sc Scenario) func(t *testing.T) {
		return func(t *testing.T) {
			fsc, err := faults.Builtin(name, sol.K)
			if err != nil {
				t.Fatal(err)
			}
			sc.DB, sc.Solution, sc.Trace = d, sol, tr
			sc.Faults, sc.Seed, sc.WALDir = fsc, 1, t.TempDir()
			if sc.Mode == ModeServe && name == "single-crash" {
				// A short serving run: move the crash window inside it.
				sc.Faults = &faults.Scenario{Name: "mid-crash", Crashes: []faults.Window{{Node: 0, Start: 0.5, End: 1.2}}}
			}
			if _, err := New(sc).Run(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
	}
	durable := Scenario{Mode: ModeDurable, Durable: DurableConfig{CheckpointEvery: 16}}
	serveSc := Scenario{Mode: ModeServe, Serve: serve.Config{
		Load:       serve.LoadConfig{DurationSec: 2},
		Admission:  serve.AdmissionConfig{Enabled: true},
		Procedures: procs,
	}}
	runs := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"durable/coord-crash", scenario("coord-crash", durable)},
		{"durable/prep-crash", scenario("prep-crash", durable)},
		{"durable/part-crash", scenario("part-crash", durable)},
		{"twopc/coord-crash", scenario("coord-crash", Scenario{Mode: ModeTwoPC,
			TwoPC: twopc.Config{Transport: "bus", Standby: true, CheckpointEvery: 16}})},
		{"twopc/termination", twopcTermination},
		{"repl-async/coord-crash", scenario("coord-crash", Scenario{Mode: ModeReplicated})},
		{"repl-quorum/backup-crash-mid-catchup", scenario("backup-crash-mid-catchup", Scenario{Mode: ModeReplicated,
			Repl: repl.Config{CommitRule: repl.RuleQuorum, Replicas: 1}})},
		{"serve/flaky-network", scenario("flaky-network", serveSc)},
		{"serve/single-crash", scenario("single-crash", serveSc)},
	}
	// Each row names the run that must move the metric; "" marks the
	// oracle-failure counters, which no run may move.
	rows := []struct{ metric, run string }{
		{"sim.durable_runs", "durable/coord-crash"},
		{"sim.durable_committed", "durable/coord-crash"},
		{"sim.durable_latency_ns", "durable/coord-crash"},
		{"sim.durable_availability_pct", "durable/coord-crash"},
		{"sim.durable_wal_bytes", "durable/coord-crash"},
		{"sim.durable_oracle_failures", ""},
		{"wal.records_appended", "durable/coord-crash"},
		{"wal.append_bytes", "durable/coord-crash"},
		{"wal.checkpoints_written", "durable/part-crash"},
		{"wal.torn_tails_detected", "durable/part-crash"},
		{"wal.recoveries", "durable/coord-crash"},
		{"wal.replayed_commits", "durable/coord-crash"},
		{"wal.in_doubt_committed", "durable/coord-crash"},
		{"wal.in_doubt_aborted", "durable/prep-crash"},
		{"twopc.runs", "twopc/coord-crash"},
		{"twopc.committed", "twopc/coord-crash"},
		{"twopc.prepares", "twopc/coord-crash"},
		{"twopc.decisions_applied", "twopc/coord-crash"},
		{"twopc.failovers", "twopc/coord-crash"},
		{"twopc.votes_no", "twopc/termination"},
		{"twopc.status_queries", "twopc/termination"},
		{"twopc.presumed_aborts", "twopc/termination"},
		{"twopc.oracle_failures", ""},
		{"repl.runs", "repl-async/coord-crash"},
		{"repl.committed", "repl-async/coord-crash"},
		{"repl.records_shipped", "repl-async/coord-crash"},
		{"repl.acks_received", "repl-async/coord-crash"},
		{"repl.quorum_waits", "repl-quorum/backup-crash-mid-catchup"},
		{"repl.quorum_degraded", "repl-quorum/backup-crash-mid-catchup"},
		{"repl.promotions", "repl-async/coord-crash"},
		{"repl.lost_commits", "repl-async/coord-crash"},
		{"repl.catchup_records", "repl-async/coord-crash"},
		{"repl.snapshot_rejoins", "repl-async/coord-crash"},
		{"repl.replica_reads", "repl-async/coord-crash"},
		{"repl.stale_reads_avoided", "repl-quorum/backup-crash-mid-catchup"},
		{"repl.oracle_failures", ""},
		{"serve.runs", "serve/flaky-network"},
		{"serve.requests", "serve/flaky-network"},
		{"serve.commits", "serve/flaky-network"},
		{"serve.sheds", "serve/flaky-network"},
		{"serve.breaker_trips", "serve/single-crash"},
		{"serve.latency_ns", "serve/flaky-network"},
		{"serve.goodput_tps", "serve/flaky-network"},
		{"serve.admit_rate_tps", "serve/flaky-network"},
	}

	moved := map[string]map[string]bool{} // run -> metrics it moved
	for _, r := range runs {
		for _, g := range livenessGauges {
			obs.Set(g, -1)
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
		if row.run != "" && !moved[row.run][row.metric] {
			t.Errorf("%s did not move on %s", row.metric, row.run)
		}
		if row.run == "" {
			for run, m := range moved {
				if m[row.metric] {
					t.Errorf("%s moved on %s", row.metric, run)
				}
			}
		}
	}
	for run, m := range moved {
		if !strings.HasPrefix(run, "durable/") {
			continue
		}
		var leaked []string
		for name := range m {
			if strings.HasPrefix(name, "twopc.") || strings.HasPrefix(name, "repl.") {
				leaked = append(leaked, name)
			}
		}
		sort.Strings(leaked)
		if len(leaked) > 0 {
			t.Errorf("durable run %s moved other layers' metrics: %v", run, leaked)
		}
	}
}

// twopcTermination plays a coordinator against one live participant to
// drive the termination protocol: a blocked vote, the participant's own
// status query after its decision timeout, a presumed abort on an
// "unknown" answer, and a status query answered by the participant.
func twopcTermination(t *testing.T) {
	bus := transport.NewBus()
	pEp, err := bus.Endpoint(0)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := bus.Endpoint(1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := twopc.NewParticipant(0, fixture.CustInfoSchema(), t.TempDir(), pEp,
		twopc.ParticipantConfig{DecisionTimeout: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- p.Serve(ctx) }()
	defer func() {
		cancel()
		if err := <-done; err != nil {
			t.Error(err)
		}
	}()

	send := func(typ uint8, txn uint64, payload []byte) {
		t.Helper()
		if err := coord.Send(ctx, transport.Msg{Type: typ, From: 1, To: 0, Txn: txn, Attempt: 1, Payload: payload}); err != nil {
			t.Fatal(err)
		}
	}
	// await skips frames until one of type want arrives (the participant
	// may repeat its status query meanwhile).
	await := func(want uint8) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			m, ok := transport.RecvBy(ctx, coord, deadline)
			if !ok {
				t.Fatalf("no frame of type %d", want)
			}
			if m.Type == want {
				return
			}
		}
	}
	// A MsgPrepare payload naming coordinator 1, with no ops: uvarint(1)
	// then uvarint(0).
	prepare := []byte{1, 0}
	send(twopc.MsgPrepare, 7, prepare)
	await(twopc.MsgVoteYes)
	send(twopc.MsgPrepare, 8, prepare) // refused while txn 7 is in doubt
	await(twopc.MsgVoteNo)
	await(twopc.MsgStatusQuery) // the decision timeout fired
	send(twopc.MsgStatusUnknown, 7, nil)
	send(twopc.MsgStatusQuery, 7, nil)
	await(twopc.MsgStatusAbort) // presumed aborted
}
