package sim

import (
	"context"
	"fmt"

	"repro/internal/commit"
	"repro/internal/db"
	"repro/internal/eval"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/trace"
)

// Durable-mode registry metrics (see DESIGN.md, "Metric reference").
var (
	cDurableRuns       = obs.Default.Counter("sim.durable_runs")
	cDurableCommits    = obs.Default.Counter("sim.durable_committed")
	cDurableOracleFail = obs.Default.Counter("sim.durable_oracle_failures")
	hDurableLatency    = obs.Default.HDR("sim.durable_latency_ns")
)

// DurableConfig shapes the durable chaos replay: the analytic chaos
// parameters plus the checkpoint cadence.
type DurableConfig struct {
	ChaosConfig
	// CheckpointEvery is the number of applied commits a partition
	// accumulates between CHECKPOINT records (default 64). Checkpoints are
	// skipped while a partition holds an in-doubt transaction — snapshots
	// must never swallow a pending PREPARE.
	CheckpointEvery int
}

func (c DurableConfig) withDefaults(traceLen int) DurableConfig {
	c.ChaosConfig = c.ChaosConfig.withDefaults(traceLen)
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 64
	}
	return c
}

// DurableResult is the outcome of one durable chaos replay plus the
// end-of-run crash recovery and consistency oracle. Every field is plain
// deterministic data — no wall-clock — so a (solution, trace, scenario,
// seed) quadruple marshals to byte-identical JSON across runs.
type DurableResult struct {
	Scenario string `json:"scenario"`
	Seed     int64  `json:"seed"`
	Nodes    int    `json:"nodes"`

	// Offered = Committed + PermanentFailures; Local/Distributed classify
	// the committed set.
	Offered           int `json:"offered"`
	Committed         int `json:"committed"`
	PermanentFailures int `json:"permanent_failures"`
	Local             int `json:"local"`
	Distributed       int `json:"distributed"`

	// Aborts counts aborted attempts; Retries the aborts that were
	// retried; AvailabilityPct is 100·committed/offered; MakespanSec the
	// virtual time of the last commit or give-up.
	Aborts          int     `json:"aborts"`
	Retries         int     `json:"retries"`
	AvailabilityPct float64 `json:"availability_pct"`
	MakespanSec     float64 `json:"makespan_sec"`

	// CrashedNodes lists nodes killed by crash points, ascending.
	// InDoubtParts lists partitions left holding a prepared-undecided
	// transaction when the run ended.
	CrashedNodes []int `json:"crashed_nodes,omitempty"`
	InDoubtParts []int `json:"in_doubt_parts,omitempty"`

	// WAL volume and checkpoint activity during the run.
	Checkpoints int   `json:"checkpoints"`
	WALBytes    int64 `json:"wal_bytes"`

	// Recovery outcome: every partition log replayed after the simulated
	// full-cluster crash at end of run.
	TornTails        int `json:"torn_tails"`
	InDoubtCommitted int `json:"in_doubt_committed"`
	InDoubtAborted   int `json:"in_doubt_aborted"`
	RecoveredCommits int `json:"recovered_commits"`

	// Latency quantiles (virtual seconds, HDR-accurate to 1.5625%) over
	// all transactions, permanent failures included.
	LatencyP50  float64 `json:"latency_p50_sec"`
	LatencyP99  float64 `json:"latency_p99_sec"`
	LatencyP999 float64 `json:"latency_p999_sec"`

	// SLO is the tumbling-window objective evaluation over the replay.
	SLO obs.SLOStatus `json:"slo"`

	// TableDigests is the recovered cluster state, one hex digest per
	// table; OracleOK reports whether it is byte-identical to a fault-free
	// re-execution of exactly the committed set.
	TableDigests map[string]string `json:"table_digests"`
	OracleOK     bool              `json:"oracle_ok"`
}

// String renders a one-line summary.
func (r *DurableResult) String() string {
	oracle := "CONSISTENT"
	if !r.OracleOK {
		oracle = "DIVERGED"
	}
	return fmt.Sprintf("durable %q seed=%d: %d/%d committed, %d aborts, "+
		"%d crashed nodes, %d torn tails, in-doubt %d→commit/%d→abort, "+
		"%d checkpoints, %d wal bytes, oracle %s",
		r.Scenario, r.Seed, r.Committed, r.Offered, r.Aborts,
		len(r.CrashedNodes), r.TornTails, r.InDoubtCommitted, r.InDoubtAborted,
		r.Checkpoints, r.WALBytes, oracle)
}

// runChaosDurable replays the trace through a real durable 2PC state
// machine (the commit core's in-process cluster): per-partition
// write-ahead logs under walDir, periodic checkpoints, scripted mid-2PC
// crash points, and — after a simulated full-cluster crash at end of run
// — WAL recovery with presumed-abort resolution and a consistency oracle
// that re-executes exactly the committed set on fault-free stores and
// compares per-table digests. It is the engine behind
// New(Scenario{Mode: ModeDurable, ...}).Run(ctx) and runs under a phase
// span ("sim/durable").
func runChaosDurable(ctx context.Context, d *db.DB, sol *partition.Solution, tr *trace.Trace,
	cfg DurableConfig, sc *faults.Scenario, seed int64, walDir string) (*DurableResult, error) {
	_, span := obs.StartSpan(ctx, "sim/durable")
	defer span.End()

	cfg = cfg.withDefaults(tr.Len())
	a, err := eval.NewAssigner(d, sol)
	if err != nil {
		return nil, err
	}
	inj, err := faults.NewInjector(sc, sol.K, seed)
	if err != nil {
		return nil, err
	}
	cl, err := commit.NewCluster(d.Schema(), sol.K, walDir, cfg.CheckpointEvery, cfg.Recorder)
	if err != nil {
		return nil, err
	}
	defer cl.Close()

	inDoubt := func(p int) bool { return cl.Parts[p].InDoubt() }
	drv := &commit.Driver{
		Assigner: a, Seed: seed, Rate: cfg.ArrivalRateTPS,
		Retry: cfg.Retry, Inj: inj, Rec: cfg.Recorder, SLO: &cfg.SLO,
		Done: func(_ *trace.Txn, _ int, _ bool, latency float64) {
			hDurableLatency.Observe(int64(latency * 1e9))
		},
	}
	var journal commit.Journal
	tally, err := drv.Run(tr, func(at *commit.Attempt) (bool, int, error) {
		// down reports unreachability: scripted windows plus crash-point
		// kills.
		down := func(n int) bool { return cl.Parts[n].Dead() || inj.Down(n, at.Now) }
		cl.Stamp.Trace, cl.Stamp.Attempt, cl.Stamp.VT = at.TraceID, at.N, at.Now
		execNodes, execCoord := at.Exec(sol.K, down)
		writeParts, opsAt := commit.WriteEffects(a, at.Txn, sol.K, execCoord)
		if at.Blocked(execNodes, writeParts, down, inDoubt) {
			return false, execCoord, nil
		}
		lost := at.Lost(inj, execCoord)
		if len(writeParts) == 0 {
			return !lost, execCoord, nil
		}
		txn := cl.NextTxn()
		if lost {
			// The round reached prepare before the coordination message
			// was lost: a full logged abort.
			return false, execCoord, cl.Abort(txn, execCoord, writeParts, opsAt)
		}
		// Crash points fire on distributed rounds that would otherwise
		// proceed.
		var fire *commit.CrashPoint
		if at.Distributed {
			fire = drv.Crash(func(cp faults.CrashPoint) bool {
				return !cl.Parts[cp.Node].Dead() && commit.TwoPCRound(cp, execCoord, writeParts)
			})
		}
		if fire == nil {
			journal.Add(writeParts, opsAt)
			return true, execCoord, cl.Commit(txn, execCoord, writeParts, opsAt, at.Distributed)
		}
		at.Record(obs.EvCrash, fire.Node, commit.CrashCode(fire.Phase))
		if err := cl.Crash(fire.Phase, fire.Node, txn, execCoord, writeParts, opsAt); err != nil {
			return false, execCoord, err
		}
		if fire.Phase != faults.PhaseAfterDecision {
			return false, execCoord, nil
		}
		// The decision is durable: the transaction IS committed even
		// though no participant applied it — recovery replays it from the
		// prepared writes.
		journal.Add(writeParts, opsAt)
		return true, execCoord, nil
	})
	if err != nil {
		return nil, err
	}

	res := &DurableResult{
		Scenario:          sc.Name,
		Seed:              seed,
		Nodes:             sol.K,
		Offered:           tally.Offered,
		Committed:         tally.Committed,
		PermanentFailures: tally.PermanentFailures,
		Local:             tally.Local,
		Distributed:       tally.Distributed,
		Aborts:            tally.Aborts,
		Retries:           tally.Retries,
		AvailabilityPct:   tally.AvailabilityPct,
		MakespanSec:       tally.MakespanSec,
		LatencyP50:        tally.LatencyP50,
		LatencyP99:        tally.LatencyP99,
		LatencyP999:       tally.LatencyP999,
		SLO:               tally.SLO,
		Checkpoints:       cl.Checkpoints(),
		WALBytes:          cl.WALBytes(),
	}
	for n, p := range cl.Parts {
		if p.Dead() {
			res.CrashedNodes = append(res.CrashedNodes, n)
		}
		if p.InDoubt() {
			res.InDoubtParts = append(res.InDoubtParts, n)
		}
	}

	// End of run: the whole cluster crashes (in-memory state lost), then
	// recovery replays every partition log, resolves in-doubt
	// transactions with the presumed-abort rule, and the oracle compares
	// the recovered state with a fault-free re-execution.
	cl.Close()
	rc, err := journal.Recover(d.Schema(), walDir, sol.K, cfg.Recorder, res.MakespanSec)
	if err != nil {
		return nil, err
	}
	res.TornTails = rc.TornTails
	res.InDoubtCommitted = rc.InDoubtCommitted
	res.InDoubtAborted = rc.InDoubtAborted
	res.RecoveredCommits = rc.RecoveredCommits
	res.TableDigests = rc.TableDigests
	res.OracleOK = rc.OracleOK

	cDurableRuns.Inc()
	cDurableCommits.Add(int64(res.Committed))
	if !res.OracleOK {
		cDurableOracleFail.Inc()
	}
	obs.Set("sim.durable_availability_pct", res.AvailabilityPct)
	obs.Set("sim.durable_wal_bytes", float64(res.WALBytes))
	return res, nil
}
