package commit

import (
	"repro/internal/eval"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Tally is the driver's per-run bookkeeping, shared by every replay's
// result.
type Tally struct {
	// Offered = Committed + PermanentFailures; Local/Distributed classify
	// the committed set.
	Offered           int
	Committed         int
	PermanentFailures int
	Local             int
	Distributed       int
	// Aborts counts aborted attempts; Retries the aborts that were
	// retried.
	Aborts  int
	Retries int
	// AvailabilityPct is 100·committed/offered; MakespanSec the virtual
	// time of the last commit or give-up.
	AvailabilityPct float64
	MakespanSec     float64
	// Latency quantiles (virtual seconds, HDR-accurate to 1.5625%) over
	// all transactions, permanent failures included.
	LatencyP50  float64
	LatencyP99  float64
	LatencyP999 float64
	// SLO is the tumbling-window objective evaluation over the replay.
	SLO obs.SLOStatus
}

// Attempt is one execution attempt of one transaction, as the driver
// hands it to an engine.
type Attempt struct {
	Index   int // trace position
	Txn     *trace.Txn
	TraceID uint64
	N       int     // attempt number, from 1
	Now     float64 // virtual time of the attempt
	// Nodes, Coord and Distributed classify the transaction (see
	// Participants); Nodes is empty for a fully-replicated read.
	Nodes       []int
	Coord       int
	Distributed bool

	rec *obs.Recorder
}

// Exec picks the nodes the attempt executes on: its pinned participants,
// or — for a fully-replicated read — any reachable node, round-robin by
// trace position (its home coordinator when every node is down).
func (at *Attempt) Exec(k int, down func(n int) bool) (nodes []int, coord int) {
	if len(at.Nodes) > 0 {
		return at.Nodes, at.Coord
	}
	var up []int
	for n := 0; n < k; n++ {
		if !down(n) {
			up = append(up, n)
		}
	}
	if len(up) == 0 {
		return []int{at.Coord}, at.Coord
	}
	c := up[at.Index%len(up)]
	return []int{c}, c
}

// Blocked reports whether the attempt cannot proceed, recording the
// fault: an unreachable execution node, or a write partition holding an
// in-doubt transaction (its keys stay locked until resolution; reads
// degrade through). inDoubt may be nil.
func (at *Attempt) Blocked(nodes, writeParts []int, down, inDoubt func(n int) bool) bool {
	for _, n := range nodes {
		if down(n) {
			at.Record(obs.EvFault, n, obs.FaultNodeDown)
			return true
		}
	}
	if inDoubt == nil {
		return false
	}
	for _, p := range writeParts {
		if inDoubt(p) {
			at.Record(obs.EvFault, p, obs.FaultInDoubtBlock)
			return true
		}
	}
	return false
}

// Lost samples the loss of a distributed attempt's coordination
// message, recording it against coord.
func (at *Attempt) Lost(inj *faults.Injector, coord int) bool {
	if !at.Distributed || !inj.SampleLoss() {
		return false
	}
	at.Record(obs.EvFault, coord, obs.FaultMsgLoss)
	return true
}

// Record stamps one flight event with the attempt's transaction,
// attempt number and virtual time.
func (at *Attempt) Record(kind obs.EventKind, node int, arg int64) {
	at.rec.Record(at.TraceID, kind, node, at.N, at.Now, arg)
}

// CrashPoint is one scripted crash point with its qualifying-round
// counter.
type CrashPoint struct {
	faults.CrashPoint
	count int
	fired bool
}

// Rearm un-fires a point whose crash could not realize this round.
func (c *CrashPoint) Rearm() { c.fired = false }

// TwoPCRound reports whether a 2PC round with this coordinator and
// write set qualifies for a 2PC-phase crash point: a participant other
// than the coordinator for before-prepare, the coordinator itself for
// before-commit and after-decision.
func TwoPCRound(cp faults.CrashPoint, coord int, writeParts []int) bool {
	switch cp.Phase {
	case faults.PhaseBeforePrepare:
		return cp.Node != coord && Contains(writeParts, cp.Node)
	case faults.PhaseBeforeCommit, faults.PhaseAfterDecision:
		return cp.Node == coord
	}
	return false
}

// CrashCode maps a crash-point phase to its EvCrash arg code.
func CrashCode(phase string) int64 {
	switch phase {
	case faults.PhaseBeforePrepare:
		return 1
	case faults.PhaseBeforeCommit:
		return 2
	case faults.PhaseAfterDecision:
		return 3
	case faults.PhasePrimaryMidShip:
		return 4
	case faults.PhaseBackupMidCatchup:
		return 5
	default:
		return 0
	}
}

// ArrivalRate returns rate, or when it is unset the default offered
// load: the whole trace spans 8 virtual seconds, so the builtin
// scenarios' crash windows land mid-run (1 txn/s for an empty trace).
func ArrivalRate(rate float64, traceLen int) float64 {
	if rate > 0 {
		return rate
	}
	if r := float64(traceLen) / 8; r > 0 {
		return r
	}
	return 1
}

// Driver replays a trace: transaction i arrives at virtual time i/Rate
// and is classified once; each attempt samples a latency spike and runs
// the engine's attempt function; aborts back off (capped exponential
// with jitter) until Retry's attempt budget is exhausted. The driver
// owns every per-transaction flight event except the engine's own
// (faults, prepares, crashes, WAL appends), the latency HDR, the SLO
// monitor and the scripted crash-point counters.
type Driver struct {
	Assigner *eval.Assigner
	Seed     int64
	Rate     float64            // arrivals per virtual second
	Retry    faults.RetryPolicy // with defaults applied
	Inj      *faults.Injector
	Rec      *obs.Recorder
	// SLO, when non-nil, configures the tumbling-window objective
	// evaluation (which publishes slo.* metrics); nil skips it.
	SLO *obs.SLOConfig
	// Done, when non-nil, sees every transaction's final outcome: its
	// attempt count, whether it committed, and its latency in virtual
	// seconds.
	Done func(t *trace.Txn, attempts int, committed bool, latency float64)

	points []CrashPoint
}

// Crash counts one qualifying round for every unfired crash point of
// the injector's scenario that qualifies accepts, and fires the first
// that reaches its sequence number (nil when none does).
func (d *Driver) Crash(qualifies func(cp faults.CrashPoint) bool) *CrashPoint {
	var fire *CrashPoint
	for i := range d.points {
		s := &d.points[i]
		if s.fired || !qualifies(s.CrashPoint) {
			continue
		}
		s.count++
		if fire == nil && s.count >= s.Seq {
			s.fired = true
			fire = s
		}
	}
	return fire
}

// Run replays tr. try runs one attempt and reports whether it committed
// and the node it executed on as coordinator.
func (d *Driver) Run(tr *trace.Trace, try func(at *Attempt) (committed bool, coord int, err error)) (*Tally, error) {
	d.points = d.points[:0]
	for _, cp := range d.Inj.Scenario().CrashPoints {
		d.points = append(d.points, CrashPoint{CrashPoint: cp})
	}
	rec := d.Rec
	var slo *obs.SLOMonitor // nil-safe: Record, Flush and Status no-op
	if d.SLO != nil {
		slo = obs.NewSLOMonitor(*d.SLO)
	}
	var lat obs.HDR // virtual nanoseconds
	res := &Tally{Offered: tr.Len()}
	done := func(t *trace.Txn, attempts int, committed bool, latency float64) {
		lat.Observe(int64(latency * 1e9))
		slo.Record(latency, committed)
		if d.Done != nil {
			d.Done(t, attempts, committed, latency)
		}
	}
	at := &Attempt{} // reused: try must not retain it
	for i, t := range tr.All() {
		arrival := float64(i) / d.Rate
		nodes, coord, distributed := Participants(d.Assigner, t, d.Inj.K(), i)
		*at = Attempt{Index: i, Txn: t, TraceID: obs.TxnID(d.Seed, i),
			Nodes: nodes, Coord: coord, Distributed: distributed, rec: rec}
		rec.Record(at.TraceID, obs.EvBegin, -1, 0, arrival, int64(len(nodes)))
		dist := int64(0)
		if distributed {
			dist = 1
		}
		rec.Record(at.TraceID, obs.EvRoute, coord, 0, arrival, int64(len(nodes))<<8|dist)

		now := arrival
		committed := false
		for n := 1; n <= d.Retry.MaxAttempts; n++ {
			now += d.Inj.SampleLatency()
			at.N, at.Now = n, now
			ok, execCoord, err := try(at)
			if err != nil {
				return nil, err
			}
			if ok {
				committed = true
				res.Committed++
				if distributed {
					res.Distributed++
				} else {
					res.Local++
				}
				res.MakespanSec = max(res.MakespanSec, now)
				latency := now - arrival
				done(t, n, true, latency)
				rec.Record(at.TraceID, obs.EvCommit, execCoord, n, now, int64(latency*1e9))
				break
			}
			res.Aborts++
			rec.Record(at.TraceID, obs.EvAbort, execCoord, n, now, 0)
			if n == d.Retry.MaxAttempts {
				break
			}
			res.Retries++
			backoff := d.Retry.Backoff(n, d.Inj)
			rec.Record(at.TraceID, obs.EvBackoff, -1, n, now, int64(backoff*1e9))
			now += backoff
		}
		if !committed {
			res.PermanentFailures++
			latency := now - arrival
			done(t, d.Retry.MaxAttempts, false, latency)
			rec.Record(at.TraceID, obs.EvGiveUp, -1, d.Retry.MaxAttempts, now, int64(latency*1e9))
			res.MakespanSec = max(res.MakespanSec, now)
		}
	}

	slo.Flush()
	res.SLO = slo.Status()
	snap := lat.Snapshot()
	res.LatencyP50 = float64(snap.P50) / 1e9
	res.LatencyP99 = float64(snap.P99) / 1e9
	res.LatencyP999 = float64(snap.P999) / 1e9
	if res.Offered > 0 {
		res.AvailabilityPct = 100 * float64(res.Committed) / float64(res.Offered)
	}
	return res, nil
}
