package commit

import (
	"repro/internal/db"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/schema"
	"repro/internal/wal"
)

// Cluster is the in-process partition set a replay commits into: one
// Partition per node, sharing one flight-recorder Stamp. A
// single-partition transaction takes BEGIN/WRITE*/COMMIT on one log; a
// distributed one runs a full logged 2PC (prepare on every write
// participant, the coordinator's decision, participant decisions,
// applies). The caller chooses the coordinator and whether a
// transaction is distributed.
type Cluster struct {
	Parts []*Partition
	// Stamp names the transaction currently driving the cluster; callers
	// set it before each commit so WAL, prepare and checkpoint events
	// carry it.
	Stamp Stamp
	txn   uint64
}

// NewCluster creates k partitions over fresh logs in dir (any prior
// run's partition logs are removed first). An empty dir runs every
// partition memory-only.
func NewCluster(sc *schema.Schema, k int, dir string, ckptEvery int, rec *obs.Recorder) (*Cluster, error) {
	if dir != "" {
		if err := wal.RemoveLogs(dir); err != nil {
			return nil, err
		}
	}
	c := &Cluster{Parts: make([]*Partition, k), Stamp: Stamp{Rec: rec}}
	for p := range c.Parts {
		path := ""
		if dir != "" {
			path = wal.PartitionLogPath(dir, p)
		}
		part, err := NewPartition(p, sc, path, ckptEvery, &c.Stamp)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.Parts[p] = part
	}
	return c, nil
}

// NextTxn returns a fresh, monotonically increasing WAL transaction id.
func (c *Cluster) NextTxn() uint64 {
	c.txn++
	return c.txn
}

// Close closes every log as-is: the end-of-run full-cluster crash.
func (c *Cluster) Close() {
	for _, p := range c.Parts {
		if p != nil {
			p.Close()
		}
	}
}

// WALBytes totals the durable log length across live partitions.
func (c *Cluster) WALBytes() int64 {
	var n int64
	for _, p := range c.Parts {
		n += p.WALBytes()
	}
	return n
}

// Checkpoints totals the CHECKPOINT records written.
func (c *Cluster) Checkpoints() int {
	n := 0
	for _, p := range c.Parts {
		n += p.Checkpoints()
	}
	return n
}

// prepareAll runs the first 2PC phase on every write participant except
// skip (skip < 0 prepares everyone).
func (c *Cluster) prepareAll(txn uint64, coord int, parts []int, opsAt map[int][]db.Op, skip int) error {
	for _, p := range parts {
		if p == skip {
			continue
		}
		if err := c.Parts[p].prepare(txn, coord, opsAt[p]); err != nil {
			return err
		}
		c.Stamp.record(obs.EvPrepare, p, 0)
	}
	return nil
}

// decideAll logs decision typ on every live write participant other
// than the coordinator and skip.
func (c *Cluster) decideAll(typ wal.RecType, txn uint64, coord int, parts []int, skip int) error {
	for _, p := range parts {
		if p == coord || p == skip || c.Parts[p].dead {
			continue
		}
		if err := c.Parts[p].append(typ, txn, nil); err != nil {
			return err
		}
	}
	return nil
}

// holdAll leaves every write participant other than the (dead)
// coordinator holding txn in doubt.
func (c *Cluster) holdAll(txn uint64, coord int, parts []int, opsAt map[int][]db.Op) {
	for _, p := range parts {
		if p != coord {
			c.Parts[p].held = append(c.Parts[p].held, Held{Txn: txn, Coord: coord, Ops: opsAt[p]})
		}
	}
}

// Commit commits one transaction's write effects: a local commit on
// parts[0] unless distributed, else the full 2PC — every write
// participant prepares, the coordinator durably logs the decision (even
// when it stages no writes), then each participant commits and applies.
func (c *Cluster) Commit(txn uint64, coord int, parts []int, opsAt map[int][]db.Op, distributed bool) error {
	if !distributed {
		return c.Parts[parts[0]].CommitLocal(txn, opsAt[parts[0]])
	}
	if err := c.prepareAll(txn, coord, parts, opsAt, -1); err != nil {
		return err
	}
	if err := c.Parts[coord].append(wal.RecCommit, txn, nil); err != nil {
		return err
	}
	for _, p := range parts {
		if p != coord {
			if err := c.Parts[p].append(wal.RecCommit, txn, nil); err != nil {
				return err
			}
		}
		if err := c.Parts[p].apply(opsAt[p]); err != nil {
			return err
		}
	}
	return nil
}

// Abort runs a 2PC round that reaches prepare and then aborts (a lost
// coordination message): participants prepare, the coordinator logs the
// ABORT decision, participants abort. Stores are untouched.
func (c *Cluster) Abort(txn uint64, coord int, parts []int, opsAt map[int][]db.Op) error {
	if err := c.prepareAll(txn, coord, parts, opsAt, -1); err != nil {
		return err
	}
	if err := c.Parts[coord].append(wal.RecAbort, txn, nil); err != nil {
		return err
	}
	return c.decideAll(wal.RecAbort, txn, coord, parts, -1)
}

// Crash runs a 2PC round that a scripted crash point cuts short:
//
//   - before-prepare: participant node dies mid-append of its PREPARE
//     (torn tail); the surviving coordinator and participants log ABORT.
//   - before-commit: every participant prepares, then the coordinator
//     dies mid-append of its COMMIT decision; survivors stay in doubt
//     and recovery presumes abort.
//   - after-decision: the coordinator's COMMIT is durable but it dies
//     before any participant hears it; survivors stay in doubt and
//     recovery replays the transaction as committed.
func (c *Cluster) Crash(phase string, node int, txn uint64, coord int, parts []int, opsAt map[int][]db.Op) error {
	switch phase {
	case faults.PhaseBeforePrepare:
		if err := c.prepareAll(txn, coord, parts, opsAt, node); err != nil {
			return err
		}
		if err := c.Parts[node].PrepareTorn(txn, coord, opsAt[node]); err != nil {
			return err
		}
		c.Parts[node].Kill()
		if !c.Parts[coord].dead {
			if err := c.Parts[coord].append(wal.RecAbort, txn, nil); err != nil {
				return err
			}
		}
		return c.decideAll(wal.RecAbort, txn, coord, parts, node)
	case faults.PhaseBeforeCommit, faults.PhaseAfterDecision:
		if err := c.prepareAll(txn, coord, parts, opsAt, -1); err != nil {
			return err
		}
		var err error
		if phase == faults.PhaseBeforeCommit {
			err = c.Parts[coord].CommitTorn(txn)
		} else {
			err = c.Parts[coord].append(wal.RecCommit, txn, nil)
		}
		if err != nil {
			return err
		}
		c.Parts[coord].Kill()
		c.holdAll(txn, coord, parts, opsAt)
	}
	return nil
}
