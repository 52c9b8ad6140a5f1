package commit

import (
	"encoding/binary"

	"repro/internal/db"
	"repro/internal/obs"
	"repro/internal/schema"
	"repro/internal/wal"
)

// Torn-record lengths of the scripted crash shapes: a participant dies
// 3 bytes into its PREPARE frame, a coordinator 5 bytes into its COMMIT
// decision. Recovery sees each as a torn tail.
const (
	tornPrepare = 3
	tornCommit  = 5
)

// Stamp is the flight-recorder context of the transaction currently
// driving a partition set: WAL-append and checkpoint events carry it. A
// nil Rec keeps recording off.
type Stamp struct {
	Rec     *obs.Recorder
	Trace   uint64
	Attempt int
	VT      float64
}

func (s *Stamp) record(kind obs.EventKind, node int, arg int64) {
	s.Rec.Record(s.Trace, kind, node, s.Attempt, s.VT, arg)
}

// Held is one prepared transaction a partition holds in doubt: its
// coordinator (named in the PREPARE record) and its staged writes.
type Held struct {
	Txn   uint64
	Coord int
	Ops   []db.Op
}

// CoordPayload encodes the PREPARE payload naming the coordinator
// partition (the id recovery and a standby read back).
func CoordPayload(coord int) []byte {
	return binary.AppendUvarint(nil, uint64(coord))
}

// Partition is one partition's durable state machine: a store, an
// optional write-ahead log, the checkpoint cadence, and the prepared
// transactions it holds in doubt. A nil log runs memory-only and skips
// all record encoding. While it holds any transaction the partition
// never checkpoints: a snapshot must not bury a pending PREPARE that
// resolution still needs to replay. It is not safe for concurrent use.
type Partition struct {
	id        int
	store     *db.DB
	log       *wal.Log
	ckptEvery int // 0 never checkpoints

	// stamp, when non-nil, stamps this partition's WAL-append and
	// checkpoint flight events.
	stamp *Stamp

	commitsSince int
	checkpoints  int
	held         []Held // in prepare order
	dead         bool
	closed       bool
}

// NewPartition creates partition id's state over a fresh log at path
// (empty path: memory-only). ckptEvery is the number of applied commits
// between CHECKPOINT records (0: never). A non-nil stamp with a recorder
// records one EvWALAppend per log append.
func NewPartition(id int, sc *schema.Schema, path string, ckptEvery int, stamp *Stamp) (*Partition, error) {
	p := &Partition{id: id, store: db.New(sc), ckptEvery: ckptEvery, stamp: stamp}
	if path == "" {
		return p, nil
	}
	l, err := wal.Create(path)
	if err != nil {
		return nil, err
	}
	p.log = l
	if stamp != nil && stamp.Rec != nil {
		l.SetObserver(func(typ wal.RecType, _ uint64, frameBytes int) {
			stamp.record(obs.EvWALAppend, id, int64(frameBytes)<<8|int64(typ))
		})
	}
	return p, nil
}

// Store returns the partition's in-memory store.
func (p *Partition) Store() *db.DB { return p.store }

// Dead reports whether Kill ran.
func (p *Partition) Dead() bool { return p.dead }

// Checkpoints returns the number of CHECKPOINT records written.
func (p *Partition) Checkpoints() int { return p.checkpoints }

// WALBytes returns the durable log length; 0 for a dead or memory-only
// partition.
func (p *Partition) WALBytes() int64 {
	if p.dead || p.log == nil {
		return 0
	}
	return p.log.Bytes()
}

// InDoubt reports whether the partition holds a prepared, undecided
// transaction.
func (p *Partition) InDoubt() bool { return len(p.held) > 0 }

// Holds reports whether txn is held in doubt.
func (p *Partition) Holds(txn uint64) bool { return p.find(txn) >= 0 }

// Held returns the transactions held in doubt, in prepare order. The
// slice is the partition's own: callers must not modify it.
func (p *Partition) Held() []Held { return p.held }

func (p *Partition) find(txn uint64) int {
	for i := range p.held {
		if p.held[i].Txn == txn {
			return i
		}
	}
	return -1
}

func (p *Partition) append(typ wal.RecType, txn uint64, payload []byte) error {
	if p.log == nil {
		return nil
	}
	return p.log.Append(typ, txn, payload)
}

// Appender is a record sink: a write-ahead log, or a replication chain
// that logs and ships its records.
type Appender interface {
	Append(typ wal.RecType, txn uint64, payload []byte) error
}

// Stage appends one transaction's BEGIN and WRITE records to w.
func Stage(w Appender, txn uint64, ops []db.Op) error {
	if err := w.Append(wal.RecBegin, txn, nil); err != nil {
		return err
	}
	for _, op := range ops {
		if err := w.Append(wal.RecWrite, txn, op.Encode(nil)); err != nil {
			return err
		}
	}
	return nil
}

// stage appends one transaction's BEGIN and WRITE records.
func (p *Partition) stage(txn uint64, ops []db.Op) error {
	if p.log == nil {
		return nil
	}
	return Stage(p.log, txn, ops)
}

// prepare stages txn and logs its PREPARE record without holding it: the
// in-process cluster decides in the same step.
func (p *Partition) prepare(txn uint64, coord int, ops []db.Op) error {
	if p.log == nil {
		return nil
	}
	if err := p.stage(txn, ops); err != nil {
		return err
	}
	return p.append(wal.RecPrepare, txn, CoordPayload(coord))
}

// apply commits ops on the store atomically and advances the checkpoint
// cadence.
func (p *Partition) apply(ops []db.Op) error {
	tx := p.store.Begin()
	for _, op := range ops {
		if err := tx.StageOp(op); err != nil {
			tx.Abort()
			return err
		}
	}
	if err := tx.Commit(); err != nil {
		return err
	}
	p.commitsSince++
	return p.maybeCheckpoint()
}

// maybeCheckpoint snapshots the store when the cadence is due, never
// while a transaction is held in doubt.
func (p *Partition) maybeCheckpoint() error {
	if p.ckptEvery <= 0 || p.commitsSince < p.ckptEvery || len(p.held) > 0 || p.dead || p.log == nil {
		return nil
	}
	if err := wal.WriteCheckpoint(p.log, p.store); err != nil {
		return err
	}
	if p.stamp != nil {
		p.stamp.record(obs.EvCheckpoint, p.id, int64(p.ckptEvery))
	}
	p.commitsSince = 0
	p.checkpoints++
	return nil
}

// release drops txn's hold.
func (p *Partition) release(txn uint64) {
	if i := p.find(txn); i >= 0 {
		p.held = append(p.held[:i], p.held[i+1:]...)
	}
}

// CommitLocal runs the single-partition commit: BEGIN, WRITEs, COMMIT on
// the log, then the store apply.
func (p *Partition) CommitLocal(txn uint64, ops []db.Op) error {
	if err := p.stage(txn, ops); err != nil {
		return err
	}
	if err := p.append(wal.RecCommit, txn, nil); err != nil {
		return err
	}
	return p.apply(ops)
}

// Prepare stages txn, logs PREPARE naming coord, and holds the
// transaction in doubt until Commit or Abort.
func (p *Partition) Prepare(txn uint64, coord int, ops []db.Op) error {
	if err := p.prepare(txn, coord, ops); err != nil {
		return err
	}
	p.held = append(p.held, Held{Txn: txn, Coord: coord, Ops: ops})
	return nil
}

// PrepareTorn stages txn and dies mid-append of its PREPARE record: the
// log ends in a torn PREPARE frame. The caller kills the partition next.
func (p *Partition) PrepareTorn(txn uint64, coord int, ops []db.Op) error {
	if err := p.stage(txn, ops); err != nil {
		return err
	}
	return p.log.AppendTorn(wal.RecPrepare, txn, CoordPayload(coord), tornPrepare)
}

// Commit logs the COMMIT decision for txn and applies its held writes,
// if any. The apply runs before the hold is released, so it never
// lands a checkpoint. A partition that holds nothing for txn (a
// coordinator without writes of its own) only logs the decision.
func (p *Partition) Commit(txn uint64) error {
	if err := p.append(wal.RecCommit, txn, nil); err != nil {
		return err
	}
	i := p.find(txn)
	if i < 0 {
		return nil
	}
	if err := p.apply(p.held[i].Ops); err != nil {
		return err
	}
	p.release(txn)
	return nil
}

// CommitTorn dies mid-append of the COMMIT decision for txn: recovery
// finds no decision, so the transaction is presumed aborted. The caller
// kills the partition next.
func (p *Partition) CommitTorn(txn uint64) error {
	return p.log.AppendTorn(wal.RecCommit, txn, nil, tornCommit)
}

// Abort logs the ABORT decision for txn and drops its held writes.
func (p *Partition) Abort(txn uint64) error {
	if err := p.append(wal.RecAbort, txn, nil); err != nil {
		return err
	}
	p.release(txn)
	return nil
}

// Kill realizes a crash: the log closes as-is (torn tail included) and
// nothing is appended to it again; the in-memory store and holds are
// lost — recovery rebuilds them from the log.
func (p *Partition) Kill() {
	if p.dead {
		return
	}
	p.dead = true
	p.held = nil
	p.Close()
}

// Close closes the log as-is (the end-of-run full-cluster crash). It is
// idempotent.
func (p *Partition) Close() {
	if p.closed || p.log == nil {
		return
	}
	p.closed = true
	p.log.Close()
}
