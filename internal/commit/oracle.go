package commit

import (
	"fmt"
	"sort"

	"repro/internal/db"
	"repro/internal/obs"
	"repro/internal/schema"
	"repro/internal/wal"
)

// Journal is the committed-set journal: one flattened entry per
// committed transaction, in commit order.
type Journal [][]PartOp

// Add appends one committed transaction's write effects.
func (j *Journal) Add(parts []int, opsAt map[int][]db.Op) {
	*j = append(*j, Flatten(parts, opsAt))
}

// Replay re-executes the journal on k fault-free stores: the state a
// crash-free cluster would hold after exactly the committed set.
func (j Journal) Replay(sc *schema.Schema, k int) ([]*db.DB, error) {
	stores := make([]*db.DB, k)
	for p := range stores {
		stores[p] = db.New(sc)
	}
	for _, ops := range j {
		for _, po := range ops {
			if err := stores[po.Part].Apply(po.Op); err != nil {
				return nil, fmt.Errorf("commit: oracle replay: %w", err)
			}
		}
	}
	return stores, nil
}

// Recovered is the outcome of the end-of-run crash recovery and
// consistency oracle over a directory of partition logs.
type Recovered struct {
	TornTails        int
	InDoubtCommitted int
	InDoubtAborted   int
	RecoveredCommits int
	// TableDigests is the recovered cluster state, one hex digest per
	// table; OracleOK reports whether it is byte-identical to Replay of
	// the journal.
	TableDigests map[string]string
	OracleOK     bool
}

// Recover simulates the restart after a full-cluster crash: every
// partition log in dir is replayed and in-doubt transactions resolve by
// the presumed-abort rule (wal.RecoverDir). One EvRecover event per
// partition, in partition order, is stamped at virtual time vt. The
// recovered per-table digests are then compared with a fault-free
// re-execution of the journal.
func (j Journal) Recover(sc *schema.Schema, dir string, k int, rec *obs.Recorder, vt float64) (*Recovered, error) {
	cr, err := wal.RecoverDir(sc, dir)
	if err != nil {
		return nil, err
	}
	out := &Recovered{
		TornTails:        cr.TornTails,
		InDoubtCommitted: cr.InDoubtCommitted,
		InDoubtAborted:   cr.InDoubtAborted,
	}
	partIDs := make([]int, 0, len(cr.Parts))
	for p := range cr.Parts {
		partIDs = append(partIDs, p)
	}
	sort.Ints(partIDs)
	for _, p := range partIDs {
		out.RecoveredCommits += len(cr.Parts[p].Committed)
		// Run-level recovery events (txn 0) keep dumps deterministic.
		rec.Record(0, obs.EvRecover, p, 0, vt, int64(len(cr.Parts[p].Committed)))
	}
	stores, err := j.Replay(sc, k)
	if err != nil {
		return nil, err
	}
	out.TableDigests, out.OracleOK = Compare(wal.CombineDigests(stores), cr.TableDigests())
	return out, nil
}

// Compare renders the observed per-table digests as hex and reports
// whether they match the expected ones exactly.
func Compare(want, got map[string]uint64) (map[string]string, bool) {
	ok := len(want) == len(got)
	hex := make(map[string]string, len(got))
	for name, dg := range got {
		hex[name] = fmt.Sprintf("%016x", dg)
		if want[name] != dg {
			ok = false
		}
	}
	return hex, ok
}
