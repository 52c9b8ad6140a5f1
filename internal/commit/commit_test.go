package commit

import (
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"reflect"
	"testing"

	"repro/internal/db"
	"repro/internal/faults"
	"repro/internal/fixture"
	"repro/internal/value"
	"repro/internal/wal"
)

func touch(id int64) db.Op {
	return db.Op{Kind: db.OpTouch, Table: "TRADE", Key: value.MakeKey(value.NewInt(id))}
}

// The WRITE payloads of touch(1) and touch(2), pinned as bytes.
const (
	write1 = "0405545241444509010000000000000001"
	write2 = "0405545241444509010000000000000002"
)

// logShape renders partition p's log as TYPE:txn:payload-hex records
// plus the byte length of a torn tail (0 when the log ends cleanly).
func logShape(t *testing.T, dir string, p int) ([]string, int64) {
	t.Helper()
	path := wal.PartitionLogPath(dir, p)
	recs, clean, err := wal.ParseFile(path)
	if err != nil && !errors.Is(err, wal.ErrTornTail) {
		t.Fatalf("partition %d: %v", p, err)
	}
	st, serr := os.Stat(path)
	if serr != nil {
		t.Fatal(serr)
	}
	out := []string{}
	for _, r := range recs {
		out = append(out, fmt.Sprintf("%s:%d:%s", r.Type, r.Txn, hex.EncodeToString(r.Payload)))
	}
	return out, st.Size() - clean
}

// TestClusterRecordSequences pins the exact WAL shape of every
// in-process commit path: record types, txn ids, payload bytes, and the
// torn-tail lengths of the crash shapes.
func TestClusterRecordSequences(t *testing.T) {
	opsAt := map[int][]db.Op{0: {touch(1)}, 1: {touch(2)}}
	parts := []int{0, 1}
	type shape struct {
		recs [3][]string
		torn [3]int64
	}
	w1, w2 := "WRITE:7:"+write1, "WRITE:7:"+write2
	for _, tc := range []struct {
		name    string
		run     func(cl *Cluster) error
		want    shape
		dead    []int
		inDoubt []int
	}{
		{
			name: "local",
			run: func(cl *Cluster) error {
				return cl.Commit(7, 0, []int{0}, map[int][]db.Op{0: {touch(1)}}, false)
			},
			want: shape{recs: [3][]string{{"BEGIN:7:", w1, "COMMIT:7:"}, {}, {}}},
		},
		{
			name: "2pc-commit",
			run:  func(cl *Cluster) error { return cl.Commit(7, 0, parts, opsAt, true) },
			want: shape{recs: [3][]string{
				{"BEGIN:7:", w1, "PREPARE:7:00", "COMMIT:7:"},
				{"BEGIN:7:", w2, "PREPARE:7:00", "COMMIT:7:"},
				{},
			}},
		},
		{
			// The coordinator logs the decision even when it stages no
			// writes of its own.
			name: "2pc-commit-remote-coordinator",
			run:  func(cl *Cluster) error { return cl.Commit(7, 2, parts, opsAt, true) },
			want: shape{recs: [3][]string{
				{"BEGIN:7:", w1, "PREPARE:7:02", "COMMIT:7:"},
				{"BEGIN:7:", w2, "PREPARE:7:02", "COMMIT:7:"},
				{"COMMIT:7:"},
			}},
		},
		{
			name: "2pc-abort",
			run:  func(cl *Cluster) error { return cl.Abort(7, 0, parts, opsAt) },
			want: shape{recs: [3][]string{
				{"BEGIN:7:", w1, "PREPARE:7:00", "ABORT:7:"},
				{"BEGIN:7:", w2, "PREPARE:7:00", "ABORT:7:"},
				{},
			}},
		},
		{
			name: "crash-before-prepare",
			run: func(cl *Cluster) error {
				return cl.Crash(faults.PhaseBeforePrepare, 1, 7, 0, parts, opsAt)
			},
			want: shape{
				recs: [3][]string{{"BEGIN:7:", w1, "PREPARE:7:00", "ABORT:7:"}, {"BEGIN:7:", w2}, {}},
				torn: [3]int64{0, 3, 0},
			},
			dead: []int{1},
		},
		{
			name: "crash-before-commit",
			run: func(cl *Cluster) error {
				return cl.Crash(faults.PhaseBeforeCommit, 0, 7, 0, parts, opsAt)
			},
			want: shape{
				recs: [3][]string{{"BEGIN:7:", w1, "PREPARE:7:00"}, {"BEGIN:7:", w2, "PREPARE:7:00"}, {}},
				torn: [3]int64{5, 0, 0},
			},
			dead:    []int{0},
			inDoubt: []int{1},
		},
		{
			name: "crash-after-decision",
			run: func(cl *Cluster) error {
				return cl.Crash(faults.PhaseAfterDecision, 0, 7, 0, parts, opsAt)
			},
			want: shape{recs: [3][]string{
				{"BEGIN:7:", w1, "PREPARE:7:00", "COMMIT:7:"},
				{"BEGIN:7:", w2, "PREPARE:7:00"},
				{},
			}},
			dead:    []int{0},
			inDoubt: []int{1},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			cl, err := NewCluster(fixture.CustInfoSchema(), 3, dir, 64, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := tc.run(cl); err != nil {
				t.Fatal(err)
			}
			var dead, inDoubt []int
			for p, part := range cl.Parts {
				if part.Dead() {
					dead = append(dead, p)
				}
				if part.InDoubt() {
					inDoubt = append(inDoubt, p)
				}
			}
			cl.Close()
			var got shape
			for p := range got.recs {
				got.recs[p], got.torn[p] = logShape(t, dir, p)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("log shape\n got %v\nwant %v", got, tc.want)
			}
			if !reflect.DeepEqual(dead, tc.dead) || !reflect.DeepEqual(inDoubt, tc.inDoubt) {
				t.Errorf("dead %v in doubt %v, want %v / %v", dead, inDoubt, tc.dead, tc.inDoubt)
			}
		})
	}
}

// TestCheckpointCadence pins where CHECKPOINT records land: the
// in-process 2PC decides in the same step and may checkpoint on its
// apply, while a held prepare's Commit applies before releasing the hold
// and so never checkpoints — the next commit does.
func TestCheckpointCadence(t *testing.T) {
	sc := fixture.CustInfoSchema()
	ops := map[int][]db.Op{0: {touch(1)}, 1: {touch(2)}}

	dir := t.TempDir()
	cl, err := NewCluster(sc, 2, dir, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Commit(1, 0, []int{0, 1}, ops, true); err != nil {
		t.Fatal(err)
	}
	if got := cl.Checkpoints(); got != 2 {
		t.Errorf("in-process 2PC: %d checkpoints, want 2", got)
	}
	cl.Close()

	p, err := NewPartition(0, sc, wal.PartitionLogPath(t.TempDir(), 0), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.Prepare(1, 1, ops[0]); err != nil {
		t.Fatal(err)
	}
	if !p.InDoubt() || !p.Holds(1) {
		t.Fatal("prepared transaction not held")
	}
	if err := p.Commit(1); err != nil {
		t.Fatal(err)
	}
	if p.InDoubt() || p.Checkpoints() != 0 {
		t.Fatalf("held commit: in doubt %v, %d checkpoints; want released, 0", p.InDoubt(), p.Checkpoints())
	}
	if err := p.CommitLocal(2, ops[0]); err != nil {
		t.Fatal(err)
	}
	if p.Checkpoints() != 1 {
		t.Fatalf("next commit: %d checkpoints, want 1", p.Checkpoints())
	}
	if err := p.Prepare(3, 1, ops[0]); err != nil {
		t.Fatal(err)
	}
	if err := p.Abort(3); err != nil {
		t.Fatal(err)
	}
	if p.InDoubt() {
		t.Fatal("abort must release the hold")
	}
}

// TestMemoryOnlyCluster: an empty directory runs without logs, and the
// stores still apply every commit.
func TestMemoryOnlyCluster(t *testing.T) {
	sc := fixture.CustInfoSchema()
	cl, err := NewCluster(sc, 2, "", 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	ops := map[int][]db.Op{0: {touch(1)}, 1: {touch(2)}}
	if err := cl.Commit(cl.NextTxn(), 0, []int{0, 1}, ops, true); err != nil {
		t.Fatal(err)
	}
	if cl.WALBytes() != 0 || cl.Checkpoints() != 0 {
		t.Fatalf("memory-only cluster wrote %d WAL bytes, %d checkpoints", cl.WALBytes(), cl.Checkpoints())
	}
	empty := db.New(sc).TableDigests()["TRADE"]
	for p, part := range cl.Parts {
		if part.Store().TableDigests()["TRADE"] == empty {
			t.Errorf("partition %d: write not applied", p)
		}
	}
}
