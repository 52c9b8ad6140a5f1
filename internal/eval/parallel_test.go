package eval

import (
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"repro/internal/fixture"
	"repro/internal/obs"
	"repro/internal/trace"
)

// resultFingerprint renders the fields two evaluations must agree on
// bit for bit.
func resultFingerprint(t *testing.T, r *Result) string {
	t.Helper()
	type classJSON struct {
		Class       string `json:"class"`
		Total       int    `json:"total"`
		Distributed int    `json:"distributed"`
	}
	classes := make([]classJSON, 0)
	for _, c := range r.Classes() {
		classes = append(classes, classJSON{c.Class, c.Total, c.Distributed})
	}
	b, err := json.Marshal(struct {
		Solution    string      `json:"solution"`
		K           int         `json:"k"`
		Total       int         `json:"total"`
		Distributed int         `json:"distributed"`
		TouchSum    int         `json:"touch_sum"`
		Classes     []classJSON `json:"classes"`
	}{r.Solution, r.K, r.Total, r.Distributed, r.TouchSum, classes})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestAssignerSharedStress hammers one shared Assigner from 16 goroutines
// mixing PlaceKey, Distributed, and full Evaluate calls. Run under -race
// this is the concurrency-safety proof for the Assigner and its per-table
// PlaceKey memos.
func TestAssignerSharedStress(t *testing.T) {
	d := fixture.CustInfoDB()
	tr := fixture.MixedTrace(d, 400, 11)
	a, err := NewAssigner(d, joinExtensionSolution(4))
	if err != nil {
		t.Fatal(err)
	}
	want := resultFingerprint(t, a.Evaluate(tr))

	const goroutines = 16
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 20; iter++ {
				switch (g + iter) % 3 {
				case 0:
					got := resultFingerprint(t, a.Evaluate(tr))
					if got != want {
						errs <- fmt.Errorf("goroutine %d iter %d: result diverged", g, iter)
						return
					}
				case 1:
					for _, txn := range tr.All() {
						a.Distributed(txn)
					}
				default:
					for _, txn := range tr.All() {
						for _, acc := range txn.Accesses {
							a.PlaceKey(acc)
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestColumnsSharedAcrossAssigners verifies the phase-3 sharing contract:
// assigners over one column cache navigate each (table, join path) once,
// and placements stay correct when solutions differ only in mapper (same
// join paths).
func TestColumnsSharedAcrossAssigners(t *testing.T) {
	d := fixture.CustInfoDB()
	tr := fixture.MixedTrace(d, 200, 3)
	cs := NewColumns(d, trace.Columnarize(tr))
	evals := obs.Default.Counter("db.path_evals")
	for _, k := range []int{4, 8} {
		a, err := NewAssigner(d, joinExtensionSolution(k))
		if err != nil {
			t.Fatal(err)
		}
		before := evals.Value()
		got := resultFingerprint(t, a.IndexColumns(cs).Evaluate())
		if navigated := evals.Value() - before; k == 8 && navigated != 0 {
			t.Errorf("k=%d: same join paths navigated %d keys again", k, navigated)
		}
		if want := resultFingerprint(t, a.Evaluate(tr)); got != want {
			t.Errorf("k=%d: shared-cache result diverged\n got %s\nwant %s", k, got, want)
		}
	}
}

// TestEvaluatePackageLevelUnchanged pins the package-level Evaluate
// convenience wrapper to the Assigner path.
func TestEvaluatePackageLevelUnchanged(t *testing.T) {
	d := fixture.CustInfoDB()
	tr := fixture.MixedTrace(d, 100, 5)
	sol := joinExtensionSolution(4)
	r1, err := Evaluate(d, sol, tr)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAssigner(d, sol)
	if err != nil {
		t.Fatal(err)
	}
	r2 := a.Index(trace.Columnarize(tr)).Evaluate()
	if resultFingerprint(t, r1) != resultFingerprint(t, r2) {
		t.Fatal("package-level Evaluate diverged from the Assigner's index")
	}
}
