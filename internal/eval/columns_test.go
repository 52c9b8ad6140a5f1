package eval

import (
	"sync"
	"testing"

	"repro/internal/fixture"
	"repro/internal/schema"
	"repro/internal/trace"
)

// columnRequests are the (table, join path) pairs the column-cache tests
// request: three tables, and two different paths over TRADE.
func columnRequests() []struct {
	table string
	path  schema.JoinPath
} {
	return []struct {
		table string
		path  schema.JoinPath
	}{
		{"TRADE", fixture.TradePath()},
		{"TRADE", singleColPath("TRADE", "T_ID", "T_CA_ID")},
		{"HOLDING_SUMMARY", fixture.HSPath()},
		{"CUSTOMER_ACCOUNT", fixture.CAPath()},
	}
}

// TestColumnsMatchNavigation: every cached value equals a one-shot
// db.EvalPath navigation of the same key.
func TestColumnsMatchNavigation(t *testing.T) {
	d := fixture.CustInfoDB()
	c := trace.Columnarize(fixture.MixedTrace(d, 300, 5))
	cs := NewColumns(d, c)
	for _, r := range columnRequests() {
		col := cs.Column(r.table, r.path)
		tid, _ := c.TableID(r.table)
		for _, id := range cs.keys[tid] {
			_, key := c.KeyOf(id)
			want, wok, err := d.EvalPath(r.path, key)
			if err != nil {
				t.Fatal(err)
			}
			if got, ok := col.Value(id); ok != wok || got != want {
				t.Fatalf("%s %v key %d: column (%v, %v), navigation (%v, %v)", r.table, r.path, id, got, ok, want, wok)
			}
		}
	}
	if cs.Column("NO_SUCH_TABLE", fixture.CAPath()) != nil {
		t.Error("a table the trace never touches must have no column")
	}
}

// TestColumnsConcurrentFill is the race stress of the shared column
// cache, the access pattern of the phase-3 workers: 16 goroutines
// request the same and different (table, path) columns of one cache,
// starting on different columns. Each request must get the one shared
// column, holding exactly the values a private, sequentially filled
// cache holds. Run it with -race -count=10.
func TestColumnsConcurrentFill(t *testing.T) {
	d := fixture.CustInfoDB()
	c := trace.Columnarize(fixture.MixedTrace(d, 400, 11))
	reqs := columnRequests()
	ref := NewColumns(d, c)
	want := make([]*Column, len(reqs))
	for i, r := range reqs {
		want[i] = ref.Column(r.table, r.path)
	}

	const goroutines = 16
	shared := NewColumns(d, c)
	got := make([][]*Column, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = make([]*Column, len(reqs))
			for i := range reqs {
				j := (g + i) % len(reqs)
				got[g][j] = shared.Column(reqs[j].table, reqs[j].path)
			}
		}(g)
	}
	wg.Wait()
	for j, r := range reqs {
		tid, _ := c.TableID(r.table)
		for g := 0; g < goroutines; g++ {
			if got[g][j] != got[0][j] {
				t.Fatalf("%s %v: goroutines %d and 0 got different columns", r.table, r.path, g)
			}
		}
		for _, id := range shared.keys[tid] {
			gv, gok := got[0][j].Value(id)
			wv, wok := want[j].Value(id)
			if gv != wv || gok != wok {
				t.Fatalf("%s %v key %d: concurrent fill (%v, %v), sequential (%v, %v)", r.table, r.path, id, gv, gok, wv, wok)
			}
		}
	}
}

// BenchmarkIndexColumns measures the phase-3 steady state: composing a
// candidate's placement index from an already filled column cache.
func BenchmarkIndexColumns(b *testing.B) {
	d := fixture.CustInfoDB()
	c := trace.Columnarize(fixture.MixedTrace(d, 4000, 7))
	cs := NewColumns(d, c)
	a, err := NewAssigner(d, joinExtensionSolution(8))
	if err != nil {
		b.Fatal(err)
	}
	a.IndexColumns(cs) // fill the columns
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.IndexColumns(cs)
	}
}
