package eval

import (
	"sync"

	"repro/internal/db"
	"repro/internal/schema"
	"repro/internal/trace"
	"repro/internal/value"
)

// Columns is the value-column cache of one columnar trace: for a
// (table, join path) pair, the path's destination value for every
// distinct key of that table in the trace, navigated once by the
// compiled join-path kernel (db.Path) and then shared by every caller.
// JECB's search reads it twice over: phase 2's single-value and
// root-value scans compare cached values per access, and every
// candidate solution's PlaceIndex is composed by running the candidate's
// mapper over cached columns (Assigner.IndexColumns) — no navigation per
// candidate.
//
// A Columns is safe for concurrent use: the first request for a column
// fills it while concurrent requests for the same column wait, and
// requests for other columns proceed. The database must not be mutated
// while the cache is live (the partitioning pipeline never mutates it).
type Columns struct {
	d *db.DB
	c *trace.Columnar
	// keys lists, per table id, the table's key ids in ascending order;
	// local maps a key id to its position in that list.
	keys  [][]uint32
	local []uint32

	mu   sync.Mutex
	cols map[columnKey]*Column
}

type columnKey struct{ table, path string }

// Column is one (table, join path) value column: per table-local key, an
// index into vals (the distinct destination values, first-seen order) or
// -1 when the key's chain dangles.
type Column struct {
	once  sync.Once
	local []uint32
	ids   []int32
	vals  []value.Value
}

// NewColumns prepares an empty column cache over a columnar trace.
func NewColumns(d *db.DB, c *trace.Columnar) *Columns {
	cs := &Columns{
		d:     d,
		c:     c,
		keys:  make([][]uint32, c.NumTables()),
		local: make([]uint32, c.NumKeys()),
		cols:  make(map[columnKey]*Column),
	}
	for id := 0; id < c.NumKeys(); id++ {
		tid, _ := c.KeyOf(uint32(id))
		cs.local[id] = uint32(len(cs.keys[tid]))
		cs.keys[tid] = append(cs.keys[tid], uint32(id))
	}
	return cs
}

// Trace returns the columnar trace the cache covers.
func (cs *Columns) Trace() *trace.Columnar { return cs.c }

// Column returns the value column of table under join path p, filling it
// on first request. It is nil when no access of the trace touches the
// table. A path that does not compile against the database dangles for
// every key.
func (cs *Columns) Column(table string, p schema.JoinPath) *Column {
	tid, ok := cs.c.TableID(table)
	if !ok {
		return nil
	}
	k := columnKey{table, p.String()}
	cs.mu.Lock()
	col, ok := cs.cols[k]
	if !ok {
		col = &Column{local: cs.local}
		cs.cols[k] = col
	}
	cs.mu.Unlock()
	col.once.Do(func() { col.fill(cs.d, cs.c, cs.keys[tid], p) })
	return col
}

func (col *Column) fill(d *db.DB, c *trace.Columnar, keys []uint32, p schema.JoinPath) {
	col.ids = make([]int32, len(keys))
	cp, err := d.CompilePath(p)
	index := map[value.Value]int32{}
	var scratch []byte
	for i, id := range keys {
		col.ids[i] = -1
		if err != nil {
			continue
		}
		_, key := c.KeyOf(id)
		v, ok := cp.Eval(key, &scratch)
		if !ok {
			continue
		}
		vid, seen := index[v]
		if !seen {
			vid = int32(len(col.vals))
			index[v] = vid
			col.vals = append(col.vals, v)
		}
		col.ids[i] = vid
	}
}

// Value returns the destination value of a key id of the column's
// table; ok is false when the key's chain dangles.
func (col *Column) Value(keyID uint32) (value.Value, bool) {
	vid := col.ids[col.local[keyID]]
	if vid < 0 {
		return value.Value{}, false
	}
	return col.vals[vid], true
}
