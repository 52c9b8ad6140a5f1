package db

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/obs"
	"repro/internal/schema"
	"repro/internal/value"
)

// Path-evaluation metrics, cached in package vars: Path.Eval runs once
// per distinct tuple of every (table, join path) value column and once
// per PathEval memo miss.
var (
	cPathEvals      = obs.Default.Counter("db.path_evals")
	cPathCacheHits  = obs.Default.Counter("db.path_cache_hits")
	cPathCacheMiss  = obs.Default.Counter("db.path_cache_misses")
	cPathEvalsBuilt = obs.Default.Counter("db.path_evaluators_built")
)

// Path is a join path compiled against one database: the source table,
// every within-table hop's table, and the column indices of every
// projected attribute set are resolved once, so navigating a tuple costs
// one primary-key probe per within-table hop — no name resolution, no
// intermediate value slices, and the probe key is encoded into a
// caller-owned buffer. A Path is immutable and safe for concurrent use;
// it reads rows live, so a row mutated after compilation is seen as
// mutated.
type Path struct {
	src   *Table
	first []int // columns of X_0 in the source row
	hops  []pathHop
}

// pathHop is one within-table hop: find the row of t whose primary key
// is the current projection, then project next. t is nil when the
// projection is the source row's own primary key in key order — the
// probe would find the source row again, so the hop only projects.
// Key–foreign-key hops need no step: the FK values are the referenced
// primary-key values.
type pathHop struct {
	t    *Table
	next []int
}

// CompilePath resolves a join path against the database's tables. It
// fails on an empty path, an unknown table or column, or a path that
// does not end in a single attribute.
func (d *DB) CompilePath(p schema.JoinPath) (*Path, error) {
	if p.Len() == 0 {
		return nil, fmt.Errorf("db: empty join path")
	}
	src := d.Table(p.SourceTable())
	if src == nil {
		return nil, fmt.Errorf("db: join path source table %q unknown", p.SourceTable())
	}
	first, err := columnIndices(src, p.Nodes[0])
	if err != nil {
		return nil, err
	}
	cp := &Path{src: src, first: first}
	width := len(first)
	for i := 0; i+1 < p.Len(); i++ {
		cur, next := p.Nodes[i], p.Nodes[i+1]
		if cur.Table != next.Table {
			continue
		}
		t := d.Table(cur.Table)
		if t == nil {
			return nil, fmt.Errorf("db: join path table %q unknown", cur.Table)
		}
		cols, err := columnIndices(t, next)
		if err != nil {
			return nil, err
		}
		if i == 0 && t == src && slices.Equal(first, src.meta.PKIndexes()) {
			t = nil
		}
		cp.hops = append(cp.hops, pathHop{t: t, next: cols})
		width = len(cols)
	}
	if width != 1 {
		return nil, fmt.Errorf("db: join path %v did not end in a single attribute", p)
	}
	cPathEvalsBuilt.Inc()
	return cp, nil
}

func columnIndices(t *Table, cs schema.ColumnSet) ([]int, error) {
	out := make([]int, len(cs.Columns))
	for i, c := range cs.Columns {
		if out[i] = t.meta.ColumnIndex(c); out[i] < 0 {
			return nil, fmt.Errorf("db: %s: unknown column %s in join path", cs.Table, c)
		}
	}
	return out, nil
}

// Eval follows the path from the source tuple whose primary key is
// srcKey and returns the destination attribute's value. ok is false when
// the chain dangles: the source row is missing, a hop hits a NULL key or
// a referenced row that does not exist, or the destination is NULL.
// Deleted rows stay resolvable (Table.GetAny). scratch is the probe-key
// buffer, reused across calls by one goroutine.
func (cp *Path) Eval(srcKey value.Key, scratch *[]byte) (value.Value, bool) {
	cPathEvals.Inc()
	row, ok := cp.src.GetAny(srcKey)
	if !ok {
		return value.Value{}, false
	}
	cols := cp.first
	for _, h := range cp.hops {
		for _, ci := range cols {
			if row[ci].IsNull() {
				return value.Value{}, false
			}
		}
		if h.t != nil {
			buf := (*scratch)[:0]
			for _, ci := range cols {
				buf = row[ci].Encode(buf)
			}
			*scratch = buf
			if row, ok = h.t.getAnyBytes(buf); !ok {
				return value.Value{}, false
			}
		}
		cols = h.next
	}
	if v := row[cols[0]]; !v.IsNull() {
		return v, true
	}
	return value.Value{}, false
}

// EvalPath follows a join path from the tuple of the source table whose
// primary key is srcKey (a one-shot CompilePath + Eval).
func (d *DB) EvalPath(p schema.JoinPath, srcKey value.Key) (value.Value, bool, error) {
	cp, err := d.CompilePath(p)
	if err != nil {
		return value.Value{}, false, err
	}
	var scratch []byte
	v, ok := cp.Eval(srcKey, &scratch)
	return v, ok, nil
}

// PathEval evaluates one join path repeatedly with memoization by source
// key. It is safe for concurrent use: hits take a read lock, a miss
// navigates under the write lock (once per key). The assigner's PlaceKey
// keeps one per partitioned table, so per-access placement during commit
// replays walks each tuple's chain once.
type PathEval struct {
	path schema.JoinPath
	cp   *Path // nil when the path does not compile: every key dangles

	mu      sync.RWMutex
	scratch []byte
	// cache maps source primary key -> (value, ok). A cached !ok records a
	// dangling chain so it is not re-walked.
	cache map[value.Key]cachedVal
}

type cachedVal struct {
	v  value.Value
	ok bool
}

// NewPathEval builds a memoizing evaluator for one path. The path should
// already be validated against the database's schema; structural errors
// make every evaluation dangle.
func NewPathEval(d *DB, p schema.JoinPath) *PathEval {
	cp, _ := d.CompilePath(p)
	return &PathEval{path: p, cp: cp, cache: make(map[value.Key]cachedVal)}
}

// Path returns the evaluated join path.
func (e *PathEval) Path() schema.JoinPath { return e.path }

// Eval maps a source-table primary key to the destination attribute value.
func (e *PathEval) Eval(srcKey value.Key) (value.Value, bool) {
	e.mu.RLock()
	c, hit := e.cache[srcKey]
	e.mu.RUnlock()
	if hit {
		cPathCacheHits.Inc()
		return c.v, c.ok
	}
	cPathCacheMiss.Inc()
	e.mu.Lock()
	defer e.mu.Unlock()
	if c, hit = e.cache[srcKey]; !hit {
		if e.cp != nil {
			c.v, c.ok = e.cp.Eval(srcKey, &e.scratch)
		}
		e.cache[srcKey] = c
	}
	return c.v, c.ok
}
