package core

import (
	"fmt"
	"sort"

	"repro/internal/db"
	"repro/internal/eval"
	"repro/internal/joingraph"
	"repro/internal/sqlparse"
	"repro/internal/trace"
)

// preprocessed is Phase 1's output: which accessed tables are replicated,
// the per-class trace streams, and the per-class code analyses.
type preprocessed struct {
	// Replicated marks read-only and read-mostly tables (plus tables the
	// schema declares but the workload never writes).
	Replicated map[string]bool
	// PartitionedTables are the accessed tables that must be partitioned,
	// sorted.
	PartitionedTables []string
	// Train is the value-column cache of the columnarized training trace,
	// shared by phases 2 and 3.
	Train *eval.Columns
	// Streams maps class name to its homogeneous training sub-trace.
	Streams map[string]stream
	// Mix is each class's share of the training workload.
	Mix map[string]float64
	// Analyses maps class name to its SQL analysis.
	Analyses map[string]*sqlparse.Analysis
}

// phase1 implements §4: collect statistics from the trace, replicate
// read-only and read-mostly tables, and split the trace per class.
func (p *Partitioner) phase1() (*preprocessed, error) {
	sc := p.in.DB.Schema()
	pre := &preprocessed{
		Replicated: map[string]bool{},
		Mix:        p.in.Train.Mix(),
		Analyses:   map[string]*sqlparse.Analysis{},
	}
	pre.Train, pre.Streams = classStreams(p.in.DB, p.in.Train)

	stats := p.in.Train.Stats()
	total := p.in.Train.Len()
	accessed := map[string]bool{}
	for tbl, st := range stats {
		accessed[tbl] = true
		if st.WriteTxnFraction(total) < p.opts.ReadMostlyThreshold {
			pre.Replicated[tbl] = true
		}
	}
	// Tables the schema declares but the trace never touches are
	// replicated by default: they cost nothing and constrain nothing.
	for _, t := range sc.Tables() {
		if !accessed[t.Name] {
			pre.Replicated[t.Name] = true
		}
	}
	for tbl := range accessed {
		if !pre.Replicated[tbl] {
			pre.PartitionedTables = append(pre.PartitionedTables, tbl)
		}
	}
	sort.Strings(pre.PartitionedTables)

	for _, proc := range p.in.Procedures {
		a, err := sqlparse.Analyze(proc, sc)
		if err != nil {
			return nil, fmt.Errorf("core: phase 1: %w", err)
		}
		pre.Analyses[proc.Name] = a
	}
	// Sanity: every class in the trace must have source code. (TPC-E
	// frames appear as separate classes, each with its own procedure.)
	for class := range pre.Streams {
		if _, ok := pre.Analyses[class]; !ok {
			return nil, fmt.Errorf("core: phase 1: trace class %q has no procedure", class)
		}
	}
	return pre, nil
}

// stream is one class's transactions within a columnarized trace: the
// whole trace's value-column cache and the class's transaction indices,
// in trace order.
type stream struct {
	cols *eval.Columns
	txns []int
}

// classStreams columnarizes a trace once and splits it into per-class
// streams over one shared column cache.
func classStreams(d *db.DB, tr *trace.Trace) (*eval.Columns, map[string]stream) {
	c := trace.Columnarize(tr)
	cs := eval.NewColumns(d, c)
	byID := make([][]int, c.NumClasses())
	for i := 0; i < c.NumTxns(); i++ {
		byID[c.ClassID(i)] = append(byID[c.ClassID(i)], i)
	}
	out := make(map[string]stream, len(byID))
	for id, txns := range byID {
		out[c.ClassName(uint32(id))] = stream{cols: cs, txns: txns}
	}
	return cs, out
}

// columns resolves a join tree's value columns, indexed by the trace's
// table ids. Entries are nil for tables the tree does not cover, the
// tables filter (when non-nil) excludes, or the trace never touches.
func (s stream) columns(tree *joingraph.Tree, tables map[string]bool) []*eval.Column {
	c := s.cols.Trace()
	out := make([]*eval.Column, c.NumTables())
	for tbl, path := range tree.Paths {
		if tables != nil && !tables[tbl] {
			continue
		}
		if tid, ok := c.TableID(tbl); ok {
			out[tid] = s.cols.Column(tbl, path)
		}
	}
	return out
}
