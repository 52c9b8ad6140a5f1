// Package eval implements the partitioning evaluator of the paper's
// evaluation framework (Figure 4): it applies a partitioning solution to a
// testing trace and computes the cost — the percentage of distributed
// transactions (Definitions 5 and 6) — overall and per transaction class,
// plus partitions-touched statistics and resource accounting for the
// scalability experiments (Tables 1–2).
package eval

import (
	"fmt"
	"sort"

	"repro/internal/db"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/trace"
)

// Registry metrics (see DESIGN.md, "Metric reference").
var (
	cEvaluations = obs.Default.Counter("eval.evaluations")
	cTxnsScored  = obs.Default.Counter("eval.txns_scored")
	cTxnsDist    = obs.Default.Counter("eval.txns_distributed")
	cAssigners   = obs.Default.Counter("eval.assigners_built")
)

// ClassResult aggregates cost for one transaction class.
type ClassResult struct {
	Class       string
	Total       int
	Distributed int
}

// Cost is the fraction of the class's transactions that are distributed.
func (c *ClassResult) Cost() float64 {
	if c.Total == 0 {
		return 0
	}
	return float64(c.Distributed) / float64(c.Total)
}

// Result is the outcome of evaluating one solution on one trace.
type Result struct {
	Solution    string
	K           int
	Total       int
	Distributed int
	// TouchSum accumulates, over distributed transactions, the number of
	// partitions each touched (Horticulture's cost model weighs this).
	TouchSum int
	ByClass  map[string]*ClassResult
}

// Cost is Definition 6: the fraction of distributed transactions.
func (r *Result) Cost() float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.Distributed) / float64(r.Total)
}

// AvgTouched is the mean number of partitions touched by distributed
// transactions (1.0 when none are distributed).
func (r *Result) AvgTouched() float64 {
	if r.Distributed == 0 {
		return 1
	}
	return float64(r.TouchSum) / float64(r.Distributed)
}

// Classes returns per-class results sorted by class name.
func (r *Result) Classes() []*ClassResult {
	out := make([]*ClassResult, 0, len(r.ByClass))
	for _, c := range r.ByClass {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Class < out[j].Class })
	return out
}

// String renders a one-line summary.
func (r *Result) String() string {
	return fmt.Sprintf("%s (k=%d): %.1f%% distributed (%d/%d)",
		r.Solution, r.K, 100*r.Cost(), r.Distributed, r.Total)
}

// tableBinding is the prepared placement machinery of one table of the
// solution: its join path's memoizing evaluator (nil for a replicated
// table) and its mapper.
type tableBinding struct {
	ev     *db.PathEval
	mapper partition.Mapper
}

// Assigner binds a solution to a database. Partition queries drive both
// the evaluator and the router. An Assigner is safe for concurrent use:
// PlaceKey, TxnPartitions, Distributed and the Evaluate/Index family may
// be called from any number of goroutines.
type Assigner struct {
	d        *db.DB
	sol      *partition.Solution
	bindings map[string]tableBinding
}

// NewAssigner validates the solution against the database schema and
// prepares per-table placement bindings.
func NewAssigner(d *db.DB, sol *partition.Solution) (*Assigner, error) {
	if err := sol.Validate(d.Schema()); err != nil {
		return nil, err
	}
	a := &Assigner{d: d, sol: sol, bindings: make(map[string]tableBinding, len(sol.Tables))}
	for name, ts := range sol.Tables {
		b := tableBinding{mapper: ts.Mapper}
		if !ts.Replicate {
			b.ev = db.NewPathEval(d, ts.Path)
		}
		a.bindings[name] = b
	}
	cAssigners.Inc()
	return a, nil
}

// Solution returns the bound solution.
func (a *Assigner) Solution() *partition.Solution { return a.sol }

// PlaceKey returns the partition of an accessed tuple:
// partition.Replicated for replicated tables, a partition in [0..k)
// otherwise. ok is false when the solution does not cover the table or the
// tuple's join path dangles (the tuple cannot be placed, so any
// transaction touching it is distributed). Each partitioned table's
// binding memoizes its navigations by source key, so a tuple's chain is
// walked once per Assigner. Safe for concurrent use.
func (a *Assigner) PlaceKey(acc trace.Access) (int, bool) {
	b, ok := a.bindings[acc.Table]
	if !ok {
		return 0, false
	}
	if b.ev == nil {
		return partition.Replicated, true
	}
	v, ok := b.ev.Eval(acc.Key)
	if !ok {
		return 0, false
	}
	return b.mapper.Map(v), true
}

// TxnPartitions classifies a transaction under the bound solution: the set
// of distinct real partitions its non-replicated accesses touch, whether it
// writes a replicated tuple, and whether every access could be placed. The
// set is returned by value — a bitset with no heap state for partition
// counts up to 256 (see partition.Set).
func (a *Assigner) TxnPartitions(t *trace.Txn) (parts partition.Set, writesReplicated, allPlaced bool) {
	allPlaced = true
	for _, acc := range t.Accesses {
		p, ok := a.PlaceKey(acc)
		if !ok {
			allPlaced = false
			continue
		}
		if p == partition.Replicated {
			if acc.Write {
				writesReplicated = true
			}
			continue
		}
		parts.Add(p)
	}
	return parts, writesReplicated, allPlaced
}

// Distributed applies Definition 5 to one transaction.
func (a *Assigner) Distributed(t *trace.Txn) bool {
	parts, writesReplicated, allPlaced := a.TxnPartitions(t)
	return writesReplicated || !allPlaced || parts.Len() > 1
}

// Evaluate scores a solution on a trace.
func Evaluate(d *db.DB, sol *partition.Solution, tr *trace.Trace) (*Result, error) {
	a, err := NewAssigner(d, sol)
	if err != nil {
		return nil, err
	}
	return a.Evaluate(tr), nil
}

// Evaluate scores the bound solution on a row trace: the trace is
// columnarized, indexed (Index) and scored by PlaceIndex.Evaluate.
func (a *Assigner) Evaluate(tr *trace.Trace) *Result {
	return a.Index(trace.Columnarize(tr)).Evaluate()
}

// merge folds o into r (commutative and associative over the counters;
// merge order does not affect the result, only map insertion order, which
// Classes() re-sorts anyway).
func (r *Result) merge(o *Result) {
	r.Total += o.Total
	r.Distributed += o.Distributed
	r.TouchSum += o.TouchSum
	for name, oc := range o.ByClass {
		cr, ok := r.ByClass[name]
		if !ok {
			cr = &ClassResult{Class: name}
			r.ByClass[name] = cr
		}
		cr.Total += oc.Total
		cr.Distributed += oc.Distributed
	}
}
