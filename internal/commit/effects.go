// Package commit is the one commit core every replay shares: how a
// transaction's writes map to partitions and which partition coordinates
// it, one partition's durable state machine (store, optional WAL,
// BEGIN/WRITE staging, clean and torn PREPARE and decisions, apply,
// checkpoint cadence, in-doubt holds), the in-process cluster the
// durable replay and the serving engine commit into, the end-of-run
// recovery and consistency oracle, and the replay driver (arrivals,
// attempt loop, retries, latency and SLO accounting, scripted crash
// points).
//
// The engines keep only what is theirs: sim scripts crashes against the
// in-process cluster, twopc wraps a Partition in its wire protocol and
// termination logic, repl ships WAL records and promotes backups, and
// serve adds admission control and breakers around Cluster.Commit.
package commit

import (
	"sort"

	"repro/internal/db"
	"repro/internal/eval"
	"repro/internal/partition"
	"repro/internal/trace"
)

// Participants classifies a transaction under the solution:
// replicated-write or unplaceable transactions span every node;
// multi-partition transactions span their partitions; local transactions
// run on their coordinator only. A fully-replicated read returns no
// pinned nodes (any node serves it).
func Participants(a *eval.Assigner, t *trace.Txn, k, txnIndex int) (nodes []int, coord int, distributed bool) {
	parts, writesReplicated, allPlaced := a.TxnPartitions(t)
	switch {
	case writesReplicated || !allPlaced:
		nodes = make([]int, k)
		for n := range nodes {
			nodes[n] = n
		}
		return nodes, Coordinator(&parts, k, txnIndex), true
	case parts.Empty():
		return nil, Coordinator(&parts, k, txnIndex), false
	case parts.Len() == 1:
		c := Coordinator(&parts, k, txnIndex)
		return []int{c}, c, false
	default:
		nodes = parts.AppendTo(make([]int, 0, parts.Len()))
		return nodes, Coordinator(&parts, k, txnIndex), true
	}
}

// Coordinator picks a deterministic coordinator: the lowest
// participating partition. Fully-replicated reads have no participant
// constraint — any node can serve them — so they round-robin by
// transaction index.
func Coordinator(parts *partition.Set, k, txnIndex int) int {
	if m := parts.Min(); m >= 0 {
		return m
	}
	return txnIndex % k
}

// WriteEffects routes a transaction's writes to owning partitions as
// touch ops: placed keys go to their partition, replicated-table writes
// fan out to every partition, unplaceable keys execute at the
// coordinator. The returned partition list is sorted.
func WriteEffects(a *eval.Assigner, t *trace.Txn, k, coord int) ([]int, map[int][]db.Op) {
	opsAt := map[int][]db.Op{}
	add := func(p int, acc trace.Access) {
		opsAt[p] = append(opsAt[p], db.Op{Kind: db.OpTouch, Table: acc.Table, Key: acc.Key})
	}
	for _, acc := range t.Accesses {
		if !acc.Write {
			continue
		}
		p, ok := a.PlaceKey(acc)
		switch {
		case !ok:
			add(coord, acc)
		case p == partition.Replicated:
			for n := 0; n < k; n++ {
				add(n, acc)
			}
		default:
			add(p, acc)
		}
	}
	parts := make([]int, 0, len(opsAt))
	for p := range opsAt {
		parts = append(parts, p)
	}
	sort.Ints(parts)
	return parts, opsAt
}

// PartOp is one committed write effect routed to a partition.
type PartOp struct {
	Part int
	Op   db.Op
}

// Flatten serializes per-partition write effects in partition order:
// one entry of the oracle's committed-set journal.
func Flatten(parts []int, opsAt map[int][]db.Op) []PartOp {
	var out []PartOp
	for _, p := range parts {
		for _, op := range opsAt[p] {
			out = append(out, PartOp{Part: p, Op: op})
		}
	}
	return out
}

// Contains reports whether n is in parts.
func Contains(parts []int, n int) bool {
	for _, p := range parts {
		if p == n {
			return true
		}
	}
	return false
}
