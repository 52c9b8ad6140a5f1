package serve

import (
	"fmt"
	"sort"

	"repro/internal/commit"
	"repro/internal/db"
	"repro/internal/wal"
)

// stateDigest folds the per-table digests of every partition store into
// one hex token: two same-seed runs must land byte-identical state, and
// this pins it in the report without dumping whole tables.
func stateDigest(cl *commit.Cluster) string {
	stores := make([]*db.DB, len(cl.Parts))
	for p, part := range cl.Parts {
		stores[p] = part.Store()
	}
	digests := wal.CombineDigests(stores)
	names := make([]string, 0, len(digests))
	for name := range digests {
		names = append(names, name)
	}
	sort.Strings(names)
	var h uint64 = 1469598103934665603 // FNV-64a offset basis
	for _, name := range names {
		for i := 0; i < len(name); i++ {
			h = (h ^ uint64(name[i])) * 1099511628211
		}
		d := digests[name]
		for i := 0; i < 8; i++ {
			h = (h ^ (d >> (8 * i) & 0xff)) * 1099511628211
		}
	}
	return fmt.Sprintf("%016x", h)
}
