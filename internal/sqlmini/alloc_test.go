//go:build !race

package sqlmini

import "testing"

// maxJoinAllocs bounds the allocations of BenchmarkHashJoin/rows=10000's
// query, an equi-join of two 10 k-row tables with 10 k output rows. The
// executor keeps one row reference per joined table and builds a row
// only in the final projection: ~41 allocations in all, where
// concatenating a row per join match took ~10 k.
const maxJoinAllocs = 100

func TestJoinAllocBudget(t *testing.T) {
	const rows = 10000
	cat := benchCatalog(rows)
	q := MustParse(`select l.a, r.b from DB:left l, DB:right r where l.k = r.k and l.a >= 0`)
	// AllocsPerRun's warm-up run builds the snapshot index the join probes.
	allocs := testing.AllocsPerRun(3, func() {
		out, err := Run("out", q, CatalogSchemas{cat}, CatalogData{cat}, CatalogStats{cat}, nil, PlanOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if out.Len() != rows {
			t.Fatalf("join returned %d rows", out.Len())
		}
	})
	t.Logf("%.0f allocs per join of %d rows (budget %d)", allocs, rows, maxJoinAllocs)
	if allocs > maxJoinAllocs {
		t.Errorf("the join allocates %.0f times, budget %d", allocs, maxJoinAllocs)
	}
}
