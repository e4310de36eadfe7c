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

// maxParamJoinAllocs bounds BenchmarkParamJoin/build-1000's query, two
// parameter tables joined on two columns, at 1,000 and at 10,000 rows:
// the second table's relstore.HashIndex is one array and a counting
// pass sizes the result, so nothing allocates per row (~41 allocations
// at either size; 43 when the table was chained in arrays of its own,
// and ~2,045 at 1,000 rows with a string key per row and a growing
// result).
const maxParamJoinAllocs = 60

func TestParamBuildJoinAllocBudget(t *testing.T) {
	for _, rows := range []int{1000, 10000} {
		q, params := paramTables(rows)
		allocs := testing.AllocsPerRun(3, func() {
			out, err := Run("out", q, CatalogSchemas{}, CatalogData{}, CatalogStats{}, params, PlanOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if out.Len() != rows {
				t.Fatalf("join returned %d rows, want %d", out.Len(), rows)
			}
		})
		t.Logf("%.0f allocs per join of two %d-row parameter tables (budget %d)", allocs, rows, maxParamJoinAllocs)
		if allocs > maxParamJoinAllocs {
			t.Errorf("the %d-row join allocates %.0f times, budget %d", rows, allocs, maxParamJoinAllocs)
		}
	}
}
