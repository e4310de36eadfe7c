//go:build !race

package sqlmini

import (
	"fmt"
	"testing"

	"github.com/aigrepro/aig/internal/relstore"
)

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

// maxScratchAllocs bounds one execution in a warmed Scratch of either
// query TestExecScratchAllocBudget runs: the joined rows, the parameter
// table's join index and the projected result are the scratch's arrays
// from the previous execution, so what allocates is the plan's small
// per-execution state and the result table, the same count at any row
// count.
const maxScratchAllocs = 20

// TestExecScratchAllocBudget runs, in one scratch each, a join of two
// parameter tables (the second indexed for the join) and a parameter
// table probing a stored table's snapshot index, at 1,000 and at 10,000
// rows: a warmed scratch makes both allocate the same small number of
// objects at either size.
func TestExecScratchAllocBudget(t *testing.T) {
	cat := benchCatalog(10000)
	probe := MustParse(`select l.a from $v v, DB:left l where l.k = v.k`)
	counts := map[string][]float64{}
	for _, rows := range []int{1000, 10000} {
		build, buildParams := paramTables(rows)
		keys := Binding{Schema: relstore.MustSchema("k:string")}
		for i := 0; i < rows; i++ {
			keys.Rows = append(keys.Rows, relstore.Tuple{relstore.String(fmt.Sprintf("k%06d", i))})
		}
		for _, c := range []struct {
			name   string
			q      *Query
			params Params
		}{{"param-join", build, buildParams}, {"stored-probe", probe, Params{"v": keys}}} {
			plan, err := PlanAndEstimate(c.q, CatalogSchemas{cat}, ParamSchemasOf(c.params), CatalogStats{cat}, PlanOptions{})
			if err != nil {
				t.Fatal(err)
			}
			var sc Scratch
			// AllocsPerRun's warm-up run grows the scratch's arrays.
			allocs := testing.AllocsPerRun(3, func() {
				out, err := Exec("out", plan, CatalogData{cat}, c.params, &sc)
				if err != nil {
					t.Fatal(err)
				}
				if out.Len() != rows {
					t.Fatalf("%s returned %d rows, want %d", c.name, out.Len(), rows)
				}
				sc.Release()
			})
			t.Logf("%s, %d rows: %.0f allocs in a warmed scratch (budget %d)", c.name, rows, allocs, maxScratchAllocs)
			if allocs > maxScratchAllocs {
				t.Errorf("%s at %d rows allocates %.0f times in a warmed scratch, budget %d", c.name, rows, allocs, maxScratchAllocs)
			}
			counts[c.name] = append(counts[c.name], allocs)
		}
	}
	for name, n := range counts {
		if n[0] != n[1] {
			t.Errorf("%s allocates %.0f times at 1,000 rows and %.0f at 10,000: not independent of the row count", name, n[0], n[1])
		}
	}
}
