//go:build !race

package relstore

import (
	"fmt"
	"testing"
)

// maxIndexBuildAllocs bounds the allocations of building a table's
// index: the HashIndex, its one array and its column list, and the
// table's index map and entry. None is per row, so 1,000 and 10,000
// rows cost the same (~6), where a Tuple.KeyOn string and a bucket per
// key took 2,024 and 20,085.
const maxIndexBuildAllocs = 8

func TestIndexAllocBudget(t *testing.T) {
	var builds []float64
	for _, n := range []int{1000, 10000} {
		rows := make([]Tuple, n)
		for i := range rows {
			rows[i] = Tuple{String(fmt.Sprintf("k%06d", i/3)), Int(int64(i % 3))}
		}
		tab, err := TableFromRows("t", MustSchema("k:string", "n:int"), rows)
		if err != nil {
			t.Fatal(err)
		}
		cols, key := []int{0, 1}, Tuple{String("k000007"), Int(1)}
		build := testing.AllocsPerRun(5, func() {
			tab.mu.Lock()
			tab.indexes = nil
			tab.mu.Unlock()
			tab.Index(cols)
		})
		ix := tab.Index(cols)
		lookup := testing.AllocsPerRun(100, func() {
			if len(ix.Lookup(key)) != 1 {
				t.Fatal("Lookup missed the key")
			}
			if _, pos := tab.Lookup(cols, key); len(pos) != 1 {
				t.Fatal("Table.Lookup missed the key")
			}
		})
		t.Logf("%d rows: %.0f allocs per index build (budget %d), %.0f per lookup", n, build, maxIndexBuildAllocs, lookup)
		if build > maxIndexBuildAllocs {
			t.Errorf("building the index over %d rows allocates %.0f times, budget %d", n, build, maxIndexBuildAllocs)
		}
		if lookup != 0 {
			t.Errorf("a lookup allocates %.0f times, want 0", lookup)
		}
		builds = append(builds, build)
	}
	if builds[0] != builds[1] {
		t.Errorf("building allocates %.0f times over 1,000 rows and %.0f over 10,000: a per-row allocation", builds[0], builds[1])
	}
}
