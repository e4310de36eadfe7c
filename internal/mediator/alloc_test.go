//go:build !race

package mediator

import (
	"testing"

	"github.com/aigrepro/aig/internal/datagen"
	"github.com/aigrepro/aig/internal/hospital"
)

// maxEvalAllocs bounds the allocations of one serving-steady-state
// evaluation of the hospital view over bench250 at depth 8, averaged
// over the 30 dates exactly as the unit reproducer
// BenchmarkEvaluateRecursive/bench250/repeat cycles them (single dates
// range from 16 k to 320 k). Slot-indexed attribute values and map-free
// instance scopes brought the mean from ~157 k to ~111 k, compiling no
// guard for the certified constraints to ~91 k, and the dense instance
// store (one table per context, ranges per parent, no maps) to ~78 k; a
// change that undoes any of them fails here.
const maxEvalAllocs = 85_000

func TestEvaluateAllocBudget(t *testing.T) {
	reg, sa := bench250View(t, false)
	m := New(reg, DefaultOptions())
	pass := func() {
		for d := 0; d < bench250.Dates; d++ {
			res, depth, err := m.EvaluateRecursive(sa, hospital.RootInh(sa, datagen.Date(d)), 8, 64)
			if err != nil || depth != 8 {
				t.Fatalf("depth %d, err %v", depth, err)
			}
			benchDoc = res
		}
	}
	// AllocsPerRun's warm-up pass prepares the plan: the budget is for the
	// repeat path.
	allocs := testing.AllocsPerRun(1, pass) / float64(bench250.Dates)
	t.Logf("%.0f allocs per evaluation (budget %d)", allocs, maxEvalAllocs)
	if allocs > maxEvalAllocs {
		t.Errorf("one evaluation allocates %.0f times on average, budget %d", allocs, maxEvalAllocs)
	}
}
