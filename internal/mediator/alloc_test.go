//go:build !race

package mediator

import (
	"bytes"
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
// store (one table per context, ranges per parent, no maps) to ~78 k,
// reusing instance-scope arrays to ~68 k, and computing synthesized
// attributes set-at-a-time (one syn table per context, no per-instance
// values or scopes) to ~39 k; a change that undoes any of them fails
// here.
const maxEvalAllocs = 55_000

// maxServeAllocs bounds the same evaluations the way aigd runs them
// (BenchmarkEvaluateRecursive/bench250/serve): settled, then emitted into
// a buffer with no tree: ~54 k before the syn tables, ~25 k since, of
// which emission is ~1.6 k.
const maxServeAllocs = 40_000

func TestEvaluateAllocBudget(t *testing.T) {
	reg, sa := bench250View(t, false)
	m := New(reg, DefaultOptions())
	requireAllocBudget(t, "evaluation", maxEvalAllocs, func(d int) {
		res, depth, err := m.EvaluateRecursive(sa, hospital.RootInh(sa, datagen.Date(d)), 8, 64)
		if err != nil || depth != 8 {
			t.Fatalf("depth %d, err %v", depth, err)
		}
		benchDoc = res
	})
}

func TestServeAllocBudget(t *testing.T) {
	reg, sa := bench250View(t, false)
	m := New(reg, DefaultOptions())
	var buf bytes.Buffer
	requireAllocBudget(t, "settle and emit", maxServeAllocs, func(d int) {
		buf.Reset()
		if err := settleAndEmit(m, sa, d, &buf); err != nil {
			t.Fatal(err)
		}
	})
}

// requireAllocBudget fails unless run averages at most budget
// allocations over the 30 dates. AllocsPerRun's warm-up pass prepares
// the plan: the budget is for the repeat path.
func requireAllocBudget(t *testing.T, what string, budget int, run func(date int)) {
	t.Helper()
	allocs := testing.AllocsPerRun(1, func() {
		for d := 0; d < bench250.Dates; d++ {
			run(d)
		}
	}) / float64(bench250.Dates)
	t.Logf("%.0f allocs per %s (budget %d)", allocs, what, budget)
	if allocs > float64(budget) {
		t.Errorf("one %s allocates %.0f times on average, budget %d", what, allocs, budget)
	}
}
