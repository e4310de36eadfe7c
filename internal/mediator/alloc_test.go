//go:build !race

package mediator

import (
	"bytes"
	"context"
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
// values or scopes) to ~39 k, probing the sources' snapshot indexes
// instead of re-hashing a stored table per join to ~32 k, and keeping
// inherited attributes as columns of the context tables (no value per
// instance) with joins by row reference (no row per join match) to
// ~17.6 k; a change that undoes the syn tables or the Inh columns
// fails here.
const maxEvalAllocs = 24_600

// maxServeAllocs bounds the same evaluations the way aigd runs them
// (BenchmarkEvaluateRecursive/bench250/serve): settled, then emitted into
// a buffer with no tree: ~54 k before the syn tables, ~25 k since, ~18 k
// since sqlmini probes the snapshot indexes, ~6.1 k with inherited
// attributes as columns, ~3.7 k with joins by row reference too, and
// ~3.25 k since a settled run leaves the simulated response time
// (cost(P)) to Result builders (a change that undoes any of the last
// four fails here).
const maxServeAllocs = 3_500

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

// maxFragmentAllocs bounds one cold /report/patient/SSN fragment as
// aigd serves it (BenchmarkFragment/ssn): the plan pruned to the path's
// verdict settled, and the SSNs streamed through the path sink into a
// buffer — ~230 allocations, where partial evaluation, which served
// the path before, made ~900.
const maxFragmentAllocs = 320

// TestFragmentAllocBudget holds the SSN fragment to its budget and to
// its plan: one source query (the patient query) per evaluation, where
// the document's merged plan issues 4 (the benchmark's ‡
// mediator.source_queries of 40 sums ten dates).
func TestFragmentAllocBudget(t *testing.T) {
	reg, sa := bench250View(t, false)
	m := New(reg, DefaultOptions())
	p, v := fragmentVerdict(t, sa, "/report/patient/SSN")
	var buf bytes.Buffer
	requireAllocBudget(t, "SSN fragment", maxFragmentAllocs, func(d int) {
		buf.Reset()
		r, err := settleFragment(m, sa, p, v, d, &buf)
		if err != nil {
			t.Fatal(err)
		}
		if r.Report.SourceQueryCount != 1 {
			t.Fatalf("the SSN fragment's plan issued %d source queries, want 1", r.Report.SourceQueryCount)
		}
	})
	doc, _, err := m.Settle(context.Background(), sa, hospital.RootInh(sa, datagen.Date(0)), 8, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := doc.Report.SourceQueryCount; n != 4 {
		t.Errorf("the document's plan issued %d source queries, want 4", n)
	}
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
