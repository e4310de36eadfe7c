//go:build !race

package mediator

import (
	"bytes"
	"context"
	"runtime"
	"testing"

	"github.com/aigrepro/aig/internal/aig"
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
// ~17.6 k, and hashing parameter tables and set ranges by value (no
// string key per row) to ~15.6 k; a change that undoes the syn tables
// or the Inh columns fails here.
const maxEvalAllocs = 17_900

// maxServeAllocs bounds the same evaluations the way aigd runs them
// (BenchmarkEvaluateRecursive/bench250/serve): settled, then emitted into
// a buffer with no tree: ~54 k before the syn tables, ~25 k since, ~18 k
// since sqlmini probes the snapshot indexes, ~6.1 k with inherited
// attributes as columns, ~3.7 k with joins by row reference too,
// ~3.25 k since a settled run leaves the simulated response time
// (cost(P)) to Result builders, ~1.67 k since a parameter table is
// hashed for its join by value, not by a string key per row, and ~0.82 k
// since a released run leaves its tables, parameter tables and chunk
// buffer to the plan's next run (a change that undoes any of the last
// six fails here).
const maxServeAllocs = 950

// maxServeBytes bounds the heap bytes of the same evaluations: 1.55 MB
// when every run built its tables from fresh memory, ~0.38 MB since a
// released run's memory is reused, nearly all of it sqlmini's results,
// and ~33 KB since the part queries execute in their parts' scratches
// too (BenchmarkEvaluateRecursive/bench250/serve reads ~0.1 MB at 90x,
// as it counts the growth of the first cycle). Dropping the release, or
// the reuse of any large per-run array, fails here.
const maxServeBytes = 100_000

// maxFirstAllocs bounds the same evaluations planned from scratch, a
// fresh mediator each (BenchmarkEvaluateRecursive/bench250/first):
// compile, Merge and Schedule, then the evaluation above. ~81 k when
// every Merge trial built a throwaway graph and sorted it twice, ~22.3 k
// since the trials rebuild one contracted view in place and cost(P) is
// one pass over the schedule's order, ~20.7 k since parameter tables
// and set ranges are hashed by value (a change that brings back
// per-trial rebuilding fails here).
const maxFirstAllocs = 23_800

func TestEvaluateAllocBudget(t *testing.T) {
	reg, sa := bench250View(t, false)
	m := New(reg, DefaultOptions())
	requireAllocBudget(t, "evaluation", maxEvalAllocs, func(d int) { evaluateDate(t, m, sa, d) })
}

func TestFirstAllocBudget(t *testing.T) {
	reg, sa := bench250View(t, false)
	requireAllocBudget(t, "evaluation planned from scratch", maxFirstAllocs, func(d int) {
		evaluateDate(t, New(reg, DefaultOptions()), sa, d)
	})
}

// evaluateDate evaluates the bench250 view at depth 8 for date d.
func evaluateDate(t *testing.T, m *Mediator, sa *aig.AIG, d int) {
	res, depth, err := m.EvaluateRecursive(sa, hospital.RootInh(sa, datagen.Date(d)), 8, 64)
	if err != nil || depth != 8 {
		t.Fatalf("depth %d, err %v", depth, err)
	}
	benchDoc = res
}

func TestServeAllocBudget(t *testing.T) {
	reg, sa := bench250View(t, false)
	m := New(reg, DefaultOptions())
	var buf bytes.Buffer
	b := requireAllocBudget(t, "settle and emit", maxServeAllocs, func(d int) {
		buf.Reset()
		if err := settleAndEmit(m, sa, d, &buf); err != nil {
			t.Fatal(err)
		}
	})
	if b > maxServeBytes {
		t.Errorf("one settle and emit allocates %.0f bytes on average, budget %d", b, maxServeBytes)
	}
}

// maxBillBytes bounds the heap bytes of one cold /report/patient/bill
// fragment as aigd serves it (BenchmarkFragment/bill): ~0.41 MB when
// its part queries' results were fresh memory, ~33 KB since they live
// in the plan's recycled scratches.
const maxBillBytes = 80_000

// TestBillFragmentAllocBudget holds the bill fragment, the widest of
// the benchmark's paths, to its bytes budget.
func TestBillFragmentAllocBudget(t *testing.T) {
	reg, sa := bench250View(t, false)
	m := New(reg, DefaultOptions())
	p, v := fragmentVerdict(t, sa, "/report/patient/bill")
	var buf bytes.Buffer
	_, b := perDate(func(d int) {
		buf.Reset()
		if _, err := settleFragment(m, sa, p, v, d, &buf); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f bytes per bill fragment (budget %d)", b, maxBillBytes)
	if b > maxBillBytes {
		t.Errorf("one bill fragment allocates %.0f bytes on average, budget %d", b, maxBillBytes)
	}
}

// maxFragmentAllocs bounds one cold /report/patient/SSN fragment as
// aigd serves it (BenchmarkFragment/ssn): the plan pruned to the path's
// verdict settled, and the SSNs streamed through the path sink into a
// buffer — ~230 allocations, ~100 since the run is released to its
// plan, where partial evaluation, which served the path before, made
// ~900.
const maxFragmentAllocs = 130

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
// allocations over the 30 dates, and returns the heap bytes it averages.
// A warm-up pass prepares the plan: the budget is for the repeat path.
func requireAllocBudget(t *testing.T, what string, budget int, run func(date int)) float64 {
	t.Helper()
	allocs, bytes := perDate(run)
	t.Logf("%.0f allocs and %.0f bytes per %s (budget %d allocs)", allocs, bytes, what, budget)
	if allocs > float64(budget) {
		t.Errorf("one %s allocates %.0f times on average, budget %d", what, allocs, budget)
	}
	return bytes
}

// perDate runs run over the 30 dates once to warm up, then once more
// on one P, as testing.AllocsPerRun does, and returns the mean number of
// allocations and of heap bytes allocated per date.
func perDate(run func(date int)) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cycle := func() {
		for d := 0; d < bench250.Dates; d++ {
			run(d)
		}
	}
	cycle()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cycle()
	runtime.ReadMemStats(&after)
	n := float64(bench250.Dates)
	return float64(after.Mallocs-before.Mallocs) / n, float64(after.TotalAlloc-before.TotalAlloc) / n
}
