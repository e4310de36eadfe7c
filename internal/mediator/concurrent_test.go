package mediator

import (
	"runtime"
	"strings"
	"sync"
	"testing"

	"github.com/aigrepro/aig/internal/hospital"
	"github.com/aigrepro/aig/internal/relstore"
	"github.com/aigrepro/aig/internal/source"
	"github.com/aigrepro/aig/internal/specialize"
	"github.com/aigrepro/aig/internal/sqlmini"
)

// The serving daemon shares one Mediator (and one Registry) across all
// request goroutines, relying on evaluation state living entirely in
// per-call structures. These tests pin that contract under -race.

func TestMediatorConcurrentEvaluate(t *testing.T) {
	cat := hospital.TinyCatalog()
	a, reg := prepared(t, cat, 4, true)
	m := New(reg, DefaultOptions())

	dates := []string{"d1", "d2", "d3"}
	// Serial baseline, one per date, from the same shared mediator.
	want := make(map[string]string, len(dates))
	for _, d := range dates {
		res, err := m.Evaluate(a, hospital.RootInh(a, d))
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		if err := res.Doc.WriteIndented(&b); err != nil {
			t.Fatal(err)
		}
		want[d] = b.String()
	}

	const goroutines = 8
	const perGoroutine = 10
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perGoroutine; i++ {
				d := dates[(g+i)%len(dates)]
				res, err := m.Evaluate(a, hospital.RootInh(a, d))
				if err != nil {
					errs <- err
					return
				}
				var b strings.Builder
				if err := res.Doc.WriteIndented(&b); err != nil {
					errs <- err
					return
				}
				if b.String() != want[d] {
					t.Errorf("goroutine %d: concurrent evaluation for %s differs from the serial document", g, d)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestMediatorConcurrentEvaluateRecursive(t *testing.T) {
	cat := hospital.TinyCatalog()
	a := hospital.Sigma0(true)
	sa, err := specialize.CompileConstraints(a)
	if err != nil {
		t.Fatal(err)
	}
	schemas := sqlmini.CatalogSchemas{Catalog: cat}
	stats := sqlmini.CatalogStats{Catalog: cat}
	sa, err = specialize.DecomposeQueries(sa, schemas, stats, DefaultOptions().PlanOpts)
	if err != nil {
		t.Fatal(err)
	}
	m := New(source.RegistryFromCatalog(cat), DefaultOptions())

	// Serial baseline with a deliberately small starting depth, so the
	// concurrent runs also exercise the depth-extension path.
	res, wantDepth, err := m.EvaluateRecursive(sa, hospital.RootInh(sa, "d1"), 1, 16)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := res.Doc.WriteIndented(&b); err != nil {
		t.Fatal(err)
	}
	want := b.String()

	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				// Mix warm starts (estDepth already sufficient) with cold
				// ones that must extend the unfolding mid-flight.
				est := 1 + (g+i)%wantDepth
				res, depth, err := m.EvaluateRecursive(sa, hospital.RootInh(sa, "d1"), est, 16)
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				// The depth that sufficed depends on the starting estimate
				// (doubling from 1 lands on 4 where 3 already suffices), but
				// it can never be below what the data requires.
				if depth < min(wantDepth, est) || depth > 16 {
					t.Errorf("goroutine %d: depth %d out of range (serial baseline %d)", g, depth, wantDepth)
					return
				}
				var b strings.Builder
				if err := res.Doc.WriteIndented(&b); err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				if b.String() != want {
					t.Errorf("goroutine %d: concurrent recursive evaluation differs from the serial document", g)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestSharedPlanConcurrentWithWrites runs many evaluations with different
// root parameters over one shared prepared plan — plain and re-unrolling —
// while a writer keeps moving the epoch with rows no evaluated date reads.
// Plans are replaced under the evaluations' feet; every document must
// still match the serial one.
func TestSharedPlanConcurrentWithWrites(t *testing.T) {
	cat := hospital.TinyCatalog()
	rec := specializedHospital(t, cat)
	unf, err := specialize.Unfold(rec, 4)
	if err != nil {
		t.Fatal(err)
	}
	m := New(source.RegistryFromCatalog(cat), DefaultOptions())

	dates := []string{"d1", "d2", "d3"}
	want := make(map[string]string, len(dates))
	for _, d := range dates {
		res, err := m.Evaluate(unf, hospital.RootInh(unf, d))
		if err != nil {
			t.Fatal(err)
		}
		want[d] = res.Doc.Canonical()
	}

	visit, err := cat.Table("DB1", "visitInfo")
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := visit.Insert(relstore.Tuple{relstore.String("s1"), relstore.String("t1"), relstore.String("d9")}); err != nil {
				t.Error(err)
				return
			}
			runtime.Gosched()
		}
	}()

	before := metricPlanInvalidations.Value()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				d := dates[(g+i)%len(dates)]
				var res *Result
				var err error
				if g%2 == 0 {
					res, err = m.Evaluate(unf, hospital.RootInh(unf, d))
				} else {
					res, _, err = m.EvaluateRecursive(rec, hospital.RootInh(rec, d), 2, 16)
				}
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				if res.Doc.Canonical() != want[d] {
					t.Errorf("goroutine %d: document for %s differs from the serial one", g, d)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	writer.Wait()
	if metricPlanInvalidations.Value() == before {
		t.Error("no plan was invalidated while the writer ran")
	}
}
