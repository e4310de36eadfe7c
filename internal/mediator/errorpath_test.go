package mediator

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/aigrepro/aig/internal/hospital"
	"github.com/aigrepro/aig/internal/relstore"
	"github.com/aigrepro/aig/internal/source"
	"github.com/aigrepro/aig/internal/specialize"
	"github.com/aigrepro/aig/internal/sqlmini"
)

// errInjected marks the failure planted by failingSource.
var errInjected = errors.New("injected source failure")

// failingSource delegates to a real source but fails the Nth Exec call
// across all wrapped sources (shared counter), so the plan is already
// partly executed when the failure lands.
type failingSource struct {
	source.Source
	calls  *int32
	failAt int32
}

func (f *failingSource) Exec(ctx context.Context, name string, q *sqlmini.Query, params sqlmini.Params, opts sqlmini.PlanOptions) (*relstore.Table, time.Duration, error) {
	if atomic.AddInt32(f.calls, 1) == f.failAt {
		return nil, 0, errInjected
	}
	return f.Source.Exec(ctx, name, q, params, opts)
}

// failingRegistry wraps every database of the catalog so that the
// failAt-th source query fails.
func failingRegistry(cat *relstore.Catalog, calls *int32, failAt int32) *source.Registry {
	reg := source.NewRegistry()
	for _, name := range cat.DatabaseNames() {
		db, err := cat.Database(name)
		if err != nil {
			continue
		}
		reg.Add(&failingSource{Source: source.NewLocal(db), calls: calls, failAt: failAt})
	}
	return reg
}

// bogusParentSource delegates to a real source but rewrites the
// ParentCol of every row the named part returns to an id no parent has.
type bogusParentSource struct {
	source.Source
	part string
}

func (b bogusParentSource) Exec(ctx context.Context, name string, q *sqlmini.Query, params sqlmini.Params, opts sqlmini.PlanOptions) (*relstore.Table, time.Duration, error) {
	out, dur, err := b.Source.Exec(ctx, name, q, params, opts)
	if err != nil || name != b.part {
		return out, dur, err
	}
	rows := make([]relstore.Tuple, 0, out.Len())
	for _, r := range out.Rows() {
		rows = append(rows, append(relstore.Tuple{relstore.Int(99)}, r[1:]...))
	}
	out, err = relstore.TableFromRows(out.Name(), out.Schema(), rows)
	return out, dur, err
}

// TestUnknownParentIsAnError makes a source answer a star query and a
// choice condition with a ParentCol that matches no parent instance: both
// must fail the evaluation naming the context, not drop the rows.
func TestUnknownParentIsAnError(t *testing.T) {
	for _, tc := range []struct{ part, want string }{
		{"Q:results/result", "result of results/result references unknown parent 99"},
		{"Qc:results/result", "condition of results/result references unknown parent 99"},
	} {
		a, cat := choiceFixture(t)
		db, err := cat.Database("DB")
		if err != nil {
			t.Fatal(err)
		}
		reg := source.NewRegistry()
		reg.Add(bogusParentSource{source.NewLocal(db), tc.part})
		_, err = New(reg, DefaultOptions()).Evaluate(a, nil)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", tc.part, err, tc.want)
		}
	}
}

// drainGoroutines waits for the goroutine count to return to the
// baseline (goleak is unavailable, so this is the leak check: worker
// goroutines must exit even when the plan fails).
func drainGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d before, %d after\n%s",
				baseline, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSourceErrorMidPlan fails the second source query under every
// scheduler: Evaluate must surface the injected error and leave no
// worker goroutines behind.
func TestSourceErrorMidPlan(t *testing.T) {
	for _, tc := range []struct {
		name string
		algo ScheduleAlgo
	}{
		{"level", ScheduleLevel},
		{"fifo", ScheduleFIFO},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cat := hospital.TinyCatalog()
			a, _ := prepared(t, cat, 3, true)
			var calls int32
			reg := failingRegistry(cat, &calls, 2)
			m := New(reg, Options{Net: DefaultNet(), Schedule: tc.algo, Merge: true, CopyElim: true})

			baseline := runtime.NumGoroutine()
			_, err := m.Evaluate(a, hospital.RootInh(a, "d1"))
			if err == nil {
				t.Fatal("mid-plan source failure was swallowed")
			}
			if !errors.Is(err, errInjected) && !strings.Contains(err.Error(), errInjected.Error()) {
				t.Fatalf("error does not surface the source failure: %v", err)
			}
			if atomic.LoadInt32(&calls) < 2 {
				t.Fatalf("failure did not land mid-plan: %d exec calls", calls)
			}
			drainGoroutines(t, baseline)
		})
	}
}

// TestEvaluateRecursiveMaxDepth makes the procedure hierarchy cyclic so
// re-unrolling never converges, and checks the maxDepth error is clean
// and leak-free.
func TestEvaluateRecursiveMaxDepth(t *testing.T) {
	cat := hospital.TinyCatalog()
	proc, err := cat.Table("DB4", "procedure")
	if err != nil {
		t.Fatal(err)
	}
	proc.MustInsert(relstore.Tuple{relstore.String("t5"), relstore.String("t2")})
	// Compile and decompose but do not unfold: EvaluateRecursive takes the
	// recursive grammar.
	a, err := specialize.CompileConstraints(hospital.Sigma0(true))
	if err != nil {
		t.Fatal(err)
	}
	a, err = specialize.DecomposeQueries(a, sqlmini.CatalogSchemas{Catalog: cat}, sqlmini.CatalogStats{Catalog: cat}, sqlmini.PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	reg := source.RegistryFromCatalog(cat)
	m := New(reg, DefaultOptions())

	baseline := runtime.NumGoroutine()
	_, depth, err := m.EvaluateRecursive(a, hospital.RootInh(a, "d1"), 1, 6)
	if err == nil {
		t.Fatal("cyclic data converged")
	}
	if depth != 6 {
		t.Errorf("gave up at depth %d, want maxDepth 6", depth)
	}
	if !strings.Contains(err.Error(), "still expandable") {
		t.Errorf("unexpected maxDepth error: %v", err)
	}
	drainGoroutines(t, baseline)
}
