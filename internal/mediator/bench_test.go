package mediator

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"testing"

	"github.com/aigrepro/aig/internal/aig"
	"github.com/aigrepro/aig/internal/aigspec"
	"github.com/aigrepro/aig/internal/datagen"
	"github.com/aigrepro/aig/internal/hospital"
	"github.com/aigrepro/aig/internal/propagate"
	"github.com/aigrepro/aig/internal/source"
	"github.com/aigrepro/aig/internal/specialize"
	"github.com/aigrepro/aig/internal/xpath"
)

// bench250 is the catalog of the repository benchmark (bench/fixture.go),
// so a layer regression seen there has a unit-sized reproducer here.
var bench250 = datagen.Size{
	Name: "bench250", Patient: 250, VisitInfo: 1100, Cover: 450,
	Billing: 60, Treatment: 60, Procedure: 90,
	Policies: 10, Dates: 30, Levels: 8,
}

// BenchmarkEvaluateRecursive evaluates the hospital view the way aigd
// does once it has learned the unfolding depth (8 on this catalog),
// cycling the 30 dates. "first" pays for planning on every evaluation (a
// fresh mediator each time); "repeat" is the serving steady state: one
// long-lived mediator. Both run the grammar aigd serves, with no guard
// for the certified constraints; "guarded" is "repeat" over the fully
// guarded grammar, for comparison. "serve" is what aigd does per cold
// request: settle the run as "repeat" does, then emit its bytes into a
// buffer, with no tree.
func BenchmarkEvaluateRecursive(b *testing.B) {
	reg, sa := bench250View(b, false)
	_, guarded := bench250View(b, true)
	run := func(b *testing.B, sa *aig.AIG, med func() *Mediator) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, depth, err := med().EvaluateRecursive(sa, hospital.RootInh(sa, datagen.Date(i%bench250.Dates)), 8, 64)
			if err != nil || depth != 8 {
				b.Fatalf("depth %d, err %v", depth, err)
			}
			benchDoc = res
		}
	}
	repeat := func(b *testing.B, sa *aig.AIG) {
		m := New(reg, DefaultOptions())
		if _, _, err := m.EvaluateRecursive(sa, hospital.RootInh(sa, datagen.Date(0)), 8, 64); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		run(b, sa, func() *Mediator { return m })
	}
	b.Run("bench250/first", func(b *testing.B) {
		run(b, sa, func() *Mediator { return New(reg, DefaultOptions()) })
	})
	b.Run("bench250/repeat", func(b *testing.B) { repeat(b, sa) })
	b.Run("bench250/guarded", func(b *testing.B) { repeat(b, guarded) })
	b.Run("bench250/serve", func(b *testing.B) {
		m := New(reg, DefaultOptions())
		var buf bytes.Buffer
		serve := func(i int) {
			buf.Reset()
			if err := settleAndEmit(m, sa, i, &buf); err != nil {
				b.Fatal(err)
			}
		}
		serve(0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			serve(i)
		}
	})
}

var benchDoc *Result

// BenchmarkPlan is the planning "first" pays for, alone: a fresh
// mediator compiles the bench250 view at depth 8, merges and schedules
// it, and evaluates nothing.
func BenchmarkPlan(b *testing.B) {
	reg, sa := bench250View(b, false)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p, _, _, err := New(reg, DefaultOptions()).prepare(context.Background(), sa, 8, nil, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		benchPlan = p
	}
}

var benchPlan *preparedPlan

// fragmentPaths are the fragment_cold workload's paths without
// predicates, which aigd serves from pruned plans: one narrow, two wide.
var fragmentPaths = []struct{ name, expr string }{
	{"ssn", "/report/patient/SSN"},
	{"bill", "/report/patient/bill"},
	{"tname", "//treatment/tname"},
}

// BenchmarkFragment is what aigd does per cold request for each of
// fragmentPaths: settle the plan pruned to the path's verdict at depth 8,
// cycling the 30 dates, and stream the path's matches into a buffer.
func BenchmarkFragment(b *testing.B) {
	reg, sa := bench250View(b, false)
	for _, fp := range fragmentPaths {
		b.Run(fp.name, func(b *testing.B) {
			m := New(reg, DefaultOptions())
			p, v := fragmentVerdict(b, sa, fp.expr)
			var buf bytes.Buffer
			serve := func(i int) {
				buf.Reset()
				if _, err := settleFragment(m, sa, p, v, i, &buf); err != nil {
					b.Fatal(err)
				}
			}
			serve(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				serve(i)
			}
		})
	}
}

// fragmentVerdict parses expr and computes its verdict over sa.
func fragmentVerdict(tb testing.TB, sa *aig.AIG, expr string) (*xpath.Path, *xpath.Verdict) {
	p, err := xpath.Parse(expr)
	if err != nil {
		tb.Fatal(err)
	}
	c, err := xpath.Compile(sa, p)
	if err != nil {
		tb.Fatal(err)
	}
	return p, c.Verdict(sa)
}

// settleFragment settles the bench250 view at depth 8 for the i-th date,
// cycling the 30, pruned to v, and streams p's matches to w.
func settleFragment(m *Mediator, sa *aig.AIG, p *xpath.Path, v *xpath.Verdict, i int, w io.Writer) (*Run, error) {
	r, depth, err := m.Settle(context.Background(), sa, hospital.RootInh(sa, datagen.Date(i%bench250.Dates)), 8, 64, v)
	if err != nil || depth != 8 {
		return nil, fmt.Errorf("depth %d, err %v", depth, err)
	}
	s := xpath.NewStream(p, w)
	if err := r.Tag(s); err != nil {
		return nil, err
	}
	return r, s.Err()
}

// settleAndEmit settles the bench250 view at depth 8 for the i-th date,
// cycling the 30, and writes its document to w.
func settleAndEmit(m *Mediator, sa *aig.AIG, i int, w io.Writer) error {
	r, depth, err := m.Settle(context.Background(), sa, hospital.RootInh(sa, datagen.Date(i%bench250.Dates)), 8, 64, nil)
	if err != nil || depth != 8 {
		return fmt.Errorf("depth %d, err %v", depth, err)
	}
	_, err = r.WriteTo(w)
	return err
}

// bench250View is the serving setup of the hospital view over bench250:
// the registry and the decomposed grammar aigd runs, with guards compiled
// only for the constraints certification could not prove (none, on this
// view) — or, with guarded, for every constraint, as §3.3 compiles them.
func bench250View(tb testing.TB, guarded bool) (*source.Registry, *aig.AIG) {
	reg := source.RegistryFromCatalog(datagen.Generate(bench250, 42))
	spec, err := aigspec.Parse(hospital.SpecText)
	if err != nil {
		tb.Fatal(err)
	}
	if !guarded {
		spec = propagate.Prune(spec, propagate.Certify(spec))
	}
	sa, err := specialize.CompileConstraints(spec)
	if err != nil {
		tb.Fatal(err)
	}
	if sa, err = specialize.DecomposeQueries(sa, reg, reg, DefaultOptions().PlanOpts); err != nil {
		tb.Fatal(err)
	}
	return reg, sa
}
