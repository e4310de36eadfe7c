package mediator

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"github.com/aigrepro/aig/internal/hospital"
	"github.com/aigrepro/aig/internal/obs"
	"github.com/aigrepro/aig/internal/relstore"
)

var update = flag.Bool("update", false, "rewrite the golden plan renderings")

// optimizeAttrs returns the plan_cache and epoch attributes of the last
// evaluation's optimize span.
func optimizeAttrs(t *testing.T, tr *obs.Tracer) (cache, epoch string) {
	t.Helper()
	var last *obs.Span
	for _, s := range tr.Spans() {
		if s.Name() == "optimize" {
			last = s
		}
	}
	if last == nil {
		t.Fatal("no optimize span recorded")
	}
	c, _ := last.Attr("plan_cache")
	e, _ := last.Attr("epoch")
	cache, _ = c.(string)
	epoch, _ = e.(string)
	return cache, epoch
}

// TestPlanCacheHitMissInvalidate walks one mediator through a miss, a
// hit, a write that moves the epoch and the resulting invalidation, and
// checks that every plan-cache counter and the optimize span's
// attributes move with it (no dead metrics), that a hit does no planning,
// and that repeat evaluations report identical plans.
func TestPlanCacheHitMissInvalidate(t *testing.T) {
	cat := hospital.TinyCatalog()
	a, reg := prepared(t, cat, 3, true)
	tr := obs.NewTracer()
	ctx := obs.ContextWithSpan(context.Background(), tr, nil)
	m := New(reg, DefaultOptions())

	type counts struct{ hits, misses, invalidations int64 }
	read := func() counts {
		return counts{metricPlanHits.Value(), metricPlanMisses.Value(), metricPlanInvalidations.Value()}
	}
	step := func(name string, want counts, wantCache string) (*Result, string) {
		t.Helper()
		before := read()
		res, err := m.EvaluateContext(ctx, a, hospital.RootInh(a, "d1"))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		after := read()
		got := counts{after.hits - before.hits, after.misses - before.misses, after.invalidations - before.invalidations}
		if got != want {
			t.Errorf("%s: counters moved by %+v, want %+v", name, got, want)
		}
		cache, epoch := optimizeAttrs(t, tr)
		if cache != wantCache || epoch == "" {
			t.Errorf("%s: optimize span plan_cache=%q epoch=%q, want plan_cache=%q and an epoch", name, cache, epoch, wantCache)
		}
		return res, epoch
	}

	first, epoch1 := step("first", counts{misses: 1}, "miss")
	second, epoch2 := step("second", counts{hits: 1}, "hit")
	if epoch1 != epoch2 {
		t.Errorf("epoch moved without a write: %q -> %q", epoch1, epoch2)
	}
	r1, r2 := first.Report, second.Report
	if r1.SourceQueryCount != r2.SourceQueryCount || r1.MergedGroups != r2.MergedGroups ||
		r1.NodeCount != r2.NodeCount || r1.EdgeCount != r2.EdgeCount || r1.ShippedBytes != r2.ShippedBytes {
		t.Errorf("cached plan reports differently: %+v vs %+v", r1, r2)
	}
	if !first.Doc.Equal(second.Doc) {
		t.Error("cached plan produced a different document")
	}
	if len(second.Report.PhaseSec) != 4 {
		t.Errorf("hit PhaseSec = %v, want the four phases", second.Report.PhaseSec)
	}

	// A write to a source the grammar reads moves the epoch: re-plan once,
	// then hit again at the new epoch.
	visit, err := cat.Table("DB1", "visitInfo")
	if err != nil {
		t.Fatal(err)
	}
	visit.MustInsert(relstore.Tuple{relstore.String("s3"), relstore.String("t1"), relstore.String("d9")})
	_, epoch3 := step("after write", counts{misses: 1, invalidations: 1}, "miss")
	if epoch3 == epoch2 {
		t.Errorf("epoch %q did not move with the write", epoch3)
	}
	step("after write, again", counts{hits: 1}, "hit")

	// A different grammar object is a different plan, not a hit.
	b, _ := prepared(t, cat, 3, true)
	before := read()
	if _, err := m.Evaluate(b, hospital.RootInh(b, "d1")); err != nil {
		t.Fatal(err)
	}
	if after := read(); after.misses-before.misses != 1 || after.hits != before.hits {
		t.Errorf("new grammar: counters %+v -> %+v, want one miss", before, after)
	}
}

// TestPlanCacheBounded evaluates more grammars than the cache holds and
// checks the oldest were dropped while the newest still hit.
func TestPlanCacheBounded(t *testing.T) {
	cat := hospital.TinyCatalog()
	m := New(nil, DefaultOptions())
	for i := 0; i < maxPlans+4; i++ {
		a, reg := prepared(t, cat, 2, false)
		m.reg = reg
		if _, err := m.Evaluate(a, hospital.RootInh(a, "d1")); err != nil {
			t.Fatal(err)
		}
		if n := len(m.plans.entries); n > maxPlans {
			t.Fatalf("plan cache holds %d entries, bound is %d", n, maxPlans)
		}
	}
}

var secondsRe = regexp.MustCompile(`\d+\.\d+s`)

// TestExplainGolden pins the rendered plan of the hospital example: the
// prepared/run split and the plan cache must not change what Explain and
// ExplainAnalyze print (the goldens were generated before the split).
// Measured times are masked; estimates, row counts and byte counts are
// deterministic.
func TestExplainGolden(t *testing.T) {
	cat := hospital.TinyCatalog()
	a, reg := prepared(t, cat, 3, true)
	m := New(reg, DefaultOptions())
	explain, err := m.Explain(a)
	if err != nil {
		t.Fatal(err)
	}
	analyze, _, err := m.ExplainAnalyze(a, hospital.RootInh(a, "d1"))
	if err != nil {
		t.Fatal(err)
	}
	// A second rendering from the now-cached plan must be identical.
	again, err := m.Explain(a)
	if err != nil {
		t.Fatal(err)
	}
	if again != explain {
		t.Errorf("Explain from the cached plan differs:\n%s\n---\n%s", explain, again)
	}
	// Only the estimate lines of the analyzed plan are stable: actual
	// engine times, and the percentages derived from them, vary.
	var stable []string
	for _, line := range strings.Split(analyze, "\n") {
		if strings.Contains(line, "measured response time") || strings.Contains(line, "wall time") {
			continue
		}
		stable = append(stable, secondsRe.ReplaceAllString(line, "#s"))
	}
	for name, got := range map[string]string{
		"explain-tiny-3.golden":         explain,
		"explain-analyze-tiny-3.golden": strings.Join(stable, "\n"),
	} {
		path := filepath.Join("testdata", name)
		if *update {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(want) != got {
			t.Errorf("%s differs from the golden rendering:\n--- want\n%s\n--- got\n%s", name, want, got)
		}
	}
}
