package mediator

import (
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"github.com/aigrepro/aig/internal/aig"
	"github.com/aigrepro/aig/internal/hospital"
	"github.com/aigrepro/aig/internal/obs"
	"github.com/aigrepro/aig/internal/randaig"
	"github.com/aigrepro/aig/internal/relstore"
	"github.com/aigrepro/aig/internal/source"
	"github.com/aigrepro/aig/internal/specialize"
	"github.com/aigrepro/aig/internal/sqlmini"
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
	explain, err := m.Explain(a, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	analyze, _, err := m.ExplainAnalyze(a, hospital.RootInh(a, "d1"))
	if err != nil {
		t.Fatal(err)
	}
	// A second rendering from the now-cached plan must be identical.
	again, err := m.Explain(a, 0, nil)
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
	checkGolden(t, "explain-tiny-3.golden", explain)
	checkGolden(t, "explain-analyze-tiny-3.golden", strings.Join(stable, "\n"))
}

// TestExplainRandomGolden pins, with Merge on, one SHA-256 of Explain per
// random grammar (randaig seeds 1-400) and schedule: the groupings,
// per-source orders and estimates of far more plan shapes than the
// hospital goldens reach.
func TestExplainRandomGolden(t *testing.T) {
	var b strings.Builder
	for seed := int64(1); seed <= randomSeeds; seed++ {
		a, reg := randomGrammar(t, seed)
		for _, s := range schedules {
			opts := DefaultOptions()
			opts.Schedule = s.algo
			out, err := New(reg, opts).Explain(a, 0, nil)
			if err != nil {
				out = "error: " + err.Error()
			}
			fmt.Fprintf(&b, "%d %s %x\n", seed, s.name, sha256.Sum256([]byte(out)))
		}
	}
	checkGolden(t, "explain-randaig.golden", b.String())
}

// randomSeeds is the number of randaig seeds the random-grammar plan
// tests cover, from seed 1.
const randomSeeds = 400

var schedules = []struct {
	name string
	algo ScheduleAlgo
}{{"level", ScheduleLevel}, {"fifo", ScheduleFIFO}}

// randomGrammar is randaig's instance of seed as the differential oracle
// evaluates it: constraints compiled to guards, queries decomposed,
// recursion unfolded to the instance's safe depth, and a registry over
// its catalog.
func randomGrammar(t *testing.T, seed int64) (*aig.AIG, *source.Registry) {
	t.Helper()
	_, a, reg := randomInstance(t, seed)
	return a, reg
}

// randomInstance is randomGrammar with the randaig instance it is of.
func randomInstance(t *testing.T, seed int64) (*randaig.Instance, *aig.AIG, *source.Registry) {
	t.Helper()
	inst, err := randaig.Generate(seed, randaig.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	a, err := specialize.CompileConstraints(inst.AIG)
	if err != nil {
		t.Fatal(err)
	}
	if a, err = specialize.DecomposeQueries(a, inst.Schemas(), inst.Stats(), sqlmini.PlanOptions{}); err != nil {
		t.Fatal(err)
	}
	if a, err = specialize.Unfold(a, inst.UnfoldDepth); err != nil {
		t.Fatal(err)
	}
	return inst, a, source.RegistryFromCatalog(inst.Catalog)
}

// checkGolden compares got with testdata/name, or rewrites the file under
// -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(want) == got {
		return
	}
	// Name the first differing line; when every line of the shorter side
	// matches, the two differ only in length or trailing newlines.
	wl, gl := strings.Split(string(want), "\n"), strings.Split(got, "\n")
	for i := 0; i < min(len(wl), len(gl)); i++ {
		if wl[i] != gl[i] {
			t.Errorf("%s line %d differs from the golden rendering:\n--- want\n%s\n--- got\n%s", name, i+1, wl[i], gl[i])
			return
		}
	}
	t.Errorf("%s differs from the golden rendering in length or trailing newlines: want %d lines (%d bytes), got %d lines (%d bytes)",
		name, len(wl), len(want), len(gl), len(got))
}
