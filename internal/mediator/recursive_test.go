package mediator

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"github.com/aigrepro/aig/internal/aig"
	"github.com/aigrepro/aig/internal/hospital"
	"github.com/aigrepro/aig/internal/randaig"
	"github.com/aigrepro/aig/internal/relstore"
	"github.com/aigrepro/aig/internal/source"
	"github.com/aigrepro/aig/internal/specialize"
	"github.com/aigrepro/aig/internal/sqlmini"
)

// countingSource counts the queries a source executes.
type countingSource struct {
	source.Source
	execs *atomic.Int64
}

func (c countingSource) Exec(ctx context.Context, name string, q *sqlmini.Query, params sqlmini.Params, opts sqlmini.PlanOptions) (*relstore.Table, time.Duration, error) {
	c.execs.Add(1)
	return c.Source.Exec(ctx, name, q, params, opts)
}

// perInstanceBlocked is the reference truncation probe: the original star
// rule's query (or chain) run once per frontier instance of context c
// with that instance's bindings, tuple-at-a-time, the way the probe
// worked before it became set-oriented.
func perInstanceBlocked(t *testing.T, x *exec, cat *relstore.Catalog, ir *aig.InhRule, c *ctxNode) bool {
	t.Helper()
	if ir == nil {
		return len(x.st.rows(c)) > 0
	}
	schemas, data, stats := sqlmini.CatalogSchemas{Catalog: cat}, sqlmini.CatalogData{Catalog: cat}, sqlmini.CatalogStats{Catalog: cat}
	steps := ir.Chain
	if ir.Query != nil {
		steps = []*sqlmini.Query{ir.Query}
	}
	all := x.st.rows(c)
	for i := range all {
		var prev *relstore.Table
		for _, q := range steps {
			params := make(sqlmini.Params)
			for _, name := range q.Params() {
				if name == aig.PrevParam && prev != nil {
					params[name] = sqlmini.TableBinding(prev)
					continue
				}
				// A star rule's query reads only the instance's Inh.
				b, err := all[i].inh.MemberBinding(ir.QueryParams[name].Member)
				if err != nil {
					t.Fatal(err)
				}
				params[name] = b
			}
			out, err := sqlmini.Run("probe", q, schemas, data, stats, params, sqlmini.PlanOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if prev = out; out.Len() == 0 {
				break
			}
		}
		if prev != nil && prev.Len() > 0 {
			return true
		}
	}
	return false
}

// checkProbes evaluates grammar a at every depth up to maxDepth and, per
// truncated context, compares the set-at-a-time probe's verdict with the
// per-instance reference, and bounds the probe's cost: at most one source
// query per chain step per truncated context. It returns how many
// contexts were compared and how many of them were blocked.
func checkProbes(t *testing.T, a *aig.AIG, cat *relstore.Catalog, rootInh *aig.AttrValue, maxDepth int) (compared, blocked int) {
	t.Helper()
	var execs atomic.Int64
	reg := source.NewRegistry()
	for _, name := range cat.DatabaseNames() {
		db, err := cat.Database(name)
		if err != nil {
			t.Fatal(err)
		}
		reg.Add(countingSource{source.NewLocal(db), &execs})
	}
	m := New(reg, DefaultOptions())
	ctx := context.Background()
	for depth := 1; depth <= maxDepth; depth++ {
		_, truncated, err := specialize.UnfoldInfo(a, depth)
		if err != nil {
			t.Fatal(err)
		}
		rules := make(map[string]*aig.InhRule, len(truncated))
		for _, p := range truncated {
			rules[p.Type] = p.Rule
		}
		r, err := m.evaluate(ctx, a, depth, rootInh)
		var abort *aig.AbortError
		if errors.As(err, &abort) {
			continue // a truncated document may trip a guard; nothing to probe
		}
		if err != nil {
			t.Fatalf("depth %d: %v", depth, err)
		}
		x := r.x
		if len(x.g.probes) != 0 && len(truncated) == 0 {
			t.Fatalf("depth %d: probes compiled for an exact unfolding", depth)
		}
		any := false
		for _, pr := range x.g.probes {
			before := execs.Load()
			rows, err := x.probe(ctx, pr)
			if err != nil {
				t.Fatalf("depth %d: probe of %s: %v", depth, pr.ctx.path, err)
			}
			if used, most := execs.Load()-before, int64(len(pr.steps)); used > most {
				t.Errorf("depth %d: probe of %s issued %d source queries for %d instances, want <= %d",
					depth, pr.ctx.path, used, len(x.st.rows(pr.ctx)), most)
			}
			want := perInstanceBlocked(t, x, cat, rules[pr.ctx.elem], pr.ctx)
			if got := rows > 0; got != want {
				t.Errorf("depth %d: context %s (%d instances): set-at-a-time probe says blocked=%v, per-instance probe %v",
					depth, pr.ctx.path, len(x.st.rows(pr.ctx)), got, want)
			}
			compared++
			if want {
				blocked, any = blocked+1, true
			}
		}
		got, err := x.anyBlocked(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if got != any {
			t.Errorf("depth %d: anyBlocked = %v, per-instance reference %v", depth, got, any)
		}
	}
	return compared, blocked
}

func specializedHospital(t *testing.T, cat *relstore.Catalog) *aig.AIG {
	t.Helper()
	a, err := specialize.CompileConstraints(hospital.Sigma0(true))
	if err != nil {
		t.Fatal(err)
	}
	a, err = specialize.DecomposeQueries(a, sqlmini.CatalogSchemas{Catalog: cat}, sqlmini.CatalogStats{Catalog: cat}, sqlmini.PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestSetProbeAgreesWithPerInstanceProbe covers the three regimes of
// runtime re-unrolling on the hospital data: truncated and blocked (depth
// below the procedure hierarchy's), truncated but exact (deep enough),
// and cyclic data (blocked at every depth).
func TestSetProbeAgreesWithPerInstanceProbe(t *testing.T) {
	cat := hospital.TinyCatalog()
	a := specializedHospital(t, cat)
	for _, date := range []string{"d1", "d2", "d9"} {
		compared, blocked := checkProbes(t, a, cat, hospital.RootInh(a, date), 5)
		if date == "d1" && (blocked == 0 || blocked == compared) {
			t.Errorf("date d1: %d of %d truncated contexts blocked; want both blocked and exact ones", blocked, compared)
		}
	}

	proc, err := cat.Table("DB4", "procedure")
	if err != nil {
		t.Fatal(err)
	}
	proc.MustInsert(relstore.Tuple{relstore.String("t5"), relstore.String("t2")})
	compared, blocked := checkProbes(t, a, cat, hospital.RootInh(a, "d1"), 6)
	if compared == 0 || blocked == 0 {
		t.Errorf("cyclic data: %d contexts compared, %d blocked", compared, blocked)
	}
}

// TestGuardAbortTrustedWhereUnfoldingIsExact: a guard abort is probed
// like a document. Below the depth the data needs it deepens; at the
// first depth with no blocked frontier instance it is reported, not
// re-unrolled up to maxDepth.
func TestGuardAbortTrustedWhereUnfoldingIsExact(t *testing.T) {
	cat := hospital.TinyCatalog()
	a := specializedHospital(t, cat)
	m := New(source.RegistryFromCatalog(cat), DefaultOptions())
	const maxDepth = 64
	_, need, err := m.EvaluateRecursive(a, hospital.RootInh(a, "d1"), 1, maxDepth)
	if err != nil {
		t.Fatal(err)
	}
	if need <= 1 || need >= maxDepth {
		t.Fatalf("clean data settles at depth %d; the test needs one strictly between 1 and %d", need, maxDepth)
	}

	// s1 visits t9 on d1, a treatment gold covers but nobody bills: the
	// inclusion guard fails at every depth.
	for _, ins := range []struct {
		db, table string
		row       []any
	}{
		{"DB4", "treatment", []any{"t9", "laser"}},
		{"DB2", "cover", []any{"gold", "t9"}},
		{"DB1", "visitInfo", []any{"s1", "t9", "d1"}},
	} {
		tab, err := cat.Table(ins.db, ins.table)
		if err != nil {
			t.Fatal(err)
		}
		if err := tab.InsertValues(ins.row...); err != nil {
			t.Fatal(err)
		}
	}
	for _, est := range []int{1, need} {
		_, depth, err := m.EvaluateRecursive(a, hospital.RootInh(a, "d1"), est, maxDepth)
		var abort *aig.AbortError
		if !errors.As(err, &abort) || depth != need {
			t.Errorf("from depth %d: err %v at depth %d; want a guard abort at depth %d", est, err, depth, need)
		}
	}
}

// TestSetProbeCorpusSeed75 replays the regression that once made
// EvaluateRecursive trust a truncation-induced guard abort: generated
// recursive grammar, several truncated types, guards that trip at shallow
// depths.
func TestSetProbeCorpusSeed75(t *testing.T) {
	data, err := os.ReadFile("../difftest/testdata/regressions/seed-75.json")
	if err != nil {
		t.Fatal(err)
	}
	var reg struct {
		Seed   int64          `json:"seed"`
		Config randaig.Config `json:"config"`
		Ops    []randaig.Op   `json:"ops"`
	}
	if err := json.Unmarshal(data, &reg); err != nil {
		t.Fatal(err)
	}
	inst, err := randaig.Generate(reg.Seed, reg.Config)
	if err != nil {
		t.Fatal(err)
	}
	if inst, err = inst.ApplyAll(reg.Ops); err != nil {
		t.Fatal(err)
	}
	a, err := specialize.CompileConstraints(inst.AIG)
	if err != nil {
		t.Fatal(err)
	}
	if a, err = specialize.DecomposeQueries(a, inst.Schemas(), inst.Stats(), sqlmini.PlanOptions{}); err != nil {
		t.Fatal(err)
	}
	if compared, _ := checkProbes(t, a, inst.Catalog, inst.RootInh, inst.UnfoldDepth+2); compared == 0 {
		t.Error("no truncated context compared")
	}

	// End to end: re-unrolling from depth 1 reproduces the conceptual
	// evaluation of the fully unfolded grammar.
	res, _, err := New(source.RegistryFromCatalog(inst.Catalog), DefaultOptions()).
		EvaluateRecursive(a, inst.RootInh, 1, inst.UnfoldDepth+2)
	unf, uerr := specialize.Unfold(a, inst.UnfoldDepth)
	if uerr != nil {
		t.Fatal(uerr)
	}
	want, werr := unf.Eval(inst.Env(), inst.RootInh)
	if (err == nil) != (werr == nil) {
		t.Fatalf("re-unrolled evaluation: %v, conceptual: %v", err, werr)
	}
	if err == nil && !want.Equal(res.Doc) {
		t.Errorf("re-unrolled document differs from the conceptual one:\n%s\n%s", want, res.Doc)
	}
}
