package mediator

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"github.com/aigrepro/aig/internal/aig"
	"github.com/aigrepro/aig/internal/dtd"
	"github.com/aigrepro/aig/internal/hospital"
	"github.com/aigrepro/aig/internal/ivm"
	"github.com/aigrepro/aig/internal/relstore"
	"github.com/aigrepro/aig/internal/source"
	"github.com/aigrepro/aig/internal/specialize"
	"github.com/aigrepro/aig/internal/sqlmini"
	"github.com/aigrepro/aig/internal/xconstraint"
	"github.com/aigrepro/aig/internal/xmltree"
)

// prepared builds the specialized hospital AIG (constraints compiled,
// queries decomposed, recursion unfolded) plus the conceptual-evaluation
// reference document for a date.
func prepared(t *testing.T, cat *relstore.Catalog, depth int, withConstraints bool) (*aig.AIG, *source.Registry) {
	t.Helper()
	a := hospital.Sigma0(withConstraints)
	var err error
	if withConstraints {
		a, err = specialize.CompileConstraints(a)
		if err != nil {
			t.Fatal(err)
		}
	}
	schemas := sqlmini.CatalogSchemas{Catalog: cat}
	stats := sqlmini.CatalogStats{Catalog: cat}
	a, err = specialize.DecomposeQueries(a, schemas, stats, sqlmini.PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	a, err = specialize.Unfold(a, depth)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(schemas); err != nil {
		t.Fatalf("prepared AIG invalid: %v", err)
	}
	return a, source.RegistryFromCatalog(cat)
}

func conceptualDoc(t *testing.T, a *aig.AIG, cat *relstore.Catalog, date string) *xmltree.Node {
	t.Helper()
	env := hospital.EnvFor(cat)
	doc, err := a.Eval(env, hospital.RootInh(a, date))
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestMediatorMatchesConceptual is the central equivalence property: the
// set-oriented mediator produces exactly the document the conceptual
// evaluator produces, under every combination of optimizations.
func TestMediatorMatchesConceptual(t *testing.T) {
	cat := hospital.TinyCatalog()
	a, reg := prepared(t, cat, 4, true)
	want := conceptualDoc(t, a, cat, "d1")

	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"all-off", Options{Net: DefaultNet(), Schedule: ScheduleFIFO}},
		{"merge", Options{Net: DefaultNet(), Merge: true, Schedule: ScheduleFIFO}},
		{"level-schedule", Options{Net: DefaultNet(), Schedule: ScheduleLevel}},
		{"copyelim", Options{Net: DefaultNet(), CopyElim: true, Schedule: ScheduleFIFO}},
		{"all-on", DefaultOptions()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := New(reg, tc.opts)
			res, err := m.Evaluate(a, hospital.RootInh(a, "d1"))
			if err != nil {
				t.Fatalf("mediator: %v", err)
			}
			if !want.Equal(res.Doc) {
				t.Errorf("mediator document differs from conceptual:\nwant:\n%s\ngot:\n%s", want, res.Doc)
			}
			if res.Report.ResponseTimeSec <= 0 {
				t.Errorf("response time = %v", res.Report.ResponseTimeSec)
			}
			if res.Report.SourceQueryCount == 0 {
				t.Error("no source queries recorded")
			}
		})
	}
}

func TestMediatorOutputValid(t *testing.T) {
	cat := hospital.TinyCatalog()
	a, reg := prepared(t, cat, 4, true)
	m := New(reg, DefaultOptions())
	res, err := m.Evaluate(a, hospital.RootInh(a, "d1"))
	if err != nil {
		t.Fatal(err)
	}
	if err := dtd.Conforms(hospital.Schema(), res.Doc); err != nil {
		t.Errorf("mediator output violates original DTD: %v", err)
	}
	if v := xconstraint.CheckAll(hospital.Constraints(), res.Doc); len(v) != 0 {
		t.Errorf("mediator output violates constraints: %v", v)
	}
}

func TestMediatorEmptyDate(t *testing.T) {
	cat := hospital.TinyCatalog()
	a, reg := prepared(t, cat, 2, false)
	m := New(reg, DefaultOptions())
	res, err := m.Evaluate(a, hospital.RootInh(a, "d999"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Doc.Descendants("patient")) != 0 {
		t.Errorf("empty date produced patients:\n%s", res.Doc)
	}
}

func TestMediatorGuardAborts(t *testing.T) {
	cat := hospital.TinyCatalog()
	// Duplicate billing row violates the key constraint.
	billing, err := cat.Table("DB3", "billing")
	if err != nil {
		t.Fatal(err)
	}
	billing.MustInsert(relstore.Tuple{relstore.String("t1"), relstore.Int(12)})

	a, reg := prepared(t, cat, 4, true)
	m := New(reg, DefaultOptions())
	_, err = m.Evaluate(a, hospital.RootInh(a, "d1"))
	if err == nil {
		t.Fatal("constraint violation not detected")
	}
	if !strings.Contains(err.Error(), "unique") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestMediatorRejectsRecursive(t *testing.T) {
	cat := hospital.TinyCatalog()
	a := hospital.Sigma0(false)
	m := New(source.RegistryFromCatalog(cat), DefaultOptions())
	if _, err := m.Evaluate(a, hospital.RootInh(a, "d1")); err == nil || !strings.Contains(err.Error(), "recursive") {
		t.Errorf("recursive AIG accepted by Evaluate: %v", err)
	}
}

func TestEvaluateRecursive(t *testing.T) {
	cat := hospital.TinyCatalog()
	a := hospital.Sigma0(true)
	sa, err := specialize.CompileConstraints(a)
	if err != nil {
		t.Fatal(err)
	}
	sa, err = specialize.DecomposeQueries(sa, sqlmini.CatalogSchemas{Catalog: cat}, sqlmini.CatalogStats{Catalog: cat}, sqlmini.PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	reg := source.RegistryFromCatalog(cat)
	m := New(reg, DefaultOptions())

	// Starting at depth 1 must re-unroll until the 3-level hierarchy fits.
	res, depth, err := m.EvaluateRecursive(sa, hospital.RootInh(sa, "d1"), 1, 32)
	if err != nil {
		t.Fatal(err)
	}
	if depth < 3 {
		t.Errorf("converged at depth %d, want >= 3", depth)
	}
	want := conceptualDoc(t, a, cat, "d1")
	if !want.Equal(res.Doc) {
		t.Errorf("recursive evaluation differs:\n%s\n%s", want, res.Doc)
	}

	// A generous first estimate converges immediately.
	_, depth2, err := m.EvaluateRecursive(sa, hospital.RootInh(sa, "d1"), 8, 32)
	if err != nil {
		t.Fatal(err)
	}
	if depth2 != 8 {
		t.Errorf("depth = %d, want 8", depth2)
	}

	// Cyclic data never converges and errors out at maxDepth.
	proc, err := cat.Table("DB4", "procedure")
	if err != nil {
		t.Fatal(err)
	}
	proc.MustInsert(relstore.Tuple{relstore.String("t5"), relstore.String("t2")})
	if _, _, err := m.EvaluateRecursive(sa, hospital.RootInh(sa, "d1"), 1, 8); err == nil {
		t.Error("cyclic data did not error")
	}
}

func TestMergeReducesEstimatedCost(t *testing.T) {
	cat := hospital.TinyCatalog()
	a, reg := prepared(t, cat, 3, true)

	off := New(reg, Options{Net: DefaultNet(), Schedule: ScheduleLevel})
	on := New(reg, Options{Net: DefaultNet(), Schedule: ScheduleLevel, Merge: true})

	resOff, err := off.Evaluate(a, hospital.RootInh(a, "d1"))
	if err != nil {
		t.Fatal(err)
	}
	resOn, err := on.Evaluate(a, hospital.RootInh(a, "d1"))
	if err != nil {
		t.Fatal(err)
	}
	if resOn.Report.MergedGroups == 0 {
		t.Error("merging found no beneficial pairs on the unfolded hospital AIG")
	}
	if resOn.Report.SourceQueryCount >= resOff.Report.SourceQueryCount {
		t.Errorf("merging did not reduce query count: %d -> %d",
			resOff.Report.SourceQueryCount, resOn.Report.SourceQueryCount)
	}
	if resOn.Report.ResponseTimeSec > resOff.Report.ResponseTimeSec*1.10 {
		t.Errorf("merged plan slower: %.4fs vs %.4fs",
			resOn.Report.ResponseTimeSec, resOff.Report.ResponseTimeSec)
	}
}

// choiceFixture is the conceptual evaluator's choice grammar with a star
// above it, so the mediator exercises per-instance branching: three
// results (t1, t2, t3) taking branches cheap, pricey, cheap.
func choiceFixture(t *testing.T) (*aig.AIG, *relstore.Catalog) {
	t.Helper()
	d := dtd.MustParse(`
		<!ELEMENT results (result*)>
		<!ELEMENT result (cheap | pricey)>
		<!ELEMENT cheap (#PCDATA)>
		<!ELEMENT pricey (#PCDATA)>
	`)
	cat := relstore.NewCatalog()
	db := relstore.NewDatabase("DB")
	bands := db.CreateTable("bands", relstore.MustSchema("trId:string", "band:int"))
	bands.MustInsert(relstore.Tuple{relstore.String("t1"), relstore.Int(1)})
	bands.MustInsert(relstore.Tuple{relstore.String("t2"), relstore.Int(2)})
	bands.MustInsert(relstore.Tuple{relstore.String("t3"), relstore.Int(1)})
	cat.Add(db)

	a := aig.New(d)
	a.Inh["results"] = aig.Attr()
	a.Inh["result"] = aig.Attr(aig.StringMember("trId"))
	a.Inh["cheap"] = aig.Attr(aig.StringMember("val"))
	a.Inh["pricey"] = aig.Attr(aig.StringMember("val"))
	a.Rules["results"] = &aig.Rule{
		Elem: "results",
		Inh: map[string]*aig.InhRule{
			"result": {Child: "result", Query: sqlmini.MustParse(`select trId from DB:bands`)},
		},
	}
	a.Rules["result"] = &aig.Rule{
		Elem:       "result",
		Cond:       sqlmini.MustParse(`select band from DB:bands where trId = $v.trId`),
		CondParams: aig.ParamMap("v", aig.InhOf("result", "")),
		Branches: []aig.Branch{
			{Inh: &aig.InhRule{Child: "cheap", Copies: []aig.CopyAssign{aig.Copy("val", aig.InhOf("result", "trId"))}}},
			{Inh: &aig.InhRule{Child: "pricey", Copies: []aig.CopyAssign{aig.Copy("val", aig.InhOf("result", "trId"))}}},
		},
	}
	a.Rules["cheap"] = &aig.Rule{Elem: "cheap", TextSrc: aig.InhOf("cheap", "val")}
	a.Rules["pricey"] = &aig.Rule{Elem: "pricey", TextSrc: aig.InhOf("pricey", "val")}

	if err := a.Validate(sqlmini.CatalogSchemas{Catalog: cat}); err != nil {
		t.Fatal(err)
	}
	return a, cat
}

func TestChoiceInMediator(t *testing.T) {
	a, cat := choiceFixture(t)
	env := &aig.Env{
		Schemas: sqlmini.CatalogSchemas{Catalog: cat},
		Data:    sqlmini.CatalogData{Catalog: cat},
		Stats:   sqlmini.CatalogStats{Catalog: cat},
	}
	want, err := a.Eval(env, nil)
	if err != nil {
		t.Fatal(err)
	}

	m := New(source.RegistryFromCatalog(cat), DefaultOptions())
	res, err := m.Evaluate(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !want.Equal(res.Doc) {
		t.Errorf("choice documents differ:\n%s\n%s", want, res.Doc)
	}
	if got := len(res.Doc.Descendants("cheap")); got != 2 {
		t.Errorf("%d cheap elements, want 2\n%s", got, res.Doc)
	}
	if got := len(res.Doc.Descendants("pricey")); got != 1 {
		t.Errorf("%d pricey elements, want 1", got)
	}
}

// TestChoiceConditionRows gives a choice condition several rows for one
// instance (and the star above it a second instance with the same trId).
// Rows that agree select their branch, as aig.Eval selects it; rows that
// disagree fail the evaluation naming the instance by its Inh.
func TestChoiceConditionRows(t *testing.T) {
	for _, tc := range []struct {
		name    string
		band    int64
		wantErr string
	}{
		{"agree", 1, ""},
		{"disagree", 2, "for the instance with Inh (trId='t1')"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, cat := choiceFixture(t)
			bands, err := cat.Table("DB", "bands")
			if err != nil {
				t.Fatal(err)
			}
			bands.MustInsert(relstore.Tuple{relstore.String("t1"), relstore.Int(tc.band)})
			res, err := New(source.RegistryFromCatalog(cat), DefaultOptions()).Evaluate(a, nil)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("error %v, want one containing %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			want, err := a.Eval(&aig.Env{
				Schemas: sqlmini.CatalogSchemas{Catalog: cat},
				Data:    sqlmini.CatalogData{Catalog: cat},
				Stats:   sqlmini.CatalogStats{Catalog: cat},
			}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !want.Equal(res.Doc) {
				t.Errorf("documents differ:\n%s\n%s", want, res.Doc)
			}
			if got := len(res.Doc.Descendants("cheap")); got != 3 {
				t.Errorf("%d cheap elements, want 3\n%s", got, res.Doc)
			}
		})
	}
}

// TestMultiSourceQueryInChoiceBranch: a choice branch's query reading
// two sources is decomposed like any other child query, so the mediator
// renders the grammar as aig.Eval does, and the dependency map the
// refresher judges by covers the second source's table.
func TestMultiSourceQueryInChoiceBranch(t *testing.T) {
	a, cat := choiceFixture(t)
	db2 := relstore.NewDatabase("DB2")
	names := db2.CreateTable("names", relstore.MustSchema("trId:string", "name:string"))
	for _, r := range [][2]string{{"t1", "one"}, {"t2", "two"}, {"t3", "three"}} {
		names.MustInsert(relstore.Tuple{relstore.String(r[0]), relstore.String(r[1])})
	}
	cat.Add(db2)
	a.Rules["result"].Branches[0].Inh = &aig.InhRule{
		Child: "cheap",
		Query: sqlmini.MustParse(`select n.name as val from DB:bands b, DB2:names n
			where b.trId = n.trId and b.trId = $v.trId`),
		QueryParams: aig.ParamMap("v", aig.InhOf("result", "")),
	}
	schemas, stats := sqlmini.CatalogSchemas{Catalog: cat}, sqlmini.CatalogStats{Catalog: cat}
	if err := a.Validate(schemas); err != nil {
		t.Fatal(err)
	}
	want, err := a.Eval(&aig.Env{Schemas: schemas, Data: sqlmini.CatalogData{Catalog: cat}, Stats: stats}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sa, err := specialize.DecomposeQueries(a, schemas, stats, sqlmini.PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	deps, err := ivm.Extract(sa, schemas)
	if err != nil {
		t.Fatal(err)
	}
	if !deps.DependsOn("DB2", "names") {
		t.Error("dependency map misses DB2:names, which the cheap branch reads")
	}
	if got := fmt.Sprint(sa.QuerySources()); got != "[DB DB2]" {
		t.Errorf("query sources %s, want [DB DB2]", got)
	}
	res, err := New(source.RegistryFromCatalog(cat), DefaultOptions()).Evaluate(sa, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Doc.String(), want.String(); got != want {
		t.Errorf("mediator document differs from aig.Eval's:\n%s\n%s", got, want)
	}
	if !strings.Contains(want.String(), "<cheap>one</cheap>") {
		t.Errorf("cheap branch not read from DB2:\n%s", want)
	}
}

func TestContextTreeDisambiguatesSharedTypes(t *testing.T) {
	// trId appears under treatment and item; contexts must be distinct
	// nodes (Fig. 6), keeping the dependency graph acyclic.
	cat := hospital.TinyCatalog()
	a, reg := prepared(t, cat, 2, true)
	g, err := compile(context.Background(), a, reg, DefaultOptions(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !isAcyclic(g.nodes) {
		t.Fatal("compiled graph is cyclic")
	}
	trIdCtxs := 0
	var walk func(c *ctxNode)
	walk = func(c *ctxNode) {
		if c.elem == "trId" {
			trIdCtxs++
		}
		for _, ch := range c.children {
			walk(ch)
		}
	}
	walk(g.root)
	if trIdCtxs < 3 {
		t.Errorf("trId appears in %d contexts, want >= 3 (per treatment level + item)", trIdCtxs)
	}
}

func TestScheduleConsistentWithDependencies(t *testing.T) {
	cat := hospital.TinyCatalog()
	a, reg := prepared(t, cat, 3, true)
	for _, algo := range []ScheduleAlgo{ScheduleLevel, ScheduleFIFO} {
		g, err := compile(context.Background(), a, reg, Options{Net: DefaultNet(), Schedule: algo}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		p := schedule(g.nodes, DefaultNet(), algo)
		pos := make(map[*node]int)
		for _, seq := range p.order {
			for i, n := range seq {
				pos[n] = i
			}
		}
		for _, e := range g.edges {
			if e.from.source == e.to.source && pos[e.from] >= pos[e.to] {
				t.Fatalf("algo %v: schedule violates dependency %s -> %s", algo, e.from.name, e.to.name)
			}
		}
	}
}

func TestNetModelTransCost(t *testing.T) {
	n := DefaultNet()
	if n.TransCost("DB1", "DB1", 1000) != 0 {
		t.Error("same-site transfer not free")
	}
	med := n.TransCost("DB1", MediatorSource, 125000)
	if med <= 1.0 || med >= 1.1 {
		t.Errorf("1 Mbps shipment of 125000 bytes = %.3fs, want ~1s", med)
	}
	cross := n.TransCost("DB1", "DB2", 125000)
	if cross <= med {
		t.Error("source-to-source transfer should pay the double hop via the mediator")
	}
}

func TestExplain(t *testing.T) {
	cat := hospital.TinyCatalog()
	a, reg := prepared(t, cat, 3, true)
	m := New(reg, DefaultOptions())
	out, err := m.Explain(a)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"dependency graph:", "estimated response time:", "DB1:", "DB3:", "Mediator:",
		"merged groups", "shipped",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain output missing %q:\n%s", want, out)
		}
	}
	// Explain must not execute anything: evaluating afterwards still works
	// and Explain is repeatable.
	if _, err := m.Explain(a); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Evaluate(a, hospital.RootInh(a, "d1")); err != nil {
		t.Fatal(err)
	}
}
