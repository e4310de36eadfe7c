package mediator

import (
	"context"
	"strings"
	"testing"

	"github.com/aigrepro/aig/internal/aig"
	"github.com/aigrepro/aig/internal/hospital"
	"github.com/aigrepro/aig/internal/source"
	"github.com/aigrepro/aig/internal/specialize"
	"github.com/aigrepro/aig/internal/sqlmini"
	"github.com/aigrepro/aig/internal/xmltree"
	"github.com/aigrepro/aig/internal/xpath"
)

// fragmentOf settles grammar a pruned to the verdict of path expr and streams the
// path's matches, returning their bytes and the run's report.
func fragmentOf(t *testing.T, m *Mediator, a *aig.AIG, inh *aig.AttrValue, est int, expr string) (string, Report) {
	t.Helper()
	p, err := xpath.Parse(expr)
	if err != nil {
		t.Fatal(err)
	}
	c, err := xpath.Compile(a, p)
	if err != nil {
		t.Fatal(err)
	}
	r, _, err := m.Settle(context.Background(), a, inh, est, 64, c.Verdict(a))
	if err != nil {
		t.Fatalf("%s: %v", expr, err)
	}
	var b strings.Builder
	s := xpath.NewStream(p, &b)
	if err := r.Tag(s); err != nil || s.Err() != nil {
		t.Fatalf("%s: tag %v, stream %v", expr, err, s.Err())
	}
	return b.String(), r.Report
}

// selected is the post-hoc reference: the path's matches in a whole
// document, serialized.
func selected(t *testing.T, doc *xmltree.Node, expr string) string {
	t.Helper()
	p, err := xpath.Parse(expr)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, n := range xpath.Select(doc, p) {
		if err := n.WriteIndented(&b); err != nil {
			t.Fatal(err)
		}
	}
	return b.String()
}

// TestPrunedPlanMatchesSelect requires a plan pruned to a path's
// verdict, streamed through the path sink, to write exactly the matches
// Select finds in the whole document: on the recursive hospital view
// (unfolded by the mediator, so replica types are judged as the types
// they replicate) and on the choice fixture, for paths with and without
// predicates. Every pruned plan issues at most the document's queries,
// and one that keeps only patients' SSNs issues one.
func TestPrunedPlanMatchesSelect(t *testing.T) {
	cat := hospital.TinyCatalog()
	reg := source.RegistryFromCatalog(cat)
	hosp, err := specialize.DecomposeQueries(hospital.Sigma0(false), reg, reg, sqlmini.PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	choice, ccat := choiceFixture(t)
	for _, tc := range []struct {
		name  string
		m     *Mediator
		a     *aig.AIG
		inh   *aig.AttrValue
		est   int
		exprs []string
	}{
		{"hospital", New(reg, DefaultOptions()), hosp, hospital.RootInh(hosp, "d1"), 2, []string{
			"/report", "/report/patient", "/report/patient/SSN", "//SSN", "/report/patient/bill",
			"//treatment/tname", "//trId", "//procedure//trId", "//treatment[2]", "/report/*",
			"//patient[pname='alice']/bill", "//treatment[trId='t2']/procedure", "//patient[treatments='']",
			"/report/patient[2]/bill/item[1]", "/report/patient[1]/treatments", "//*[1]", "/nothing", "//item/price",
		}},
		{"choice", New(source.RegistryFromCatalog(ccat), DefaultOptions()), choice, nil, 0, []string{
			"/results", "//cheap", "//pricey", "/results/result[2]", "//result[cheap='t3']", "/results/result/*",
		}},
	} {
		full, _, err := tc.m.Settle(context.Background(), tc.a, tc.inh, tc.est, 64, nil)
		if err != nil {
			t.Fatal(err)
		}
		doc, err := full.Tree()
		if err != nil {
			t.Fatal(err)
		}
		for _, expr := range tc.exprs {
			got, rep := fragmentOf(t, tc.m, tc.a, tc.inh, tc.est, expr)
			if want := selected(t, doc, expr); got != want {
				t.Errorf("%s %s: pruned plan + stream differs from Select\ngot:\n%s\nwant:\n%s", tc.name, expr, got, want)
			}
			if rep.SourceQueryCount > full.Report.SourceQueryCount {
				t.Errorf("%s %s: pruned plan issues %d queries, the document %d", tc.name, expr, rep.SourceQueryCount, full.Report.SourceQueryCount)
			}
			if expr == "/report/patient/SSN" && rep.SourceQueryCount != 1 {
				t.Errorf("%s: %d source queries, want 1 (the patient query)", expr, rep.SourceQueryCount)
			}
		}
	}
}

// dropEdge is a verdict that also drops one edge its base keeps.
type dropEdge struct {
	Verdict
	parent, child string
}

func (d dropEdge) Keep(parent, child string) bool {
	return !(parent == d.parent && child == d.child) && d.Verdict.Keep(parent, child)
}

// TestPrunedPlanRejectsUnsoundVerdicts: a verdict that keeps a
// context but drops a sibling whose Syn feeds its Inh fails to compile
// instead of computing the Inh from a partial Syn, and a grammar with
// guards cannot be pruned.
func TestPrunedPlanRejectsUnsoundVerdicts(t *testing.T) {
	cat := hospital.TinyCatalog()
	reg := source.RegistryFromCatalog(cat)
	a, err := specialize.DecomposeQueries(hospital.Sigma0(false), reg, reg, sqlmini.PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := xpath.Compile(a, mustXPath(t, "/report/patient/bill"))
	if err != nil {
		t.Fatal(err)
	}
	v := c.Verdict(a)
	if !v.Keep("patient", "treatments") {
		t.Fatal("bill reads Syn(treatments): the verdict must keep treatments")
	}
	_, _, err = New(reg, DefaultOptions()).Settle(context.Background(), a, hospital.RootInh(a, "d1"), 2, 64,
		dropEdge{v, "treatment", "trId"})
	if err == nil || !strings.Contains(err.Error(), "pruned") {
		t.Errorf("dropping trId below bill's Syn source: err = %v, want a pruned-Syn error", err)
	}

	guarded, err := specialize.CompileConstraints(hospital.Sigma0(true))
	if err != nil {
		t.Fatal(err)
	}
	if guarded, err = specialize.DecomposeQueries(guarded, reg, reg, sqlmini.PlanOptions{}); err != nil {
		t.Fatal(err)
	}
	_, _, err = New(reg, DefaultOptions()).Settle(context.Background(), guarded, hospital.RootInh(guarded, "d1"), 2, 64, v)
	if err == nil || !strings.Contains(err.Error(), "guards") {
		t.Errorf("pruning a guarded grammar: err = %v, want a guards error", err)
	}
}

func mustXPath(t *testing.T, expr string) *xpath.Path {
	t.Helper()
	p, err := xpath.Parse(expr)
	if err != nil {
		t.Fatal(err)
	}
	return p
}
