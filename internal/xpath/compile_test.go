package xpath_test

import (
	"strings"
	"testing"

	"github.com/aigrepro/aig/internal/aig"
	"github.com/aigrepro/aig/internal/hospital"
	"github.com/aigrepro/aig/internal/specialize"
	"github.com/aigrepro/aig/internal/sqlmini"
	"github.com/aigrepro/aig/internal/xmltree"
	"github.com/aigrepro/aig/internal/xpath"
)

// render concatenates the canonical rendering of a match list — the
// byte-equality currency of fragment differential testing.
func render(t *testing.T, ns []*xmltree.Node) string {
	t.Helper()
	var b strings.Builder
	for _, n := range ns {
		if err := n.WriteIndented(&b); err != nil {
			t.Fatal(err)
		}
	}
	return b.String()
}

// evalFragment runs the partial evaluator over the hospital grammar for
// one path and returns the emitted matches plus the query count.
func evalFragment(t *testing.T, a *aig.AIG, date, expr string) ([]*xmltree.Node, int) {
	t.Helper()
	c, err := xpath.Compile(a, mustParse(t, expr))
	if err != nil {
		t.Fatalf("Compile(%s): %v", expr, err)
	}
	env := hospital.EnvFor(hospital.TinyCatalog())
	env.Counters = &aig.Counters{}
	var got []*xmltree.Node
	err = a.EvalPartial(env, hospital.RootInh(a, date), c.NewCursor(), func(n *xmltree.Node) error {
		got = append(got, n)
		return nil
	})
	if err != nil {
		t.Fatalf("EvalPartial(%s): %v", expr, err)
	}
	return got, env.Counters.QueriesRun
}

// TestPartialMatchesOracle is the core equivalence property: for every
// path, partial evaluation emits byte-identical fragments to rendering
// the whole document and filtering post hoc.
func TestPartialMatchesOracle(t *testing.T) {
	a := hospital.Sigma0(false) // fragment grammars are guard-free
	env := hospital.EnvFor(hospital.TinyCatalog())
	env.Counters = &aig.Counters{}
	doc, err := a.Eval(env, hospital.RootInh(a, "d1"))
	if err != nil {
		t.Fatal(err)
	}
	fullQueries := env.Counters.QueriesRun
	aliceSSN := ""
	for _, p := range doc.Descendants("patient") {
		if p.Child("pname").StringValue() == "alice" {
			aliceSSN = p.Child("SSN").StringValue()
		}
	}
	if aliceSSN == "" {
		t.Fatal("alice missing from full document")
	}

	exprs := []string{
		"/report",
		"//report",
		"/report/patient",
		"//patient",
		"/report/patient/SSN",
		"//SSN",
		"//trId",
		"//treatment",
		"//treatment[1]",
		"//treatment[2]",
		"/report/patient[1]",
		"/report/patient[2]/bill",
		"/report/patient[2]/bill/item[2]",
		"//procedure/treatment",
		"//procedure//trId",
		"/report/patient/treatments/treatment/procedure",
		"/report/*",
		"//*[1]",
		"//patient[SSN='" + aliceSSN + "']", // pushdownable equality
		"//patient[SSN='" + aliceSSN + "']/treatments/treatment", // prune other patients
		"//patient[SSN='nobody']",
		"//patient[pname='alice']/bill",
		"//treatment[trId='t2']/procedure",
		"//item[trId='t4']",
		"//patient[treatments='']",  // not pushdownable: FragVerify
		"//patient[bill='x']",       // not pushdownable either
		"//treatment[procedure='']", // recursion + verify
		"/report/patient[3]/bill",   // positional prune
		"/nothing",
		"//nothing",
		"/report/patient/nothing",
	}
	for _, expr := range exprs {
		want := render(t, xpath.Select(doc, mustParse(t, expr)))
		got, queries := evalFragment(t, a, "d1", expr)
		if g := render(t, got); g != want {
			t.Errorf("%s: partial != oracle\npartial:\n%s\noracle:\n%s", expr, g, want)
		}
		if queries > fullQueries {
			t.Errorf("%s: partial ran %d queries, full evaluation only %d", expr, queries, fullQueries)
		}
	}
}

// TestPartialPrunesQueries pins the performance contract: a path that
// only needs one patient's identity runs strictly fewer queries than a
// full evaluation (skipped subtrees never touch the sources).
func TestPartialPrunesQueries(t *testing.T) {
	a := hospital.Sigma0(false)
	env := hospital.EnvFor(hospital.TinyCatalog())
	env.Counters = &aig.Counters{}
	if _, err := a.Eval(env, hospital.RootInh(a, "d1")); err != nil {
		t.Fatal(err)
	}
	full := env.Counters.QueriesRun

	_, partial := evalFragment(t, a, "d1", "/report/patient/SSN")
	if partial >= full {
		t.Errorf("fragment evaluation ran %d queries, full ran %d — no pruning", partial, full)
	}

	// A path that cannot match anything below the root skips every query.
	_, none := evalFragment(t, a, "d1", "/nothing")
	if none != 0 {
		t.Errorf("unmatchable path ran %d queries, want 0", none)
	}
}

func TestCompileEmptyPath(t *testing.T) {
	a := hospital.Sigma0(false)
	if _, err := xpath.Compile(a, &xpath.Path{}); err == nil {
		t.Fatal("Compile accepted an empty path")
	}
}

// TestPartialRejectsGuards pins the guard-free precondition: grammars
// with compiled constraint guards must be refused, not half-evaluated.
func TestPartialRejectsGuards(t *testing.T) {
	a := hospital.Sigma0(false)
	if a.Rules["report"] == nil {
		t.Skip("no report rule")
	}
	a.Rules["report"].Guards = append(a.Rules["report"].Guards, aig.Guard{})
	c, err := xpath.Compile(a, mustParse(t, "/report"))
	if err != nil {
		t.Fatal(err)
	}
	env := hospital.EnvFor(hospital.TinyCatalog())
	err = a.EvalPartial(env, hospital.RootInh(a, "d1"), c.NewCursor(), func(*xmltree.Node) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "guard-free") {
		t.Fatalf("EvalPartial on a guarded grammar: err = %v, want guard-free complaint", err)
	}
}

// TestLiveScans pins the fragment-dependency filter: a path that never
// leaves the patient's identity cannot depend on treatment, procedure,
// or billing scans, while the root path keeps every scan live.
func TestLiveScans(t *testing.T) {
	a := hospital.Sigma0(false)
	if err := a.Validate(sqlmini.CatalogSchemas{Catalog: hospital.TinyCatalog()}); err != nil {
		t.Fatal(err)
	}
	scans := specialize.TableScans(a)
	if len(scans) == 0 {
		t.Fatal("no table scans in the hospital grammar")
	}

	c, err := xpath.Compile(a, mustParse(t, "/report"))
	if err != nil {
		t.Fatal(err)
	}
	keep := c.Verdict(a).Keep
	for _, ts := range scans {
		if !keep(ts.Elem, ts.Child) {
			t.Errorf("/report drops scan (%s, %s) of %s:%s", ts.Elem, ts.Child, ts.Source, ts.Table)
		}
	}

	c, err = xpath.Compile(a, mustParse(t, "/report/patient/SSN"))
	if err != nil {
		t.Fatal(err)
	}
	keep = c.Verdict(a).Keep
	dead := map[string]bool{"treatments": true, "treatment": true, "procedure": true, "bill": true, "item": true}
	kept := 0
	for _, ts := range scans {
		live := keep(ts.Elem, ts.Child)
		if live {
			kept++
		}
		if live && (dead[ts.Elem] || dead[ts.Child]) {
			t.Errorf("/report/patient/SSN keeps scan (%s, %s) of %s:%s", ts.Elem, ts.Child, ts.Source, ts.Table)
		}
	}
	if kept == 0 {
		t.Error("/report/patient/SSN kept no scans at all (patient iteration must stay live)")
	}
}
