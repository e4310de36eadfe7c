package aig_test

import (
	"strings"
	"testing"

	"github.com/aigrepro/aig/internal/aig"
	"github.com/aigrepro/aig/internal/dtd"
	"github.com/aigrepro/aig/internal/hospital"
	"github.com/aigrepro/aig/internal/relstore"
	"github.com/aigrepro/aig/internal/sqlmini"
)

func TestSynExprStrings(t *testing.T) {
	cases := []struct {
		expr aig.SynExpr
		want string
	}{
		{aig.ScalarOf{Src: aig.InhOf("a", "x")}, "Inh(a).x"},
		{aig.CollectionOf{Src: aig.SynOf("b", "s")}, "Syn(b).s"},
		{aig.EmptyOf{}, "{}"},
		{aig.SingletonOf{Srcs: []aig.SourceRef{aig.SynOf("t", "v")}}, "{(Syn(t).v)}"},
		{aig.UnionOf{Terms: []aig.SynExpr{aig.EmptyOf{}, aig.CollectionOf{Src: aig.SynOf("b", "s")}}}, "{} U Syn(b).s"},
		{aig.CollectChildren{Child: "c", Member: "m"}, "collect(Syn(c).m)"},
	}
	for _, tc := range cases {
		if got := tc.expr.String(); got != tc.want {
			t.Errorf("String() = %q, want %q", got, tc.want)
		}
	}
	if aig.InhOf("a", "").String() != "Inh(a)" {
		t.Errorf("whole-attribute ref String = %q", aig.InhOf("a", "").String())
	}
	if aig.GuardUnique != (aig.Guard{Kind: aig.GuardUnique}).Kind {
		t.Error("guard kind mismatch")
	}
	g := aig.Guard{Kind: aig.GuardSubset, Sub: "a", Super: "b"}
	if g.String() != "subset(a, b)" {
		t.Errorf("guard String = %q", g.String())
	}
	if (aig.Guard{Kind: aig.GuardUnique, Member: "m"}).String() != "unique(m)" {
		t.Error("unique guard String wrong")
	}
}

func TestDeclStrings(t *testing.T) {
	d := aig.Attr(aig.StringMember("x"), aig.SetMember("s", "a:int"), aig.BagMember("b", "v"))
	s := d.String()
	for _, want := range []string{"x:string", "set s", "bag b"} {
		if !strings.Contains(s, want) {
			t.Errorf("decl String %q missing %q", s, want)
		}
	}
	if aig.Scalar.String() != "scalar" || aig.Set.String() != "set" || aig.Bag.String() != "bag" {
		t.Error("MemberKind strings wrong")
	}
	if aig.InhSide.String() != "Inh" || aig.SynSide.String() != "Syn" {
		t.Error("Side strings wrong")
	}
}

func TestAccessors(t *testing.T) {
	a := hospital.Sigma0(false)
	if a.InhDecl("patient").IsEmpty() || !a.SynDecl("patient").IsEmpty() {
		t.Error("decl accessors wrong")
	}
	if a.Rule("report") == nil || a.Rule("ghost") != nil {
		t.Error("Rule accessor wrong")
	}
	if a.Label("patient") != "patient" {
		t.Error("default label wrong")
	}
}

func TestSynExprsHelper(t *testing.T) {
	r := aig.SynExprs("a", aig.EmptyOf{}, "b", aig.CollectChildren{Child: "c", Member: "m"})
	if len(r.Exprs) != 2 {
		t.Errorf("SynExprs built %d entries", len(r.Exprs))
	}
}

// TestEmptyProduction exercises A -> ε with a synthesized attribute
// computed from Inh(A) (§3.1 case 5).
func TestEmptyProduction(t *testing.T) {
	d := dtd.MustParse(`<!ELEMENT a (b)> <!ELEMENT b EMPTY>`)
	g := aig.New(d)
	g.Inh["b"] = aig.Attr(aig.StringMember("v"))
	g.Syn["b"] = aig.Attr(aig.SetMember("s", "v:string"))
	g.Rules["a"] = &aig.Rule{
		Elem: "a",
		Inh: map[string]*aig.InhRule{
			"b": {Child: "b", Copies: []aig.CopyAssign{aig.Copy("v", aig.InhOf("a", "seed"))}},
		},
	}
	g.Inh["a"] = aig.Attr(aig.StringMember("seed"))
	g.Rules["b"] = &aig.Rule{
		Elem: "b",
		Syn:  aig.Syn1("s", aig.SingletonOf{Srcs: []aig.SourceRef{aig.InhOf("b", "v")}}),
	}
	cat := relstore.NewCatalog()
	if err := g.Validate(sqlmini.CatalogSchemas{Catalog: cat}); err != nil {
		t.Fatalf("empty-production AIG invalid: %v", err)
	}
	env := &aig.Env{
		Schemas: sqlmini.CatalogSchemas{Catalog: cat},
		Data:    sqlmini.CatalogData{Catalog: cat},
		Stats:   sqlmini.CatalogStats{Catalog: cat},
	}
	inh := aig.NewAttrValue(g.Inh["a"])
	if err := inh.SetScalar("seed", relstore.String("x")); err != nil {
		t.Fatal(err)
	}
	doc, err := g.Eval(env, inh)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Child("b") == nil || len(doc.Child("b").Children) != 0 {
		t.Errorf("empty production output wrong:\n%s", doc)
	}
	if err := dtd.Conforms(d, doc); err != nil {
		t.Error(err)
	}
}

// TestChainEvaluationInConceptual exercises runInhQuery's chain path
// directly with a hand-built two-step chain.
func TestChainEvaluationInConceptual(t *testing.T) {
	cat := hospital.TinyCatalog()
	a := hospital.Sigma0(false)
	// Replace Q4 with an equivalent 2-step chain: fetch the set, then
	// look up billing rows via $prev.
	ir := a.Rules["bill"].Inh["item"]
	ir.Query = nil
	ir.Chain = []*sqlmini.Query{
		sqlmini.MustParse(`select b.trId as k from DB3:billing b where b.trId in $V`),
		sqlmini.MustParse(`select b.trId, b.price from DB3:billing b, $prev P where b.trId = P.k`),
	}
	if err := a.Validate(sqlmini.CatalogSchemas{Catalog: cat}); err != nil {
		t.Fatalf("chain AIG invalid: %v", err)
	}
	got, err := a.Eval(hospital.EnvFor(cat), hospital.RootInh(a, "d1"))
	if err != nil {
		t.Fatal(err)
	}
	ref := hospital.Sigma0(false)
	want, err := ref.Eval(hospital.EnvFor(cat), hospital.RootInh(ref, "d1"))
	if err != nil {
		t.Fatal(err)
	}
	if !want.Equal(got) {
		t.Errorf("chain evaluation differs:\n%s\n%s", want, got)
	}
}

func TestBindScalarsFromRowErrors(t *testing.T) {
	decl := aig.Attr(aig.StringMember("a"), aig.StringMember("b"))
	v := aig.NewAttrValue(decl)
	// Arity mismatch with non-member column names.
	err := v.BindScalarsFromRow([]string{"a", "b"},
		relstore.MustSchema("x:string"), relstore.Tuple{relstore.String("1")})
	if err == nil {
		t.Error("arity mismatch accepted")
	}
	// Positional binding when names do not match but arity does.
	err = v.BindScalarsFromRow([]string{"a", "b"},
		relstore.MustSchema("x:string", "y:string"),
		relstore.Tuple{relstore.String("1"), relstore.String("2")})
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := v.Scalar("b"); got.AsString() != "2" {
		t.Errorf("positional binding: b = %v", got)
	}
}

func TestMemberBindingForms(t *testing.T) {
	decl := aig.Attr(aig.StringMember("a"), aig.SetMember("s", "v:string"))
	val := aig.NewAttrValue(decl)
	if err := val.SetScalar("a", relstore.String("x")); err != nil {
		t.Fatal(err)
	}
	if err := val.SetCollection("s", []relstore.Tuple{{relstore.String("p")}}); err != nil {
		t.Fatal(err)
	}
	whole, err := val.MemberBinding("")
	if err != nil || len(whole.Schema) != 1 || len(whole.Rows) != 1 {
		t.Errorf("whole binding = %+v, %v", whole, err)
	}
	scalar, err := val.MemberBinding("a")
	if err != nil || len(scalar.Rows) != 1 || scalar.Rows[0][0].AsString() != "x" {
		t.Errorf("scalar binding = %+v, %v", scalar, err)
	}
	coll, err := val.MemberBinding("s")
	if err != nil || len(coll.Rows) != 1 {
		t.Errorf("collection binding = %+v, %v", coll, err)
	}
	if _, err := val.MemberBinding("ghost"); err == nil {
		t.Error("missing member binding accepted")
	}
	if _, err := val.Scalar("ghost"); err == nil {
		t.Error("missing scalar accepted")
	}
	if _, err := val.Collection("ghost"); err == nil {
		t.Error("missing collection accepted")
	}
}

func TestValidateEmptyProductionErrors(t *testing.T) {
	d := dtd.MustParse(`<!ELEMENT a (b)> <!ELEMENT b EMPTY>`)
	g := aig.New(d)
	g.Syn["b"] = aig.Attr(aig.StringMember("v"))
	// Declared Syn with no rule at an empty production.
	if err := g.Validate(sqlmini.CatalogSchemas{Catalog: relstore.NewCatalog()}); err == nil {
		t.Error("empty production with uncomputed Syn accepted")
	}
}

func TestAttrValueStringAndEqual(t *testing.T) {
	decl := aig.Attr(aig.StringMember("a"), aig.SetMember("s", "v:string"))
	v1 := aig.NewAttrValue(decl)
	v2 := aig.NewAttrValue(decl)
	if !v1.Equal(v2) {
		t.Error("fresh values not equal")
	}
	if err := v1.SetCollection("s", []relstore.Tuple{{relstore.String("p")}}); err != nil {
		t.Fatal(err)
	}
	if v1.Equal(v2) {
		t.Error("different collections equal")
	}
	if !strings.Contains(v1.String(), "s=[1 rows]") {
		t.Errorf("String = %s", v1)
	}
}
