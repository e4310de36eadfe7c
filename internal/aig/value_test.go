package aig_test

import (
	"strings"
	"sync"
	"testing"

	"github.com/aigrepro/aig/internal/aig"
	"github.com/aigrepro/aig/internal/dtd"
	"github.com/aigrepro/aig/internal/relstore"
	"github.com/aigrepro/aig/internal/sqlmini"
)

func rowsOf(vals ...string) []relstore.Tuple {
	out := make([]relstore.Tuple, len(vals))
	for i, v := range vals {
		out[i] = relstore.Tuple{relstore.String(v)}
	}
	return out
}

// TestUnwrittenCollectionIsPrivateAndEmpty: a collection nobody wrote
// reads as empty, the read stores nothing, and two values never share
// the empty table a read hands out.
func TestUnwrittenCollectionIsPrivateAndEmpty(t *testing.T) {
	decl := aig.Attr(aig.StringMember("a"), aig.SetMember("s", "v:string"))
	v1, v2 := aig.NewAttrValue(decl), aig.NewAttrValue(decl)
	t1, err := v1.Collection("s")
	if err != nil || t1.Len() != 0 || !t1.Schema().Equal(relstore.MustSchema("v:string")) {
		t.Fatalf("unwritten collection = %v, %v", t1, err)
	}
	t2, _ := v2.Collection("s")
	if t1 == t2 {
		t.Fatal("two values share one unwritten collection")
	}
	t1.MustInsert(relstore.Tuple{relstore.String("leak")})
	for _, v := range []*aig.AttrValue{v1, v2} {
		if c, _ := v.Collection("s"); c.Len() != 0 {
			t.Errorf("write to a read-out table reached the value: %d rows", c.Len())
		}
		if b, err := v.MemberBinding("s"); err != nil || len(b.Rows) != 0 || len(b.Schema) != 1 {
			t.Errorf("unwritten binding = %+v, %v", b, err)
		}
	}
}

// TestAttrValueCloneIndependent: mutating either side of a clone leaves
// the other untouched, scalars and collections alike.
func TestAttrValueCloneIndependent(t *testing.T) {
	decl := aig.Attr(aig.StringMember("a"), aig.SetMember("s", "v:string"), aig.BagMember("b", "v:string"))
	v := aig.NewAttrValue(decl)
	_ = v.SetScalar("a", relstore.String("x"))
	_ = v.SetCollection("s", rowsOf("p", "q"))
	cl := v.Clone()
	if !cl.Equal(v) {
		t.Fatalf("clone %s differs from %s", cl, v)
	}
	_ = cl.SetScalar("a", relstore.String("y"))
	_ = cl.SetCollection("s", rowsOf("z"))
	_ = cl.SetCollection("b", rowsOf("w"))
	if got, _ := v.Scalar("a"); got.AsString() != "x" {
		t.Errorf("source scalar changed to %s", got)
	}
	if s, _ := v.Collection("s"); s.Len() != 2 {
		t.Errorf("source set has %d rows, want 2", s.Len())
	}
	if b, _ := v.Collection("b"); b.Len() != 0 {
		t.Errorf("source bag has %d rows, want 0", b.Len())
	}
	orig, _ := v.Collection("s")
	copied, _ := v.Clone().Collection("s")
	if orig == copied {
		t.Error("clone shares the source's table")
	}
}

// TestAttrValueEqualUnwrittenIsEmpty: an unwritten collection equals one
// written with no rows, and equality matches members by name.
func TestAttrValueEqualUnwrittenIsEmpty(t *testing.T) {
	decl := aig.Attr(aig.StringMember("a"), aig.SetMember("s", "v:string"))
	unwritten, empty := aig.NewAttrValue(decl), aig.NewAttrValue(decl)
	if err := empty.SetCollection("s", nil); err != nil {
		t.Fatal(err)
	}
	if !unwritten.Equal(empty) || !empty.Equal(unwritten) {
		t.Error("unwritten and written-empty collections differ")
	}
	reordered := aig.NewAttrValue(aig.Attr(aig.SetMember("s", "v:string"), aig.StringMember("a")))
	if !reordered.Equal(unwritten) {
		t.Error("member order affects equality")
	}
	renamed := aig.NewAttrValue(aig.Attr(aig.StringMember("a"), aig.SetMember("t", "v:string")))
	if renamed.Equal(unwritten) {
		t.Error("values over different members compare equal")
	}
}

// TestAttrValueStringFormat pins the debug rendering: scalars, then
// collections, each sorted by name (not by declaration order).
func TestAttrValueStringFormat(t *testing.T) {
	decl := aig.Attr(aig.SetMember("z", "v:string"), aig.StringMember("b"),
		aig.BagMember("c", "v:string"), aig.StringMember("a1"), aig.StringMember("a"))
	v := aig.NewAttrValue(decl)
	_ = v.SetScalar("b", relstore.String("x"))
	_ = v.SetCollection("z", rowsOf("p", "q"))
	want := "(a=NULL, a1=NULL, b='x', c=[0 rows], z=[2 rows])"
	if got := v.String(); got != want {
		t.Errorf("String() = %s, want %s", got, want)
	}
}

// TestUnwrittenCollectionConcurrentReads: sibling tasks read one value
// at once; under -race this fails if any read path writes.
func TestUnwrittenCollectionConcurrentReads(t *testing.T) {
	v := aig.NewAttrValue(aig.Attr(aig.StringMember("a"), aig.SetMember("s", "v:string")))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				c, err := v.Collection("s")
				b, berr := v.MemberBinding("s")
				if err != nil || berr != nil || c.Len() != 0 || len(b.Rows) != 0 || v.String() == "" {
					t.Error("concurrent read of an unwritten collection failed")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestStarWithZeroInstances: over a star child type with no instances,
// Syn(x) stays out of scope while collect(x.m) yields no rows. The
// mediator's syn-shape matrix holds it to the same answers.
func TestStarWithZeroInstances(t *testing.T) {
	d := dtd.MustParse(`<!ELEMENT r (x*)> <!ELEMENT x (#PCDATA)>`)
	cat := relstore.NewCatalog()
	db := relstore.NewDatabase("DB")
	db.CreateTable("t", relstore.MustSchema("k:string", "v:string")).
		MustInsert(relstore.Tuple{relstore.String("other"), relstore.String("p")})
	cat.Add(db)

	first := aig.Syn1("f", aig.ScalarOf{Src: aig.SynOf("x", "v")})
	collect := aig.Syn1("s", aig.CollectChildren{Child: "x", Member: "v"})
	build := func(syn *aig.SynRule) *aig.AIG {
		a := aig.New(d)
		a.Inh["r"] = aig.Attr(aig.StringMember("k"))
		a.Inh["x"] = aig.Attr(aig.StringMember("v"))
		a.Syn["x"] = aig.Attr(aig.StringMember("v"))
		a.Syn["r"] = aig.Attr(aig.StringMember("f"), aig.SetMember("s", "v:string"))
		a.Rules["x"] = &aig.Rule{Elem: "x", Syn: aig.Syn1("v", aig.ScalarOf{Src: aig.InhOf("x", "v")})}
		a.Rules["r"] = &aig.Rule{Elem: "r", Syn: syn, Inh: map[string]*aig.InhRule{"x": {
			Child:       "x",
			Query:       sqlmini.MustParse(`select v from DB:t where k = $p.k`),
			QueryParams: aig.ParamMap("p", aig.InhOf("r", "")),
		}}}
		return a
	}

	env := &aig.Env{
		Schemas: sqlmini.CatalogSchemas{Catalog: cat},
		Data:    sqlmini.CatalogData{Catalog: cat},
		Stats:   sqlmini.CatalogStats{Catalog: cat},
	}
	for _, tc := range []struct {
		syn     *aig.SynRule
		wantErr bool
	}{{first, true}, {collect, false}} {
		a := build(tc.syn)
		inh := aig.NewAttrValue(a.Inh["r"])
		_ = inh.SetScalar("k", relstore.String("none"))
		doc, err := a.Eval(env, inh)
		if tc.wantErr {
			if err == nil || !strings.Contains(err.Error(), "not in scope") {
				t.Errorf("Eval with %v: err = %v, want not in scope", tc.syn.Exprs, err)
			}
			continue
		}
		if err != nil || len(doc.Elements()) != 0 {
			t.Errorf("Eval with %v: %v, %v", tc.syn.Exprs, doc, err)
		}
	}
}
