package mediator

import (
	"fmt"
	"testing"

	"github.com/aigrepro/aig/internal/aig"
	"github.com/aigrepro/aig/internal/dtd"
	"github.com/aigrepro/aig/internal/relstore"
	"github.com/aigrepro/aig/internal/source"
	"github.com/aigrepro/aig/internal/sqlmini"
)

// TestCollectionTargetRule exercises the non-star query form whose output
// set becomes a collection member of a single child (the shape the
// paper's internal states use), in both evaluators.
func TestCollectionTargetRule(t *testing.T) {
	d := dtd.MustParse(`
		<!ELEMENT doc (digest)>
		<!ELEMENT digest (entry*)>
		<!ELEMENT entry (#PCDATA)>
	`)
	cat := relstore.NewCatalog()
	db := relstore.NewDatabase("DB")
	words := db.CreateTable("words", relstore.MustSchema("w:string", "lang:string"))
	for _, r := range [][2]string{{"zeta", "el"}, {"alpha", "el"}, {"beta", "el"}, {"non", "fr"}} {
		words.MustInsert(relstore.Tuple{relstore.String(r[0]), relstore.String(r[1])})
	}
	cat.Add(db)

	a := aig.New(d)
	a.Inh["doc"] = aig.Attr(aig.StringMember("lang"))
	a.Inh["digest"] = aig.Attr(aig.SetMember("ws", "w:string"))
	a.Inh["entry"] = aig.Attr(aig.StringMember("w"))
	a.Rules["doc"] = &aig.Rule{
		Elem: "doc",
		Inh: map[string]*aig.InhRule{
			"digest": {
				Child:            "digest",
				Query:            sqlmini.MustParse(`select w from DB:words where lang = $v.lang`),
				QueryParams:      aig.ParamMap("v", aig.InhOf("doc", "")),
				TargetCollection: "ws",
			},
		},
	}
	a.Rules["digest"] = &aig.Rule{
		Elem: "digest",
		Inh: map[string]*aig.InhRule{
			"entry": {Child: "entry", Copies: []aig.CopyAssign{aig.Copy("", aig.InhOf("digest", "ws"))}},
		},
	}
	a.Rules["entry"] = &aig.Rule{Elem: "entry", TextSrc: aig.InhOf("entry", "w")}

	if err := a.Validate(sqlmini.CatalogSchemas{Catalog: cat}); err != nil {
		t.Fatal(err)
	}

	env := &aig.Env{
		Schemas: sqlmini.CatalogSchemas{Catalog: cat},
		Data:    sqlmini.CatalogData{Catalog: cat},
		Stats:   sqlmini.CatalogStats{Catalog: cat},
	}
	inh := aig.NewAttrValue(a.Inh["doc"])
	if err := inh.SetScalar("lang", relstore.String("el")); err != nil {
		t.Fatal(err)
	}
	want, err := a.Eval(env, inh)
	if err != nil {
		t.Fatal(err)
	}
	entries := want.Descendants("entry")
	if len(entries) != 3 || entries[0].StringValue() != "alpha" {
		t.Fatalf("conceptual collection evaluation wrong:\n%s", want)
	}

	m := New(source.RegistryFromCatalog(cat), DefaultOptions())
	res, err := m.Evaluate(a, inh)
	if err != nil {
		t.Fatal(err)
	}
	if !want.Equal(res.Doc) {
		t.Errorf("mediator collection document differs:\n%s\n%s", want, res.Doc)
	}
}

// TestQueryEdgeCopiesMatchEval covers a non-star query rule that also
// copies a collection member: the query binds Inh(digest).lang while
// Inh(digest).ws = Inh(doc).ks. The mediator once copied only 1×1
// scalars beside a query, failing on a non-empty ks and dropping wider
// ones; its bytes must be Eval's for every ks.
func TestQueryEdgeCopiesMatchEval(t *testing.T) {
	d := dtd.MustParse(`
		<!ELEMENT doc (digest)>
		<!ELEMENT digest (entry*)>
		<!ELEMENT entry (#PCDATA)>
	`)
	cat := relstore.NewCatalog()
	db := relstore.NewDatabase("DB")
	db.CreateTable("langs", relstore.MustSchema("lang:string")).MustInsert(relstore.Tuple{relstore.String("el")})
	cat.Add(db)

	a := aig.New(d)
	a.Inh["doc"] = aig.Attr(aig.StringMember("lang"), aig.SetMember("ks", "k:string"))
	a.Inh["digest"] = aig.Attr(aig.StringMember("lang"), aig.SetMember("ws", "w:string"))
	a.Inh["entry"] = aig.Attr(aig.StringMember("w"))
	a.Rules["doc"] = &aig.Rule{
		Elem: "doc",
		Inh: map[string]*aig.InhRule{
			"digest": {
				Child:       "digest",
				Query:       sqlmini.MustParse(`select lang from DB:langs where lang = $v.lang`),
				QueryParams: aig.ParamMap("v", aig.InhOf("doc", "")),
				Copies:      []aig.CopyAssign{aig.Copy("ws", aig.InhOf("doc", "ks"))},
			},
		},
	}
	a.Rules["digest"] = &aig.Rule{
		Elem: "digest",
		Inh: map[string]*aig.InhRule{
			"entry": {Child: "entry", Copies: []aig.CopyAssign{aig.Copy("", aig.InhOf("digest", "ws"))}},
		},
	}
	a.Rules["entry"] = &aig.Rule{Elem: "entry", TextSrc: aig.InhOf("entry", "w")}

	for _, ks := range [][]string{{"x"}, {"x", "y"}, {}} {
		t.Run(fmt.Sprint(ks), func(t *testing.T) {
			inh := aig.NewAttrValue(a.Inh["doc"])
			rows := make([]relstore.Tuple, len(ks))
			for i, k := range ks {
				rows[i] = relstore.Tuple{relstore.String(k)}
			}
			if err := inh.SetScalar("lang", relstore.String("el")); err != nil {
				t.Fatal(err)
			}
			if err := inh.SetCollection("ks", rows); err != nil {
				t.Fatal(err)
			}
			if err := sameAsEval(t, a, cat, inh); err != nil {
				t.Fatalf("Eval: %v", err)
			}
		})
	}
}
