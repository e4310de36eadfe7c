package mediator

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/aigrepro/aig/internal/aig"
	"github.com/aigrepro/aig/internal/aigspec"
	"github.com/aigrepro/aig/internal/relstore"
	"github.com/aigrepro/aig/internal/source"
	"github.com/aigrepro/aig/internal/sqlmini"
)

// sameAsEval evaluates grammar a with both evaluators and fails the test
// unless the mediator's bytes equal the conceptual evaluator's, or both
// fail with the same kind of error (a guard abort or not), and unless
// the mediator's run, once released, holds no row (execHolds). It
// returns the conceptual evaluator's error.
func sameAsEval(t *testing.T, a *aig.AIG, cat *relstore.Catalog, rootInh *aig.AttrValue) error {
	t.Helper()
	schemas := sqlmini.CatalogSchemas{Catalog: cat}
	if err := a.Validate(schemas); err != nil {
		t.Fatal(err)
	}
	env := &aig.Env{Schemas: schemas, Data: sqlmini.CatalogData{Catalog: cat}, Stats: sqlmini.CatalogStats{Catalog: cat}}
	var want bytes.Buffer
	doc, wantErr := a.Eval(env, rootInh)
	if wantErr == nil {
		if err := doc.WriteIndented(&want); err != nil {
			t.Fatal(err)
		}
	}
	var got bytes.Buffer
	r, _, err := New(source.RegistryFromCatalog(cat), DefaultOptions()).Settle(context.Background(), a, rootInh, 0, 0, nil)
	if err == nil {
		_, err = r.WriteTo(&got)
		x := r.x
		r.Release()
		if herr := execHolds(x); herr != nil {
			t.Errorf("the released run holds %v", herr)
		}
	}
	var abort *aig.AbortError
	switch {
	case wantErr == nil && err == nil:
		if !bytes.Equal(want.Bytes(), got.Bytes()) {
			t.Errorf("mediator document differs from Eval's:\n%s\nwant:\n%s", got.String(), want.String())
		}
	case wantErr != nil && err != nil:
		if errors.As(wantErr, &abort) != errors.As(err, &abort) {
			t.Errorf("Eval fails with %v, the mediator with %v", wantErr, err)
		}
	default:
		t.Errorf("Eval: %v; mediator: %v\nEval's document:\n%s\nmediator's:\n%s", wantErr, err, want.String(), got.String())
	}
	return wantErr
}

// synMatrixCatalog is the data of the syn-shape matrix: t(k, v, w) and
// the branch table br(w, b).
func synMatrixCatalog() *relstore.Catalog {
	cat := relstore.NewCatalog()
	db := relstore.NewDatabase("DB")
	t := db.CreateTable("t", relstore.MustSchema("k:string", "v:string", "w:string"))
	for _, r := range [][3]string{{"a", "p", "1"}, {"a", "p", "3"}, {"a", "q", "3"}, {"b", "r", "1"}} {
		t.MustInsert(relstore.Tuple{relstore.String(r[0]), relstore.String(r[1]), relstore.String(r[2])})
	}
	br := db.CreateTable("br", relstore.MustSchema("w:string", "b:int"))
	br.MustInsert(relstore.Tuple{relstore.String("1"), relstore.Int(1)})
	br.MustInsert(relstore.Tuple{relstore.String("3"), relstore.Int(2)})
	cat.Add(db)
	return cat
}

// synMatrixSpec wraps a src subgrammar into a document that renders
// Syn(src).s — a collection of the given kind and fields — one item per
// row, and the scalar Syn(src).f as text, so every synthesized value
// the subgrammar computes reaches the bytes. Inh(out).s is a bag, so a
// set member's duplicates would show.
func synMatrixSpec(kind, fields, srcDTD, srcDecls, srcRules string) string {
	item := `
rule item
  text inh(item).v
end`
	itemDTD := "  <!ELEMENT item (#PCDATA)>"
	if strings.Contains(fields, ",") {
		itemDTD = `  <!ELEMENT item (iv, iw)>
  <!ELEMENT iv (#PCDATA)>
  <!ELEMENT iw (#PCDATA)>`
		item = `
inh iv (v)
inh iw (v)
rule item
  child iv set v = inh(item).v
  child iw set v = inh(item).w
end
rule iv
  text inh(iv).v
end
rule iw
  text inh(iw).v
end`
	}
	return fmt.Sprintf(`
dtd
  <!ELEMENT doc (src, out, one)>
  <!ELEMENT out (item*)>
  <!ELEMENT one (#PCDATA)>
%s
%s
end
inh doc (k)
inh src (k)
inh one (v)
inh out (bag s(%[4]s))
inh item (%[4]s)
syn src (%[3]s s(%[4]s), f)
%[5]s
rule doc
  child src set k = inh(doc).k
  child out set s = syn(src).s
  child one set v = syn(src).f
end
rule out
  child item iterate inh(out).s
end
rule one
  text inh(one).v
end
%[6]s
%[7]s
sources
  DB:t(k, v, w)
  DB:br(w, b:int)
end
`, itemDTD, srcDTD, kind, fields, srcDecls, item, srcRules)
}

// starSrc is src -> x*, one x per t row of the document's key, sorted
// (p,1), (p,3), (q,3) for key a. An empty f leaves Syn(src).f Null.
func starSrc(kind, s, f string) string {
	if f != "" {
		f = "\n  syn f = " + f
	}
	return synMatrixSpec(kind, "v", `  <!ELEMENT src (x*)>
  <!ELEMENT x (#PCDATA)>`, `inh x (v, w)
syn x (v, w, set vs(v))`, fmt.Sprintf(`
rule src
  child x from query [p = inh(src)]: select v, w from DB:t where k = $p.k;
  syn s = %s%s
end
rule x
  text inh(x).v
  syn v = inh(x).v
  syn w = inh(x).w
  syn vs = singleton(inh(x).v)
end`, s, f))
}

// TestSynShapesMatchEval is the syn-shape matrix: every synthesized-rule
// expression form, set and bag members, a two-member Syn, per-branch
// rules of a choice, a star parent with no children, and unique and
// subset guards passing and failing, each evaluated by the mediator's
// per-context syn tables and compared with the conceptual evaluator's
// bytes (or abort).
func TestSynShapesMatchEval(t *testing.T) {
	seqSrc := synMatrixSpec("set", "v, w", `  <!ELEMENT src (x, y)>
  <!ELEMENT x (#PCDATA)>
  <!ELEMENT y (#PCDATA)>`, `inh x (v)
inh y (v)
syn x (v)
syn y (v)`, `
rule src
  child x set v = inh(src).k
  child y from query [p = inh(src)]: select distinct k as v from DB:t where k = $p.k;
  syn s = singleton(syn(x).v, syn(y).v)
  syn f = syn(y).v
end
rule x
  text inh(x).v
  syn v = inh(x).v
end
rule y
  text inh(y).v
  syn v = inh(y).v
end`)
	leafSrc := func(prod string) string {
		return synMatrixSpec("set", "v", "  <!ELEMENT src "+prod+">", "", `
rule src
  syn s = union(singleton(inh(src).k), singleton(inh(src).k))
  syn f = inh(src).k
end`)
	}
	choiceSrc := synMatrixSpec("set", "v", `  <!ELEMENT src (c*)>
  <!ELEMENT c (x | y)>
  <!ELEMENT x (#PCDATA)>
  <!ELEMENT y (#PCDATA)>`, `inh c (v, w)
syn c (set s(v))
inh x (v)
inh y (v)
syn x (v)
syn y (v)`, `
rule src
  child c from query [p = inh(src)]: select v, w from DB:t where k = $p.k;
  syn s = collect(c.s)
end
rule c
  cond query [q = inh(c)]: select b from DB:br where w = $q.w;
  branch 1 child x set v = inh(c).v
  branch 2 child y set v = inh(c).w
  branch 1 syn s = singleton(syn(x).v)
  branch 2 syn s = union(singleton(syn(y).v), empty)
end
rule x
  text inh(x).v
  syn v = inh(x).v
end
rule y
  text inh(y).v
  syn v = inh(y).v
end`)
	// guardSrc: src -> c*, one c per distinct (k, v), c -> x* over its
	// rows. For key a, c(p) has w 1 and 3 and c(q) has w 3: w repeats
	// across the two ranges, never within one.
	guardSrc := synMatrixSpec("bag", "v", `  <!ELEMENT src (c*)>
  <!ELEMENT c (x*)>
  <!ELEMENT x (#PCDATA)>`, `inh c (k, v)
syn c (bag bv(v), bag bw(v), set sw(v), set fw(v))
inh x (v, w)
syn x (v, w)`, `
rule src
  child c from query [p = inh(src)]: select distinct k, v from DB:t where k = $p.k;
  syn s = collect(c.bw)
end
rule c
  child x from query [q = inh(c)]: select v, w from DB:t where k = $q.k and v = $q.v;
  syn bv = collect(x.v)
  syn bw = collect(x.w)
  syn sw = collect(x.w)
  syn fw = singleton(syn(x).w)
end
rule x
  text inh(x).v
  syn v = inh(x).v
  syn w = inh(x).w
end`)
	unique := func(m string) aig.Guard { return aig.Guard{Kind: aig.GuardUnique, Member: m} }
	subset := func(sub, super string) aig.Guard { return aig.Guard{Kind: aig.GuardSubset, Sub: sub, Super: super} }

	for _, tc := range []struct {
		name, spec, key string
		guards          []aig.Guard // on c
		want            string      // "ok", "abort" or "error"
	}{
		{"empty", starSrc("set", "empty", "syn(x).v"), "a", nil, "ok"},
		{"scalar-of-syn-first-star-child", starSrc("set", "empty", "syn(x).w"), "a", nil, "ok"},
		{"scalar-of-inh-text", leafSrc("(#PCDATA)"), "a", nil, "ok"},
		{"scalar-of-inh-empty", leafSrc("EMPTY"), "b", nil, "ok"},
		{"singleton-two-sources", seqSrc, "a", nil, "ok"},
		{"collection-of-syn", starSrc("set", "syn(x).vs", "syn(x).v"), "a", nil, "ok"},
		{"union-three-terms-set", starSrc("set", "union(syn(x).vs, collect(x.v), singleton(syn(x).w))", "syn(x).v"), "a", nil, "ok"},
		{"union-three-terms-bag", starSrc("bag", "union(syn(x).vs, collect(x.v), singleton(syn(x).w))", "syn(x).v"), "a", nil, "ok"},
		{"collect-scalar-set", starSrc("set", "collect(x.v)", "syn(x).v"), "a", nil, "ok"},
		{"collect-scalar-bag", starSrc("bag", "collect(x.v)", "syn(x).v"), "a", nil, "ok"},
		{"collect-collection-set", starSrc("set", "collect(x.vs)", "syn(x).w"), "a", nil, "ok"},
		{"collect-collection-bag", starSrc("bag", "collect(x.vs)", "syn(x).w"), "a", nil, "ok"},
		{"star-zero-children-collect", starSrc("bag", "collect(x.vs)", ""), "z", nil, "ok"},
		{"star-zero-children-first", starSrc("set", "collect(x.v)", "syn(x).v"), "z", nil, "error"},
		{"choice-both-branches", choiceSrc, "a", nil, "ok"},
		{"choice-one-branch-taken", choiceSrc, "b", nil, "ok"},
		{"unique-passes-across-ranges", guardSrc, "a", []aig.Guard{unique("bw")}, "ok"},
		{"unique-fails-within-range", guardSrc, "a", []aig.Guard{unique("bw"), unique("bv")}, "abort"},
		{"subset-passes", guardSrc, "a", []aig.Guard{subset("fw", "sw")}, "ok"},
		{"subset-fails-within-range", guardSrc, "a", []aig.Guard{subset("fw", "sw"), subset("sw", "fw")}, "abort"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, err := aigspec.Parse(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			if tc.guards != nil {
				a.Rules["c"].Guards = tc.guards
			}
			inh := aig.NewAttrValue(a.Inh["doc"])
			if err := inh.SetScalar("k", relstore.String(tc.key)); err != nil {
				t.Fatal(err)
			}
			err = sameAsEval(t, a, synMatrixCatalog(), inh)
			var abort *aig.AbortError
			got := "ok"
			if errors.As(err, &abort) {
				got = "abort"
			} else if err != nil {
				got = "error"
			}
			if got != tc.want {
				t.Errorf("Eval ends %s (%v), want %s", got, err, tc.want)
			}
		})
	}
}

// inhMatrixSpec completes an Inh-shape case: its DTD lines and
// declarations beside the item renderer — item (iv, iw) shows Inh(item)'s
// v and w as text — and rules for every element but item.
func inhMatrixSpec(dtdLines, decls, rules string) string {
	return fmt.Sprintf(`
dtd
%s
  <!ELEMENT item (iv, iw)>
  <!ELEMENT iv (#PCDATA)>
  <!ELEMENT iw (#PCDATA)>
end
inh doc (k)
inh item (v, w)
inh iv (v)
inh iw (v)
%s
%s
rule item
  child iv set v = inh(item).v
  child iw set v = inh(item).w
end
rule iv
  text inh(iv).v
end
rule iw
  text inh(iw).v
end
sources
  DB:t(k, v, w)
  DB:br(w, b:int)
end
`, dtdLines, decls, rules)
}

// TestInhShapesMatchEval is the Inh-shape matrix: every way the
// mediator writes an inherited-attribute column — a star over an Inh
// collection, a query into a set or bag member, query-bound scalars by
// name and by position, copies overriding them, a whole-tuple Inh
// parameter, text from a TextSrc or a lone scalar, and choice branches —
// compared with the conceptual evaluator's bytes for each document key.
func TestInhShapesMatchEval(t *testing.T) {
	// collectionSrc fills Inh(src).s, of the given kind, from a query
	// whose rows repeat for key a — (p,a) twice, then (q,a) — and
	// renders it one item per row.
	collectionSrc := func(kind string) string {
		return inhMatrixSpec(`  <!ELEMENT doc (src)>
  <!ELEMENT src (item*)>`, "inh src ("+kind+" s(v, w))", `
rule doc
  child src collection s from query [p = inh(doc)]: select v, k as w from DB:t where k = $p.k;
end
rule src
  child item iterate inh(src).s
end`)
	}
	// copiedSet copies a bag with repeated rows into a set member.
	copiedSet := inhMatrixSpec(`  <!ELEMENT doc (mid)>
  <!ELEMENT mid (src)>
  <!ELEMENT src (item*)>`, `inh mid (k, bag b(v, w))
inh src (set s(v, w))`, `
rule doc
  child mid set k = inh(doc).k
  child mid collection b from query [p = inh(doc)]: select v, k as w from DB:t where k = $p.k;
end
rule mid
  child src set s = inh(mid).b
end
rule src
  child item iterate inh(src).s
end`)
	// perParent iterates a bag per src, the first src's longer than the
	// last's: two rows for mid w = 1, one for w = 3 (key a).
	perParent := inhMatrixSpec(`  <!ELEMENT doc (mid*)>
  <!ELEMENT mid (src)>
  <!ELEMENT src (item*)>`, `inh mid (w)
inh src (bag s(v, w))`, `
rule doc
  child mid from query [p = inh(doc)]: select distinct w from DB:t where k = $p.k;
end
rule mid
  child src collection s from query [q = inh(mid)]: select v, w from DB:t where k = 'a' and w <> $q.w;
end
rule src
  child item iterate inh(src).s
end`)
	// single binds item from the one-row query q, then applies copies.
	single := func(q, copies string) string {
		return inhMatrixSpec("  <!ELEMENT doc (item)>", "", `
rule doc
  child item from query [p = inh(doc)]: `+q+`;`+copies+`
end`)
	}
	// star makes one item per row of query q over Inh(src), then applies
	// copies.
	star := func(q, copies string) string {
		return inhMatrixSpec(`  <!ELEMENT doc (src)>
  <!ELEMENT src (item*)>`, "inh src (k)", `
rule doc
  child src set k = inh(doc).k
end
rule src
  child item from query [p = inh(src)]: `+q+`;`+copies+`
end`)
	}
	wholeTuple := inhMatrixSpec(`  <!ELEMENT doc (src)>
  <!ELEMENT src (item*)>`, "inh src (k, j)", `
rule doc
  child src from query [p = inh(doc)]: select k, w as j from DB:t where k = $p.k and v = 'q';
end
rule src
  child item from query [p = inh(src)]: select v, w from DB:t where k = $p.k and w = $p.j;
end`)
	text := inhMatrixSpec(`  <!ELEMENT doc (one, two, none)>
  <!ELEMENT one (#PCDATA)>
  <!ELEMENT two (#PCDATA)>
  <!ELEMENT none (#PCDATA)>`, `inh one (v)
inh two (v, w)
inh none (v, w)`, `
rule doc
  child one set v = inh(doc).k
  child two from query [p = inh(doc)]: select v, w from DB:t where k = $p.k and w = '1';
  child none from query [p = inh(doc)]: select v, w from DB:t where k = $p.k and w = '1';
end
rule one
end
rule two
  text inh(two).w
end
rule none
end`)
	choice := inhMatrixSpec(`  <!ELEMENT doc (src)>
  <!ELEMENT src (c*)>
  <!ELEMENT c (x | y)>
  <!ELEMENT x (#PCDATA)>
  <!ELEMENT y (item*)>`, `inh src (k)
inh c (v, w)
inh x (v)
inh y (set s(v, w))`, `
rule doc
  child src set k = inh(doc).k
end
rule src
  child c from query [p = inh(src)]: select v, w from DB:t where k = $p.k;
end
rule c
  cond query [q = inh(c)]: select b from DB:br where w = $q.w;
  branch 1 child x set v = inh(c).v
  branch 2 child y collection s from query [q = inh(c)]: select v, w from DB:t where w = $q.w;
end
rule x
end
rule y
  child item iterate inh(y).s
end`)

	for _, tc := range []struct{ name, spec string }{
		{"star-over-inh-set", collectionSrc("set")},
		{"star-over-inh-bag", collectionSrc("bag")},
		{"copy-bag-into-set", copiedSet},
		{"star-over-inh-bag-per-parent", perParent},
		{"query-scalars-by-name", single("select w, v from DB:t where k = $p.k and w = '1'", "")},
		{"query-scalars-by-position", single("select v as x, w as y from DB:t where k = $p.k and w = '1'", "")},
		{"query-scalars-partly-by-name", single("select w from DB:t where k = $p.k and w = '1'", "\n  child item set v = inh(doc).k")},
		{"copy-overrides-query-scalar", single("select v, w from DB:t where k = $p.k and w = '1'", "\n  child item set v = inh(doc).k")},
		{"star-scalars-by-name", star("select w, v from DB:t where k = $p.k", "")},
		{"star-scalars-by-position", star("select v as x, w as y from DB:t where k = $p.k", "")},
		{"star-copy-overrides-query-scalar", star("select v, w from DB:t where k = $p.k", "\n  child item set w = inh(src).k")},
		{"whole-tuple-parameter", wholeTuple},
		{"text-from-textsrc-and-lone-scalar", text},
		{"choice-branches", choice},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, err := aigspec.Parse(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			for _, key := range []string{"a", "b", "z"} {
				inh := aig.NewAttrValue(a.Inh["doc"])
				if err := inh.SetScalar("k", relstore.String(key)); err != nil {
					t.Fatal(err)
				}
				if err := sameAsEval(t, a, synMatrixCatalog(), inh); err != nil {
					t.Errorf("key %s: Eval fails: %v", key, err)
				}
			}
		})
	}
}

// TestDedupMatchesReference compares dedup.repeats, the KeepFirst it
// prepares, and dedup.subset with quadratic references over seeded
// random ranges, one dedup reused throughout as the set columns reuse
// theirs. Rows come from a small
// pool, so ranges repeat rows often, and the pool holds Null, Int(1)
// beside String("1") and strings holding 0x1f.
func TestDedupMatchesReference(t *testing.T) {
	pool := []relstore.Value{relstore.Null, relstore.Int(0), relstore.Int(1), relstore.String("1"),
		relstore.String(""), relstore.String("a\x1f"), relstore.String("\x1fa"), relstore.String("a")}
	rng := rand.New(rand.NewSource(47))
	gen := func(n, arity int) []relstore.Tuple {
		rs := make([]relstore.Tuple, n)
		for i := range rs {
			rs[i] = make(relstore.Tuple, arity)
			for j := range rs[i] {
				rs[i][j] = pool[rng.Intn(len(pool))]
			}
		}
		return rs
	}
	var d dedup
	for trial := 0; trial < 40; trial++ {
		for _, n := range []int{0, 1, 2, 8, 9, 200} {
			arity := 1 + rng.Intn(3)
			rs := gen(n, arity)
			if trial%4 == 0 && n > 0 { // every row the same, in storage of its own
				for i := range rs {
					rs[i] = rs[0].Clone()
				}
			}
			var firsts []relstore.Tuple
			for i := range rs {
				if !slices.ContainsFunc(rs[:i], rs[i].Equal) {
					firsts = append(firsts, rs[i])
				}
			}
			anyDup := len(firsts) < n
			if got := d.repeats(rs); got != anyDup {
				t.Fatalf("repeats(%v) = %v, want %v", rs, got, anyDup)
			}
			if got := d.ix.KeepFirst(slices.Clone(rs)); anyDup && !slices.EqualFunc(got, firsts, relstore.Tuple.Equal) {
				t.Fatalf("repeats(%v), then KeepFirst = %v, want %v", rs, got, firsts)
			}

			// subset: a sub drawn from super, and one drawn from the pool.
			for _, sub := range [][]relstore.Tuple{pickRows(rng, rs), gen(rng.Intn(4), arity)} {
				want := true
				for _, row := range sub {
					want = want && slices.ContainsFunc(rs, row.Equal)
				}
				if got := d.subset(sub, rs); got != want {
					t.Fatalf("subset(%v, %v) = %v, want %v", sub, rs, got, want)
				}
			}
		}
	}
}

// pickRows returns up to four rows of rs, in random order.
func pickRows(rng *rand.Rand, rs []relstore.Tuple) []relstore.Tuple {
	var out []relstore.Tuple
	for i := rng.Intn(5); i > 0 && len(rs) > 0; i-- {
		out = append(out, rs[rng.Intn(len(rs))])
	}
	return out
}
