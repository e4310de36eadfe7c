package mediator

import (
	"context"
	"slices"
	"testing"

	"github.com/aigrepro/aig/internal/aig"
	"github.com/aigrepro/aig/internal/dtd"
	"github.com/aigrepro/aig/internal/hospital"
	"github.com/aigrepro/aig/internal/relstore"
	"github.com/aigrepro/aig/internal/source"
	"github.com/aigrepro/aig/internal/sqlmini"
)

// checkRanges walks every context of a finished run and checks that each
// child table is published with one range per parent instance that
// partitions its rows in parent order, and that a range holds exactly the
// children the parent's production gives it: one per sequence child, one
// for the chosen alternative and none for the others. It returns how
// many star parents have no children.
func checkRanges(t *testing.T, x *exec) (emptyStars int) {
	t.Helper()
	var walk func(c *ctxNode)
	walk = func(c *ctxNode) {
		p, _ := x.g.a.DTD.Production(c.elem)
		parents := x.st.rows(c)
		for bi, ch := range c.children {
			tab := x.st[ch.idx].Load()
			if tab == nil {
				t.Fatalf("%s: table never published", ch.path)
			}
			if len(tab.first) != len(parents)+1 || tab.first[0] != 0 || tab.first[len(parents)] != len(tab.rows) {
				t.Fatalf("%s: %d range bounds %v over %d parents and %d rows", ch.path, len(tab.first), tab.first, len(parents), len(tab.rows))
			}
			for id := range parents {
				kids, lo := x.st.children(ch, id)
				if lo != tab.first[id] || lo+len(kids) != tab.first[id+1] {
					t.Fatalf("%s: parent %d reads [%d,%d), table says [%d,%d)", ch.path, id, lo, lo+len(kids), tab.first[id], tab.first[id+1])
				}
				want := 1
				switch p.Kind {
				case dtd.ProdStar:
					if len(kids) == 0 {
						emptyStars++
					}
					continue
				case dtd.ProdChoice:
					if parents[id].branch != bi+1 {
						want = 0
					}
				}
				if len(kids) != want {
					t.Errorf("%s: parent %d (branch %d) has %d children, want %d", ch.path, id, parents[id].branch, len(kids), want)
				}
			}
			walk(ch)
		}
	}
	walk(x.g.root)
	return emptyStars
}

func TestStoreRangesPerParent(t *testing.T) {
	cat := hospital.TinyCatalog()
	a, reg := prepared(t, cat, 4, true)
	r, err := New(reg, DefaultOptions()).evaluate(context.Background(), a, 0, hospital.RootInh(a, "d1"))
	if err != nil {
		t.Fatal(err)
	}
	x := r.x
	// Leaf treatments have procedures with no sub-treatments.
	if n := checkRanges(t, x); n == 0 {
		t.Error("no star parent without children: the zero-length range is untested")
	}
}

func TestStoreChoiceRanges(t *testing.T) {
	a, cat := choiceFixture(t)
	r, err := New(source.RegistryFromCatalog(cat), DefaultOptions()).evaluate(context.Background(), a, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	x := r.x
	checkRanges(t, x)
	result := x.g.root.children[0]
	cheap, pricey := result.children[0], result.children[1]
	for _, tc := range []struct {
		c    *ctxNode
		want []int
	}{
		{result, []int{0, 3}},
		{cheap, []int{0, 1, 1, 2}},  // t1 and t3 take cheap
		{pricey, []int{0, 0, 1, 1}}, // t2 takes pricey
	} {
		if got := x.st[tc.c.idx].Load().first; !slices.Equal(got, tc.want) {
			t.Errorf("%s: ranges %v, want %v", tc.c.path, got, tc.want)
		}
	}
}

// TestStoreIDsArePositions binds the parameter tables of the star query
// (parent ids only) and of the condition query (ids and values) and
// checks that every parent's id is its position in its context's table.
func TestStoreIDsArePositions(t *testing.T) {
	a, cat := choiceFixture(t)
	// Unmerged, so every part is its own node's.
	opts := Options{Net: DefaultNet(), Schedule: ScheduleFIFO}
	r, err := New(source.RegistryFromCatalog(cat), opts).evaluate(context.Background(), a, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	x := r.x
	bind := func(name string) (*part, sqlmini.Binding) {
		t.Helper()
		for _, n := range x.g.nodes {
			for _, pt := range n.parts {
				if pt.name != name {
					continue
				}
				params, _, err := x.bindParams(pt, nil)
				if err != nil || len(params) != 1 {
					t.Fatalf("%s: %d parameter tables, err %v", name, len(params), err)
				}
				for _, b := range params {
					return pt, b
				}
			}
		}
		t.Fatalf("no part %s", name)
		return nil, sqlmini.Binding{}
	}

	if _, b := bind("Q:results/result"); len(b.Rows) != 1 || !b.Rows[0].Equal(relstore.Tuple{relstore.Int(0)}) {
		t.Errorf("parent-id table of the root is %v, want [(0)]", b.Rows)
	}
	cond, b := bind("Qc:results/result")
	insts := x.st.rows(cond.parentCtx)
	if len(b.Rows) != len(insts) {
		t.Fatalf("%d parameter rows for %d instances", len(b.Rows), len(insts))
	}
	for id, row := range b.Rows {
		trID, err := insts[id].inh.Scalar("trId")
		if err != nil {
			t.Fatal(err)
		}
		if !row.Equal(relstore.Tuple{relstore.Int(int64(id)), trID}) {
			t.Errorf("parameter row %d is %v, want (%d, %v)", id, row, id, trID)
		}
	}
}

func TestStoreUnpublishedReadsEmpty(t *testing.T) {
	root := &ctxNode{idx: 0, path: "r", elem: "r"}
	kid := &ctxNode{idx: 1, path: "r/k", elem: "k", parent: root}
	root.children = []*ctxNode{kid}
	s := make(store, 2)
	top := newTable(1, 1)
	top.startParent()
	top.add(aig.NewAttrValue(aig.Attr()))
	s.publish(root, top)

	if rows := s.rows(kid); rows != nil {
		t.Errorf("unpublished context reads %d instances", len(rows))
	}
	if kids, _ := s.children(kid, 0); kids != nil {
		t.Errorf("unpublished context gives parent 0 %d children", len(kids))
	}
	x := &exec{st: s}
	syn := ref{src: aig.SourceRef{Side: aig.SynSide, Elem: "k"}, kids: []*ctxNode{kid}}
	if _, _, err := x.kid(&syn, 0); err == nil {
		t.Error("Syn(k) over an unpublished child table is in scope")
	}

	tab := newTable(1, 2)
	tab.startParent()
	tab.add(aig.NewAttrValue(aig.Attr()))
	tab.add(aig.NewAttrValue(aig.Attr()))
	s.publish(kid, tab)
	if kids, lo := s.children(kid, 0); len(kids) != 2 || lo != 0 {
		t.Errorf("published context gives parent 0 %d children from %d, want 2 from 0", len(kids), lo)
	}
}
