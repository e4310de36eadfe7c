package mediator

import (
	"fmt"
	"sync/atomic"

	"github.com/aigrepro/aig/internal/aig"
	"github.com/aigrepro/aig/internal/relstore"
)

// instance is one element node of the document under construction. Its
// id is its position in its context's table; the (parent position, own
// position) pair is the mediator's path encoding, unique within a context.
// Its synthesized attribute is its row of the context's syn table.
type instance struct {
	inh    *aig.AttrValue
	branch int // chosen alternative for choice productions (1-based; 0 = none)
}

// on reports whether an edge restricted to the given alternative (0 = no
// restriction) applies to this parent instance.
func (in *instance) on(branch int) bool {
	return branch == 0 || in.branch == branch
}

// ctxTable is the instance table of one context, grouped by parent in
// parent order: the children of parent position p are
// rows[first[p]:first[p+1]].
type ctxTable struct {
	rows  []instance
	first []int
	// syn is the context's syn table, published by its syn task after
	// the table itself; it stays nil when Syn declares no member.
	syn atomic.Pointer[synTable]
}

// newTable starts a table over the given number of parents, with room
// for rowCap instances. Its writer calls startParent once per parent, in
// order, before adding that parent's children.
func newTable(parents, rowCap int) *ctxTable {
	return &ctxTable{rows: make([]instance, 0, rowCap), first: make([]int, 0, parents+1)}
}

func (t *ctxTable) startParent() {
	t.first = append(t.first, len(t.rows))
}

// add appends an instance under the current parent.
func (t *ctxTable) add(inh *aig.AttrValue) {
	t.rows = append(t.rows, instance{inh: inh})
}

// store holds the instance table of every context — the mediator's
// temporary tables (§5.1) — indexed by ctxNode.idx. Each table has
// exactly one writer, the context's materialization task, which builds it
// whole and publishes it with one atomic store; a reader that finds it
// unpublished sees no instances.
type store []atomic.Pointer[ctxTable]

// publish closes the last parent's range and makes t visible as the
// table of context c.
func (s store) publish(c *ctxNode, t *ctxTable) {
	t.startParent()
	s[c.idx].Store(t)
}

// table returns the published table of context c, or nil.
func (s store) table(c *ctxNode) *ctxTable {
	return s[c.idx].Load()
}

// rows returns the instances of context c.
func (s store) rows(c *ctxNode) []instance {
	if t := s[c.idx].Load(); t != nil {
		return t.rows
	}
	return nil
}

// children returns the instances of context ch under parent position p
// and the position of the first of them.
func (s store) children(ch *ctxNode, p int) ([]instance, int) {
	t := s[ch.idx].Load()
	if t == nil {
		return nil, 0
	}
	lo := t.first[p]
	return t.rows[lo:t.first[p+1]], lo
}

// parentPos bounds-checks the leading ParentCol value of a kind result
// row for context path against the parent context's n instances.
func parentPos(row relstore.Tuple, n int, kind, path string) (int, error) {
	v := row[0]
	if v.Kind() != relstore.KindInt || v.AsInt() < 0 || v.AsInt() >= int64(n) {
		return 0, fmt.Errorf("mediator: %s of %s references unknown parent %s", kind, path, v)
	}
	return int(v.AsInt()), nil
}
