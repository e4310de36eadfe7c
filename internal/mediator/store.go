package mediator

import (
	"fmt"
	"slices"
	"sync/atomic"

	"github.com/aigrepro/aig/internal/aig"
	"github.com/aigrepro/aig/internal/relstore"
)

// instance is one element node of the document under construction. Its
// id is its position in its context's table; the (parent position, own
// position) pair is the mediator's path encoding, unique within a context.
// Its attributes are its rows of the context's attribute tables.
type instance struct {
	branch int // chosen alternative for choice productions (1-based; 0 = none)
}

// on reports whether an edge restricted to the given alternative (0 = no
// restriction) applies to this parent instance.
func (in *instance) on(branch int) bool {
	return branch == 0 || in.branch == branch
}

// attrTable is one attribute of every instance of a context — its Inh or
// its Syn — with one column per member of the declaration, indexed by
// instance position. A scalar member's value for instance i is vals[i];
// a collection member's rows are rows[off[i]:off[i+1]]. Since the
// children of one parent are contiguous, a parent reads all of its
// children's values as one range of a child column.
type attrTable struct {
	cols []attrCol
}

type attrCol struct {
	vals []relstore.Value
	rows []relstore.Tuple
	off  []int
}

// ctxTable is the instance table of one context, grouped by parent in
// parent order: the children of parent position p are
// rows[first[p]:first[p+1]].
type ctxTable struct {
	rows  []instance
	first []int
	// inh is the context's inherited attribute, written with the table.
	inh attrTable
	// syn is the context's syn table, published by its syn task after
	// the table itself; it stays nil when Syn declares no member.
	syn atomic.Pointer[attrTable]
}

// value reads instance i's row of the table as an attribute value of
// declaration decl, for messages that name the instance.
func (t *attrTable) value(decl aig.AttrDecl, i int) *aig.AttrValue {
	v := aig.NewAttrValue(decl)
	for j, m := range decl.Members {
		col := &t.cols[j]
		if m.Kind == aig.Scalar {
			_ = v.SetScalar(m.Name, col.vals[i])
		} else {
			_ = v.SetCollection(m.Name, col.rows[col.off[i]:col.off[i+1]])
		}
	}
	return v
}

// tableWriter builds the instance table of one context and its Inh
// columns, one instance at a time. open starts an instance with Null
// scalars and empty collections; setScalar and setRows write its members,
// a later write replacing an earlier one as in aig.Eval; close checks and
// ends its collection ranges, a set keeping the first occurrence of each
// row. The first row that fails its member's fields fails the table.
type tableWriter struct {
	t       *ctxTable
	members []aig.MemberDecl
	colls   []colBuilder       // by member; empty when Inh has no collection
	pending [][]relstore.Tuple // the open instance's collection rows, by member
	d       *dedup
	err     error
}

// writer starts the context's table over the given number of parents,
// with room for rowCap instances of Inh declaration decl, in the arrays
// the context's table had in the exec's previous run. Its caller calls
// startParent once per parent, in order, before adding that parent's
// children.
func (cr *ctxRun) writer(decl aig.AttrDecl, parents, rowCap int) *tableWriter {
	t := &cr.t
	t.rows = slices.Grow(t.rows[:0], rowCap)
	t.first = slices.Grow(t.first[:0], parents+1)
	t.inh.cols = resize(t.inh.cols, len(decl.Members))
	w := &cr.w
	*w = tableWriter{t: t, members: decl.Members, colls: w.colls[:0], pending: w.pending[:0], d: &cr.d}
	for j, m := range decl.Members {
		if m.Kind == aig.Scalar {
			t.inh.cols[j].vals = slices.Grow(t.inh.cols[j].vals[:0], rowCap)
			continue
		}
		if len(w.colls) == 0 {
			w.colls = resize(w.colls, len(decl.Members))
			w.pending = resize(w.pending, len(decl.Members))
		}
		w.colls[j].start(rowCap)
	}
	return w
}

// resize returns s with length n, over its own array when that has room:
// the elements there, and the arrays they hold, are kept.
func resize[T any](s []T, n int) []T {
	return slices.Grow(s[:0], n)[:n]
}

func (w *tableWriter) startParent() {
	w.t.first = append(w.t.first, len(w.t.rows))
}

// open appends an instance under the current parent.
func (w *tableWriter) open() {
	w.t.rows = append(w.t.rows, instance{})
	for j := range w.members {
		if col := &w.t.inh.cols[j]; w.members[j].Kind == aig.Scalar {
			col.vals = append(col.vals, relstore.Null)
		}
	}
	clear(w.pending)
}

// setScalar writes scalar member j of the open instance.
func (w *tableWriter) setScalar(j int, v relstore.Value) {
	vals := w.t.inh.cols[j].vals
	vals[len(vals)-1] = v
}

// bind writes a row into the open instance's scalars: column k into
// member pos[k] (aig.AttrDecl.BindColumns).
func (w *tableWriter) bind(pos []int, row relstore.Tuple) {
	for k, j := range pos {
		w.setScalar(j, row[k])
	}
}

// setRows makes rows the open instance's collection member j.
func (w *tableWriter) setRows(j int, rows []relstore.Tuple) {
	w.pending[j] = rows
}

// close ends the open instance.
func (w *tableWriter) close() {
	for j := range w.colls {
		m := &w.members[j]
		if m.Kind == aig.Scalar {
			continue
		}
		var set *dedup
		if m.Kind == aig.Set {
			set = w.d
		}
		b := &w.colls[j]
		b.addRange(w.pending[j])
		if err := b.end(set, m.Fields); err != nil && w.err == nil {
			w.err = fmt.Errorf("aig: member %q: %v", m.Name, err)
		}
	}
}

// table closes the last parent's range and returns the finished table.
func (w *tableWriter) table() (*ctxTable, error) {
	w.startParent()
	for j := range w.colls {
		if w.members[j].Kind != aig.Scalar {
			col := &w.t.inh.cols[j]
			col.rows, col.off = w.colls[j].rows, w.colls[j].off
		}
	}
	return w.t, w.err
}

// rootTable writes the table of the root context: one instance, whose
// Inh is the caller's value v read member by member (nil reads as Null
// scalars and empty collections).
func (cr *ctxRun) rootTable(decl aig.AttrDecl, v *aig.AttrValue) (*ctxTable, error) {
	w := cr.writer(decl, 1, 1)
	w.startParent()
	w.open()
	for j, m := range decl.Members {
		switch {
		case v == nil:
		case m.Kind == aig.Scalar:
			if s, err := v.Scalar(m.Name); err == nil {
				w.setScalar(j, s)
			}
		default:
			if c, err := v.Collection(m.Name); err == nil {
				w.setRows(j, c.Rows())
			}
		}
	}
	w.close()
	return w.table()
}

// ctxRun is one context's working memory in a run: its instance table
// and syn table, the builders that write them and the scratch arrays of
// its materialization and syn tasks. Only those two tasks write it, one
// after the other, and a recycled exec hands every array to the same
// context again (exec.release).
type ctxRun struct {
	t    ctxTable
	syn  attrTable
	w    tableWriter
	synB []colBuilder     // by Syn member
	vals []relstore.Value // backs the syn table's singleton rows
	d    dedup            // the Inh and Syn set members' and the guards'
	// The query materialization's result grouped by parent (at, grouped)
	// and its column binding; a star copy sorts in grouped instead.
	at      []int
	grouped []relstore.Tuple
	pos     []int
}

// release clears what the run left in the context's arrays that points
// elsewhere, so a pooled exec keeps no rows of its last run alive.
func (cr *ctxRun) release() {
	cr.t.syn.Store(nil)
	cr.t.inh.release()
	cr.syn.release()
	for j := range cr.w.colls {
		cr.w.colls[j].release()
	}
	clear(cr.w.pending)
	for j := range cr.synB {
		cr.synB[j].release()
	}
	wipe(cr.vals)
	wipe(cr.grouped)
	cr.d.ix.Build(nil, nil) // drops the rows, keeps the array
}

// release clears the table's scalar columns and drops its collection
// columns, which belong to their builders.
func (t *attrTable) release() {
	for j := range t.cols {
		col := &t.cols[j]
		wipe(col.vals)
		col.rows, col.off = nil, nil
	}
}

// wipe clears s over its whole array: a run may have written past the
// length it left s at.
func wipe[T any](s []T) {
	clear(s[:cap(s)])
}

// store holds the instance table of every context — the mediator's
// temporary tables (§5.1) — indexed by ctxNode.idx. Each table has
// exactly one writer, the context's materialization task, which builds it
// whole and publishes it with one atomic store; a reader that finds it
// unpublished sees no instances.
type store []atomic.Pointer[ctxTable]

// publish makes t visible as the table of context c.
func (s store) publish(c *ctxNode, t *ctxTable) {
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

// span returns the positions [lo, hi) of the instances of context ch
// under parent position p.
func (s store) span(ch *ctxNode, p int) (lo, hi int) {
	t := s[ch.idx].Load()
	if t == nil {
		return 0, 0
	}
	return t.first[p], t.first[p+1]
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
