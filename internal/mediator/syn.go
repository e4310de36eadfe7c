package mediator

import (
	"fmt"
	"slices"

	"github.com/aigrepro/aig/internal/aig"
	"github.com/aigrepro/aig/internal/dtd"
	"github.com/aigrepro/aig/internal/relstore"
)

// ref is a rule source resolved at plan time against the production of
// context c: a member of Inh(c.elem), or of Syn(B) of c's children of
// type B.
type ref struct {
	src aig.SourceRef
	// kids are c's child contexts of type B, in production order: Syn(B)
	// reads the first B instance among them.
	kids []*ctxNode
	col  int // the member's position in its declaration
	// kind is the member's kind; a whole attribute (empty Member) is a
	// scalar tuple, the positions of its scalar members in tuple.
	kind  aig.MemberKind
	tuple []int
}

func (g *graph) ref(c *ctxNode, src aig.SourceRef) (ref, error) {
	r := ref{src: src}
	decl := g.a.Inh[c.elem]
	if src.Side == aig.SynSide {
		decl = g.a.Syn[src.Elem]
		for _, ch := range c.children {
			if ch.elem == src.Elem {
				r.kids = append(r.kids, ch)
			}
		}
	}
	found := src.Member == ""
	for j, m := range decl.Members {
		if src.Member == "" && m.Kind == aig.Scalar {
			r.tuple = append(r.tuple, j)
		} else if m.Name == src.Member {
			r.col, r.kind, found = j, m.Kind, true
		}
	}
	if !found {
		return r, fmt.Errorf("mediator: %s has no member %q", src, src.Member)
	}
	return r, nil
}

// at returns the attribute table and position r reads for instance p of
// its context, whose Inh is inh: inh itself, or the syn table of the
// first instance Syn(B) reads.
func (x *exec) at(r *ref, inh *attrTable, p int) (*attrTable, int, error) {
	if r.src.Side == aig.InhSide {
		return inh, p, nil
	}
	for _, ch := range r.kids {
		if t := x.st.table(ch); t != nil && t.first[p] < t.first[p+1] {
			return t.syn.Load(), t.first[p], nil
		}
	}
	return nil, 0, fmt.Errorf("aig: Syn(%s) is not in scope (not yet evaluated?)", r.src.Elem)
}

// scalar returns the scalar r names for instance p of its context.
func (x *exec) scalar(r *ref, inh *attrTable, p int) (relstore.Value, error) {
	switch {
	case r.src.Member == "":
		return relstore.Null, fmt.Errorf("aig: %s: whole-attribute reference where a scalar is needed", r.src)
	case r.kind != aig.Scalar:
		return relstore.Null, fmt.Errorf("aig: no scalar member %q in %s(%s)", r.src.Member, r.src.Side, r.src.Elem)
	}
	t, i, err := x.at(r, inh, p)
	if err != nil {
		return relstore.Null, err
	}
	return t.cols[r.col].vals[i], nil
}

// appendTuple appends the scalar tuple r names for instance p to dst:
// its one scalar member, or every scalar member of a whole attribute.
func (x *exec) appendTuple(dst []relstore.Value, r *ref, inh *attrTable, p int) ([]relstore.Value, error) {
	if r.src.Member != "" {
		v, err := x.scalar(r, inh, p)
		return append(dst, v), err
	}
	t, i, err := x.at(r, inh, p)
	if err != nil {
		return dst, err
	}
	for _, j := range r.tuple {
		dst = append(dst, t.cols[j].vals[i])
	}
	return dst, nil
}

// rows returns the rows r binds for instance p: a collection member's
// rows, shared with their owner, or a scalar tuple as one row.
func (x *exec) rows(r *ref, inh *attrTable, p int) ([]relstore.Tuple, error) {
	if r.kind == aig.Scalar {
		row, err := x.appendTuple(nil, r, inh, p)
		return []relstore.Tuple{row}, err
	}
	t, i, err := x.at(r, inh, p)
	if err != nil {
		return nil, err
	}
	col := &t.cols[r.col]
	return col.rows[col.off[i]:col.off[i+1]], nil
}

// copyRule is a copy assignment of an inherited rule resolved against
// its parent context: target is the member's position in the child's
// Inh (-1 when it has none of that name).
type copyRule struct {
	name   string
	target int
	scalar bool // the target member is a scalar
	src    ref
}

func (g *graph) compileCopies(c, ch *ctxNode, ir *aig.InhRule) ([]copyRule, error) {
	if ir == nil {
		return nil, nil
	}
	var out []copyRule
	decl := g.a.Inh[ch.elem]
	for _, cp := range ir.Copies {
		src, err := g.ref(c, cp.Src)
		if err != nil {
			return nil, err
		}
		j := slices.IndexFunc(decl.Members, func(m aig.MemberDecl) bool { return m.Name == cp.TargetMember })
		out = append(out, copyRule{name: cp.TargetMember, target: j, scalar: j < 0 || decl.Members[j].Kind == aig.Scalar, src: src})
	}
	return out, nil
}

// applyCopies writes copies into the instance w has open, a child of
// the parent instance at position p whose Inh is inh, as the conceptual
// evaluator does: a scalar member from a scalar, a collection member
// from a collection's rows. The copies of a star query rule read every
// source as a scalar (scalarsOnly), as they do there.
func (x *exec) applyCopies(w *tableWriter, copies []copyRule, inh *attrTable, p int, scalarsOnly bool) error {
	for i := range copies {
		cp := &copies[i]
		if cp.scalar || scalarsOnly {
			v, err := x.scalar(&cp.src, inh, p)
			if err != nil {
				return err
			}
			if cp.target < 0 || !cp.scalar {
				return fmt.Errorf("aig: no scalar member %q in Inh", cp.name)
			}
			w.setScalar(cp.target, v)
			continue
		}
		rows, err := x.rows(&cp.src, inh, p)
		if err != nil {
			return err
		}
		w.setRows(cp.target, rows)
	}
	return nil
}

// synTerm is one term of a member's Syn rule expression resolved against
// its context. A scalar member's expression is one termScalar; a
// collection member's is its union flattened into terms ({} adds none).
type synTerm struct {
	kind termKind
	srcs []ref
}

type termKind uint8

const (
	termScalar     termKind = iota // the scalar srcs[0]
	termSingleton                  // one row of the srcs' scalars
	termCollection                 // the rows of srcs[0]
	termCollect                    // member srcs[0] of every child of type B
)

// synPlan is the Syn rule of one context resolved against its children:
// exprs[b][j] is member j's expression for an instance of choice branch
// b+1, exprs[0] for every instance of any other production; nil leaves
// the member Null or empty.
type synPlan struct {
	decl   aig.AttrDecl
	choice bool
	exprs  [][][]synTerm
	guards []aig.Guard
}

func (g *graph) compileSyn(c *ctxNode) (*synPlan, error) {
	p, _ := g.a.DTD.Production(c.elem)
	plan := &synPlan{decl: g.a.Syn[c.elem], choice: p.Kind == dtd.ProdChoice}
	r := g.a.Rules[c.elem]
	if r == nil {
		return plan, nil
	}
	rules := []*aig.SynRule{r.Syn}
	if plan.choice {
		rules = rules[:0]
		for _, b := range r.Branches {
			rules = append(rules, b.Syn)
		}
	}
	for _, sr := range rules {
		exprs := make([][]synTerm, len(plan.decl.Members))
		for j, m := range plan.decl.Members {
			if sr == nil || sr.Exprs[m.Name] == nil {
				continue
			}
			var err error
			if exprs[j], err = g.compileTerms(c, m, sr.Exprs[m.Name]); err != nil {
				return nil, fmt.Errorf("mediator: Syn(%s).%s: %v", c.elem, m.Name, err)
			}
		}
		plan.exprs = append(plan.exprs, exprs)
	}
	for _, gd := range r.Guards {
		for _, name := range []string{gd.Member, gd.Sub, gd.Super} {
			if m, ok := plan.decl.Member(name); name != "" && (!ok || m.Kind == aig.Scalar) {
				return nil, fmt.Errorf("mediator: guard %s on %s: Syn(%s) has no collection member %q", gd, c.path, c.elem, name)
			}
		}
	}
	plan.guards = r.Guards
	return plan, nil
}

func (g *graph) compileTerms(c *ctxNode, m aig.MemberDecl, expr aig.SynExpr) ([]synTerm, error) {
	var t synTerm
	var srcs []aig.SourceRef
	switch e := expr.(type) {
	case aig.EmptyOf:
	case aig.UnionOf:
		var out []synTerm
		for _, term := range e.Terms {
			ts, err := g.compileTerms(c, m, term)
			if err != nil {
				return nil, err
			}
			out = append(out, ts...)
		}
		return out, nil
	case aig.ScalarOf:
		t.kind, srcs = termScalar, []aig.SourceRef{e.Src}
	case aig.SingletonOf:
		t.kind, srcs = termSingleton, e.Srcs
	case aig.CollectionOf:
		t.kind, srcs = termCollection, []aig.SourceRef{e.Src}
	case aig.CollectChildren:
		t.kind, srcs = termCollect, []aig.SourceRef{{Side: aig.SynSide, Elem: e.Child, Member: e.Member}}
	default:
		return nil, fmt.Errorf("unsupported expression %T", expr)
	}
	if (m.Kind == aig.Scalar) != (t.kind == termScalar && srcs != nil) {
		return nil, fmt.Errorf("%s member with rule %s", m.Kind, expr)
	}
	if srcs == nil {
		return nil, nil
	}
	for _, s := range srcs {
		r, err := g.ref(c, s)
		if err != nil {
			return nil, err
		}
		t.srcs = append(t.srcs, r)
	}
	return []synTerm{t}, nil
}

// buildSyn installs the syn task of context c: it computes the
// synthesized attribute of all of c's instances in one pass, publishes
// it as c's syn table and checks c's guards on it.
func (g *graph) buildSyn(c *ctxNode) error {
	sn := g.synOf[c.path]
	g.addEdge(g.inhDone[c.path], sn, 0)
	for _, ch := range c.children {
		g.addEdge(g.synOf[ch.path], sn, 0)
	}
	sn.estCost = localCost(g.opts.Net, g.estRows[c.path], false)
	plan, err := g.compileSyn(c)
	if err != nil {
		return err
	}
	sn.runLocal = func(x *exec) (int, error) {
		t := x.st.table(c)
		if t == nil || len(plan.decl.Members) == 0 {
			return len(x.st.rows(c)), nil
		}
		s, err := x.computeSyn(plan, c, t)
		if err != nil {
			return 0, fmt.Errorf("mediator: syn of %s: %v", c.path, err)
		}
		t.syn.Store(s)
		x.checkGuards(c, plan, s, len(t.rows))
		return len(t.rows), nil
	}
	return nil
}

// computeSyn builds the syn table of the instances of context c's table
// t, one member column at a time, in the context's arrays.
func (x *exec) computeSyn(plan *synPlan, c *ctxNode, t *ctxTable) (*attrTable, error) {
	insts := t.rows
	cr := &x.ctxs[c.idx]
	s := &cr.syn
	s.cols = resize(s.cols, len(plan.decl.Members))
	cr.synB = resize(cr.synB, len(plan.decl.Members))
	vals := cr.vals[:0] // backs the singleton rows
	for j, m := range plan.decl.Members {
		col := &s.cols[j]
		if m.Kind == aig.Scalar {
			col.vals = resize(col.vals, len(insts))
			for i := range insts {
				v := relstore.Null
				if e := plan.expr(&insts[i], j); e != nil {
					var err error
					if v, err = x.scalar(&e[0].srcs[0], &t.inh, i); err != nil {
						return nil, err
					}
				}
				col.vals[i] = v
			}
			continue
		}
		b := &cr.synB[j]
		b.start(len(insts))
		var set *dedup
		if m.Kind == aig.Set {
			set = &cr.d
		}
		for i := range insts {
			if err := x.addTerms(b, plan.expr(&insts[i], j), &t.inh, i, &vals); err != nil {
				return nil, err
			}
			if err := b.end(set, m.Fields); err != nil {
				return nil, fmt.Errorf("aig: member %q: %v", m.Name, err)
			}
		}
		col.rows, col.off = b.rows, b.off
	}
	cr.vals = vals
	return s, nil
}

// expr returns member j's expression for one instance.
func (p *synPlan) expr(inst *instance, j int) []synTerm {
	b := 0
	if p.choice {
		b = inst.branch - 1
	}
	if b < 0 || b >= len(p.exprs) {
		return nil
	}
	return p.exprs[b][j]
}

// addTerms appends the rows the terms give instance i to its range in b;
// singleton rows are carved out of *vals.
func (x *exec) addTerms(b *colBuilder, terms []synTerm, inh *attrTable, i int, vals *[]relstore.Value) error {
	for k := range terms {
		t := &terms[k]
		switch t.kind {
		case termSingleton:
			lo := len(*vals)
			for si := range t.srcs {
				v, err := x.scalar(&t.srcs[si], inh, i)
				if err != nil {
					return err
				}
				*vals = append(*vals, v)
			}
			b.addRow((*vals)[lo:len(*vals):len(*vals)])
		case termCollection:
			rows, err := x.rows(&t.srcs[0], inh, i)
			if err != nil {
				return err
			}
			b.addRange(rows)
		case termCollect:
			r := &t.srcs[0]
			for _, ch := range r.kids {
				kt := x.st.table(ch)
				lo, hi := kt.first[i], kt.first[i+1]
				if lo == hi {
					continue
				}
				col := &kt.syn.Load().cols[r.col]
				if r.kind != aig.Scalar {
					b.addRange(col.rows[col.off[lo]:col.off[hi]])
					continue
				}
				for v := lo; v < hi; v++ {
					b.addRow(col.vals[v : v+1 : v+1])
				}
			}
		}
	}
	return nil
}

// checkGuards checks the guards of context c on every instance's range
// of its syn table s and records the first failure.
func (x *exec) checkGuards(c *ctxNode, plan *synPlan, s *attrTable, n int) {
	d := &x.ctxs[c.idx].d
	member := func(name string, i int) []relstore.Tuple {
		col := &s.cols[slices.IndexFunc(plan.decl.Members, func(m aig.MemberDecl) bool { return m.Name == name })]
		return col.rows[col.off[i]:col.off[i+1]]
	}
	for i := 0; i < n; i++ {
		for _, gd := range plan.guards {
			ok := false
			if gd.Kind == aig.GuardUnique {
				ok = !d.repeats(member(gd.Member, i))
			} else {
				ok = d.subset(member(gd.Sub, i), member(gd.Super, i))
			}
			if !ok {
				x.noteAbort(&aig.AbortError{Elem: c.elem, Path: c.path, Guard: gd})
				return
			}
		}
	}
}

// colBuilder assembles a collection column one instance range at a time.
// While every range continues the previous one inside one published
// array, rows is a slice of that array and nothing is copied; the first
// range that does not makes the builder copy into an array of its own:
// the one it owned in the exec's previous run, when it has room.
type colBuilder struct {
	rows  []relstore.Tuple
	off   []int
	owned bool
	hw    int              // the longest rows was before a set range dropped its repeats
	spare []relstore.Tuple // the array the builder owned in its last run, emptied
}

// start begins a column of n ranges.
func (b *colBuilder) start(n int) {
	b.rows, b.owned, b.hw = nil, false, 0
	b.off = append(slices.Grow(b.off[:0], n+1), 0)
}

// release clears the rows the builder wrote into the array it owns and
// keeps it for the next run's own, so a recycled exec keeps no rows
// alive.
func (b *colBuilder) release() {
	if b.owned {
		clear(b.rows[:max(b.hw, len(b.rows))])
		b.spare = b.rows[:0]
	}
	b.rows, b.owned, b.hw = nil, false, 0
}

// addRange appends rs to the current instance's range.
func (b *colBuilder) addRange(rs []relstore.Tuple) {
	n := len(b.rows)
	switch {
	case len(rs) == 0:
	case !b.owned && n == 0:
		b.rows = rs
	case !b.owned && cap(b.rows)-n >= len(rs) && &b.rows[:n+1][n] == &rs[0]:
		b.rows = b.rows[:n+len(rs)]
	default:
		b.own()
		b.rows = append(b.rows, rs...)
	}
}

// addRow appends one row to the current instance's range.
func (b *colBuilder) addRow(row relstore.Tuple) {
	b.own()
	b.rows = append(b.rows, row)
}

// own copies the rows into the builder's own array: the one it owned in
// the previous run, grown only when it has too little room.
func (b *colBuilder) own() {
	if !b.owned {
		b.rows = append(slices.Grow(b.spare, 2*len(b.rows)+8), b.rows...)
		b.spare, b.owned = nil, true
	}
}

// end closes the current instance's range after checking its rows
// against the member's fields. With d, the member is a set: the range
// keeps the first occurrence of each row, in order.
func (b *colBuilder) end(d *dedup, fields relstore.Schema) error {
	lo := b.off[len(b.off)-1]
	if d != nil && d.repeats(b.rows[lo:]) {
		b.own()
		b.hw = max(b.hw, len(b.rows))
		b.rows = b.rows[:lo+len(d.ix.KeepFirst(b.rows[lo:]))]
	}
	for _, row := range b.rows[lo:] {
		if err := fields.Validate(row); err != nil {
			return err
		}
	}
	b.off = append(b.off, len(b.rows))
	return nil
}

// dedup finds repeated rows within one range at a time, and checks one
// range's inclusion in another, through one relstore.HashIndex over
// whole rows, rebuilt for every range. Its array is reused from range
// to range, so it allocates only while it grows.
type dedup struct {
	ix relstore.HashIndex
}

// repeats reports whether a row of rs equals an earlier one; if so, the
// index is left built over rs, for KeepFirst.
func (d *dedup) repeats(rs []relstore.Tuple) bool {
	if len(rs) < 2 {
		return false
	}
	d.ix.Build(rs, nil)
	return !d.ix.Unique()
}

// subset reports whether every row of sub occurs in super.
func (d *dedup) subset(sub, super []relstore.Tuple) bool {
	if len(sub) == 0 {
		return true
	}
	d.ix.Build(super, nil)
	for _, row := range sub {
		if len(d.ix.Lookup(row)) == 0 {
			return false
		}
	}
	return true
}
