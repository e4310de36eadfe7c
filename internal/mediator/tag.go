package mediator

import (
	"fmt"
	"slices"

	"github.com/aigrepro/aig/internal/aig"
	"github.com/aigrepro/aig/internal/dtd"
)

// Sink receives a document as events in document order: Open and Close
// bracket an element with element content, Leaf is an element whose only
// child is text (possibly empty), Empty a childless element.
// xmltree.Encoder streams the bytes, xmltree.Builder builds the tree, and
// xpath.Stream writes the matches of a path.
type Sink interface {
	Open(label string)
	Leaf(label, text string)
	Empty(label string)
	Close(label string)
}

// tagFacts is what the tag walk needs of one context, resolved when the
// plan is compiled.
type tagFacts struct {
	label string
	kind  dtd.ProdKind
	// text is the Inh member a text element emits, mirroring the
	// conceptual evaluator: the rule's TextSrc member, defaulting to the
	// single inherited scalar (-1: none, the text is empty).
	text int
	// keys are the positions of the Inh scalars, the canonical order of
	// star children.
	keys []int
}

func (g *graph) tagFacts(c *ctxNode) tagFacts {
	p, _ := g.a.DTD.Production(c.elem)
	f := tagFacts{label: g.a.Label(c.elem), kind: p.Kind, text: -1}
	if len(c.children) > 0 && !slices.ContainsFunc(c.children, func(ch *ctxNode) bool { return !ch.pruned }) {
		f.kind = dtd.ProdEmpty // a pruned plan emits nothing below it
	}
	decl := g.a.Inh[c.elem]
	for j, m := range decl.Members {
		if m.Kind == aig.Scalar {
			f.keys = append(f.keys, j)
		}
	}
	if len(f.keys) == 1 {
		f.text = f.keys[0]
	}
	if r := g.a.Rules[c.elem]; r != nil && r.TextSrc.Member != "" {
		if j := slices.IndexFunc(decl.Members, func(m aig.MemberDecl) bool { return m.Name == r.TextSrc.Member }); j >= 0 && decl.Members[j].Kind == aig.Scalar {
			f.text = j
		}
	}
	return f
}

// tagger is one tag walk: the store it reads, the sink it feeds, and a
// stack of star children's positions, one segment per open star parent
// in canonical order.
type tagger struct {
	st    store
	s     Sink
	order []int
}

// tag is the tagging phase (§5.1): one top-down walk over the instance
// tables that hands the document to s, so the same walk streams bytes,
// builds a tree or matches a path. Star children are emitted in the
// canonical order (sorted by their inherited scalar tuple, stable), the
// same order the conceptual evaluator uses, so both evaluators produce
// identical documents. Internal bookkeeping (ids) never reaches the
// output; unfolded types are emitted under their original labels. A
// pruned plan skips its pruned contexts: an element with nothing kept
// below it is emitted empty.
func (x *exec) tag(s Sink) error {
	if roots := x.st.rows(x.g.root); len(roots) != 1 {
		return fmt.Errorf("mediator: expected one root instance, have %d", len(roots))
	}
	w := tagger{st: x.st, s: s, order: x.order[:0]}
	err := w.tag(x.g.root, 0)
	x.order = w.order
	return err
}

// tag tags the instance at position id of context c.
func (w *tagger) tag(c *ctxNode, id int) error {
	f := &c.tag
	switch f.kind {
	case dtd.ProdText:
		text := ""
		if f.text >= 0 {
			text = w.st.table(c).inh.cols[f.text].vals[id].Text()
		}
		w.s.Leaf(f.label, text)
		return nil
	case dtd.ProdSeq:
		if len(c.children) == 0 {
			break
		}
		w.s.Open(f.label)
		for _, ch := range c.children {
			if ch.pruned {
				continue
			}
			lo, hi := w.st.span(ch, id)
			if hi-lo != 1 {
				return fmt.Errorf("mediator: sequence child %s has %d instances under id %d, want 1", ch.path, hi-lo, id)
			}
			if err := w.tag(ch, lo); err != nil {
				return err
			}
		}
		w.s.Close(f.label)
		return nil
	case dtd.ProdStar:
		ch := c.children[0]
		lo, hi := w.st.span(ch, id)
		if lo == hi {
			break
		}
		w.s.Open(f.label)
		base := len(w.order)
		for i := lo; i < hi; i++ {
			w.order = append(w.order, i)
		}
		cols, keys := w.st.table(ch).inh.cols, ch.tag.keys
		slices.SortStableFunc(w.order[base:], func(a, b int) int {
			for _, j := range keys {
				if c := cols[j].vals[a].Compare(cols[j].vals[b]); c != 0 {
					return c
				}
			}
			return 0
		})
		// Children push their own segments above this one.
		for k := base; k < base+hi-lo; k++ {
			if err := w.tag(ch, w.order[k]); err != nil {
				return err
			}
		}
		w.order = w.order[:base]
		w.s.Close(f.label)
		return nil
	case dtd.ProdChoice:
		b := w.st.table(c).rows[id].branch
		if b < 1 || b > len(c.children) {
			return fmt.Errorf("mediator: choice instance of %s has no branch", c.path)
		}
		ch := c.children[b-1]
		if ch.pruned {
			break
		}
		lo, hi := w.st.span(ch, id)
		if hi-lo != 1 {
			return fmt.Errorf("mediator: choice child %s has %d instances, want 1", ch.path, hi-lo)
		}
		w.s.Open(f.label)
		if err := w.tag(ch, lo); err != nil {
			return err
		}
		w.s.Close(f.label)
		return nil
	}
	w.s.Empty(f.label)
	return nil
}
