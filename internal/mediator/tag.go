package mediator

import (
	"fmt"
	"slices"

	"github.com/aigrepro/aig/internal/aig"
	"github.com/aigrepro/aig/internal/dtd"
	"github.com/aigrepro/aig/internal/relstore"
)

// sink receives a document as events in document order: Open and Close
// bracket an element with element content, Leaf is an element whose only
// child is text (possibly empty), Empty a childless element.
// xmltree.Encoder streams the bytes, xmltree.Builder builds the tree.
type sink interface {
	Open(label string)
	Leaf(label, text string)
	Empty(label string)
	Close(label string)
}

// tag is the tagging phase (§5.1): one top-down walk over the instance
// tables that hands the document to s, so the same walk streams bytes or
// builds a tree. Star children are emitted in the canonical order (sorted
// by their inherited scalar tuple, stable), the same order the conceptual
// evaluator uses, so both evaluators produce identical documents.
// Internal bookkeeping (ids) never reaches the output; unfolded types are
// emitted under their original labels.
func (x *exec) tag(s sink) error {
	roots := x.st.rows(x.g.root)
	if len(roots) != 1 {
		return fmt.Errorf("mediator: expected one root instance, have %d", len(roots))
	}
	return x.tagInstance(s, x.g.root, 0, &roots[0])
}

// tagInstance tags the instance at position id of context c.
func (x *exec) tagInstance(s sink, c *ctxNode, id int, inst *instance) error {
	g, st := x.g, x.st
	label := g.a.Label(c.elem)
	p, ok := g.a.DTD.Production(c.elem)
	if !ok {
		return fmt.Errorf("mediator: no production for %q", c.elem)
	}
	switch p.Kind {
	case dtd.ProdText:
		s.Leaf(label, g.textOf(c.elem, inst))
		return nil
	case dtd.ProdSeq:
		if len(c.children) == 0 {
			break
		}
		s.Open(label)
		for _, ch := range c.children {
			kids, lo := st.children(ch, id)
			if len(kids) != 1 {
				return fmt.Errorf("mediator: sequence child %s has %d instances under id %d, want 1", ch.path, len(kids), id)
			}
			if err := x.tagInstance(s, ch, lo, &kids[0]); err != nil {
				return err
			}
		}
		s.Close(label)
		return nil
	case dtd.ProdStar:
		ch := c.children[0]
		kids, lo := st.children(ch, id)
		if len(kids) == 0 {
			break
		}
		s.Open(label)
		// Each child's sort key is built once, not once per comparison.
		type keyed struct {
			key relstore.Tuple
			i   int
		}
		sorted := make([]keyed, len(kids))
		for i := range kids {
			sorted[i] = keyed{kids[i].inh.ScalarTuple(), i}
		}
		slices.SortStableFunc(sorted, func(a, b keyed) int { return a.key.Compare(b.key) })
		for _, k := range sorted {
			if err := x.tagInstance(s, ch, lo+k.i, &kids[k.i]); err != nil {
				return err
			}
		}
		s.Close(label)
		return nil
	case dtd.ProdChoice:
		if inst.branch < 1 || inst.branch > len(c.children) {
			return fmt.Errorf("mediator: choice instance of %s has no branch", c.path)
		}
		ch := c.children[inst.branch-1]
		kids, lo := st.children(ch, id)
		if len(kids) != 1 {
			return fmt.Errorf("mediator: choice child %s has %d instances, want 1", ch.path, len(kids))
		}
		s.Open(label)
		if err := x.tagInstance(s, ch, lo, &kids[0]); err != nil {
			return err
		}
		s.Close(label)
		return nil
	}
	s.Empty(label)
	return nil
}

// textOf extracts the PCDATA of a text-element instance, mirroring the
// conceptual evaluator: the rule's TextSrc member, defaulting to the
// single inherited scalar.
func (g *graph) textOf(elem string, inst *instance) string {
	r := g.a.Rules[elem]
	if r != nil && r.TextSrc != (aig.SourceRef{}) && r.TextSrc.Member != "" {
		if v, err := inst.inh.Scalar(r.TextSrc.Member); err == nil {
			return v.Text()
		}
	}
	if tup := inst.inh.ScalarTuple(); len(tup) == 1 {
		return tup[0].Text()
	}
	return ""
}
