package mediator

import (
	"fmt"
	"sort"

	"github.com/aigrepro/aig/internal/aig"
	"github.com/aigrepro/aig/internal/dtd"
	"github.com/aigrepro/aig/internal/relstore"
	"github.com/aigrepro/aig/internal/xmltree"
)

// tag is the tagging phase (§5.1): it assembles the output document from
// the cached instance tables, top-down. Star children are emitted in the
// canonical order (sorted by their inherited scalar tuple, stable), the
// same order the conceptual evaluator uses, so both evaluators produce
// identical documents. Internal bookkeeping (ids) never reaches the
// output; unfolded types are emitted under their original labels.
func (x *exec) tag() (*xmltree.Node, error) {
	roots := x.st.rows(x.g.root)
	if len(roots) != 1 {
		return nil, fmt.Errorf("mediator: expected one root instance, have %d", len(roots))
	}
	return x.tagInstance(x.g.root, 0, &roots[0])
}

// tagInstance tags the instance at position id of context c.
func (x *exec) tagInstance(c *ctxNode, id int, inst *instance) (*xmltree.Node, error) {
	g := x.g
	node := xmltree.NewElement(g.a.Label(c.elem))
	p, ok := g.a.DTD.Production(c.elem)
	if !ok {
		return nil, fmt.Errorf("mediator: no production for %q", c.elem)
	}
	switch p.Kind {
	case dtd.ProdText:
		node.AppendText(g.textOf(c.elem, inst))
	case dtd.ProdEmpty:
	case dtd.ProdSeq:
		for _, ch := range c.children {
			kids, lo := x.st.children(ch, id)
			if len(kids) != 1 {
				return nil, fmt.Errorf("mediator: sequence child %s has %d instances under id %d, want 1", ch.path, len(kids), id)
			}
			sub, err := x.tagInstance(ch, lo, &kids[0])
			if err != nil {
				return nil, err
			}
			node.AppendChild(sub)
		}
	case dtd.ProdStar:
		ch := c.children[0]
		// Each child's sort key is built once, not once per comparison.
		type keyed struct {
			key relstore.Tuple
			i   int
		}
		kids, lo := x.st.children(ch, id)
		sorted := make([]keyed, len(kids))
		for i := range kids {
			sorted[i] = keyed{kids[i].inh.ScalarTuple(), i}
		}
		sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].key.Compare(sorted[j].key) < 0 })
		for _, k := range sorted {
			sub, err := x.tagInstance(ch, lo+k.i, &kids[k.i])
			if err != nil {
				return nil, err
			}
			node.AppendChild(sub)
		}
	case dtd.ProdChoice:
		if inst.branch < 1 || inst.branch > len(c.children) {
			return nil, fmt.Errorf("mediator: choice instance of %s has no branch", c.path)
		}
		ch := c.children[inst.branch-1]
		kids, lo := x.st.children(ch, id)
		if len(kids) != 1 {
			return nil, fmt.Errorf("mediator: choice child %s has %d instances, want 1", ch.path, len(kids))
		}
		sub, err := x.tagInstance(ch, lo, &kids[0])
		if err != nil {
			return nil, err
		}
		node.AppendChild(sub)
	}
	return node, nil
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
