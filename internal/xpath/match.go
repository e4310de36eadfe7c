package xpath

import (
	"github.com/aigrepro/aig/internal/xmltree"
)

// Select evaluates the path over a rendered document and returns the
// matched elements in document order — the post-hoc oracle against
// which the partial evaluator and the pruned plan's Stream are
// differentially tested. Matches are outermost-only: a matched element's
// descendants are not searched.
func Select(root *xmltree.Node, p *Path) []*xmltree.Node {
	if root == nil || len(p.Steps) == 0 {
		return nil
	}
	var out []*xmltree.Node
	walkChildren(p.Steps, []*xmltree.Node{root}, []int{0}, newCounters(), &out)
	return out
}

// counterKey identifies one positional counter: the active state (step
// index) and the predicate's position within that step. Counters are
// scoped to one walk over one parent's children — proximity position in
// the XPath sense.
type counterKey struct {
	state int
	pred  int
}

type counters map[counterKey]int

func newCounters() counters { return make(counters) }

// walkChildren advances the active states over the element children of
// one parent, collecting matches into out.
func walkChildren(steps []Step, children []*xmltree.Node, states []int, ctr counters, out *[]*xmltree.Node) {
	for _, c := range children {
		if c.Kind != xmltree.ElementNode {
			continue
		}
		matched, next := matchOne(steps, c, states, ctr)
		if matched {
			*out = append(*out, c)
			continue
		}
		if len(next) > 0 {
			walkChildren(steps, c.Children, next, newCounters(), out)
		}
	}
}

// matchOne judges one element against the active states of its parent's
// walk: whether the node is a result (some state's final step accepts
// it), and which states remain active for the walk over its children.
// Positional counters for name-matching states are advanced as a side
// effect; the caller must therefore call matchOne exactly once per
// element child, in document order.
func matchOne(steps []Step, n *xmltree.Node, states []int, ctr counters) (matched bool, next []int) {
	for _, s := range states {
		st := &steps[s]
		if st.Axis == Descendant {
			next = appendState(next, s)
		}
		if !nameMatches(st.Name, n.Label) {
			continue
		}
		if !evalPreds(st, s, n, ctr) {
			continue
		}
		if s == len(steps)-1 {
			matched = true
			continue
		}
		next = appendState(next, s+1)
	}
	if matched {
		// Outermost-only: a matched node's subtree is never searched.
		return true, nil
	}
	return false, next
}

// evalPreds applies a step's predicates to a node in source order,
// advancing positional counters exactly when the node reached the
// predicate (passed the name test and every preceding predicate).
func evalPreds(st *Step, state int, n *xmltree.Node, ctr counters) bool {
	for i, pred := range st.Preds {
		switch p := pred.(type) {
		case ChildEq:
			if !childEq(n, p) {
				return false
			}
		case Index:
			k := counterKey{state: state, pred: i}
			ctr[k]++
			if ctr[k] != p.N {
				return false
			}
		}
	}
	return true
}

// childEq reports whether n has a child element labeled p.Child whose
// string value equals p.Value.
func childEq(n *xmltree.Node, p ChildEq) bool {
	for _, c := range n.Children {
		if c.Kind == xmltree.ElementNode && c.Label == p.Child && c.StringValue() == p.Value {
			return true
		}
	}
	return false
}

// appendState adds a state to a set kept as a small sorted-insertion
// slice, deduplicating (state sets are tiny — at most one entry per
// step).
func appendState(set []int, s int) []int {
	for _, have := range set {
		if have == s {
			return set
		}
	}
	return append(set, s)
}
