package aig

import (
	"fmt"

	"github.com/aigrepro/aig/internal/dtd"
	"github.com/aigrepro/aig/internal/xmltree"
)

// This file implements partial evaluation for fragment serving: instead
// of deriving the whole document, EvalPartial walks the grammar guided
// by a FragCursor — the compiled form of a path expression (built by
// internal/xpath, which lives above this package) — and fully evaluates
// only the subtrees the cursor collects. Subtrees the cursor proves
// unreachable from the requested path are never bound, their queries
// never run, and their nodes never materialize.
//
// The cursor protocol is defined here rather than in internal/xpath so
// the evaluator's internals (scopes, attribute binding, sibling order)
// stay private to this package: xpath implements the interface, aig
// drives it.

// FragAction is a cursor's verdict on one child instance.
type FragAction int

const (
	// FragSkip: the instance cannot contribute to the fragment; do not
	// evaluate it.
	FragSkip FragAction = iota
	// FragDescend: the instance is not itself a match, but matches may
	// exist below it; continue partial evaluation with Decision.Cursor.
	FragDescend
	// FragCollect: the instance is a match. Evaluate it fully and emit
	// the whole subtree (outermost-only: nothing below it is searched).
	FragCollect
	// FragVerify: the cursor cannot decide statically (a predicate is
	// not pushdownable). Evaluate the subtree fully and let
	// Decision.Verify find the matches post hoc.
	FragVerify
)

// FragDecision is the cursor's answer for one child instance.
type FragDecision struct {
	Action FragAction
	// Cursor continues the walk over the instance's children when
	// Action is FragDescend.
	Cursor FragCursor
	// Verify maps the fully evaluated instance subtree to the matches
	// within it. It is set for FragVerify (judge the node itself, then
	// its subtree) and for FragDescend (judge only the subtree — used
	// when the evaluator had to materialize the instance anyway for a
	// sibling's synthesized attribute). It must be called exactly once,
	// before the next sibling's Child call, so positional counters
	// shared with the cursor stay in document order.
	Verify func(*xmltree.Node) []*xmltree.Node
}

// FragCursor guides partial evaluation through one production
// instance's children. The evaluator calls Child exactly once per child
// instance it evaluates, in document order (the cursor keeps positional
// predicate counters keyed to that order), passing the child's bound
// inherited attribute. NeedChild is the pre-binding filter: when it
// reports false for a child type, no instance of that type can affect
// the fragment (no name test matches it and no remaining step can match
// inside its derivation subtree), and the evaluator skips binding and
// Child calls for it entirely.
type FragCursor interface {
	NeedChild(childType string) bool
	Child(childType string, inh *AttrValue) FragDecision
}

// EvalPartial evaluates the fragment the cursor describes: emit is
// called once per matched subtree, in document order, as soon as the
// subtree is produced — the serving layer streams each one out before
// the next is evaluated. doc is the document-level cursor; its single
// "child" is the root element.
//
// The grammar must be guard-free (a served grammar is when every
// constraint was certified): a guarded grammar could abort on subtrees a
// fragment request never evaluates, making the fragment's success
// dependent on what was skipped.
func (a *AIG) EvalPartial(env *Env, rootInh *AttrValue, doc FragCursor, emit func(*xmltree.Node) error) error {
	for elem, r := range a.Rules {
		if r != nil && len(r.Guards) > 0 {
			return fmt.Errorf("aig: partial evaluation needs a guard-free grammar, but %s has %d guard(s)", elem, len(r.Guards))
		}
	}
	if rootInh == nil {
		rootInh = NewAttrValue(a.Inh[a.DTD.Root])
	}
	root := a.DTD.Root
	if !doc.NeedChild(root) {
		return nil
	}
	return a.partialChild(env, root, rootInh, 0, doc, emit, nil, -1)
}

// partialChild consults the cursor for one child instance and acts on
// the decision. built is the instance's subtree when the evaluator
// already materialized it (for a sibling's synthesized attribute);
// otherwise the instance is evaluated only as far as the decision
// requires. occ disambiguates nothing semantically — it is only for
// error messages.
func (a *AIG) partialChild(env *Env, elem string, inh *AttrValue, depth int, cur FragCursor, emit func(*xmltree.Node) error, built *xmltree.Node, occ int) error {
	d := cur.Child(elem, inh)
	switch d.Action {
	case FragSkip:
		return nil
	case FragCollect:
		node := built
		if node == nil {
			var err error
			node, _, err = a.evalNode(env, elem, inh, depth)
			if err != nil {
				return err
			}
		}
		return emit(node)
	case FragVerify:
		node := built
		if node == nil {
			var err error
			node, _, err = a.evalNode(env, elem, inh, depth)
			if err != nil {
				return err
			}
		}
		for _, m := range d.Verify(node) {
			if err := emit(m); err != nil {
				return err
			}
		}
		return nil
	case FragDescend:
		if built != nil {
			// Already materialized: post-hoc filtering over the built
			// subtree is exact and cheaper than re-walking the grammar.
			for _, m := range d.Verify(built) {
				if err := emit(m); err != nil {
					return err
				}
			}
			return nil
		}
		return a.partialNode(env, elem, inh, depth, d.Cursor, emit)
	default:
		return fmt.Errorf("aig: fragment cursor returned unknown action %d for %s (occurrence %d)", d.Action, elem, occ)
	}
}

// partialNode continues partial evaluation below an instance the cursor
// decided to descend into.
func (a *AIG) partialNode(env *Env, elem string, inh *AttrValue, depth int, cur FragCursor, emit func(*xmltree.Node) error) error {
	if depth > env.maxDepth() {
		return fmt.Errorf("aig: recursion exceeded depth %d at element %s (cyclic source data?)", env.maxDepth(), elem)
	}
	p, ok := a.DTD.Production(elem)
	if !ok {
		return fmt.Errorf("aig: element type %q has no production", elem)
	}
	r := a.Rules[elem]
	switch p.Kind {
	case dtd.ProdText, dtd.ProdEmpty:
		// No element children: nothing below can match.
		return nil
	case dtd.ProdSeq:
		return a.partialSeq(env, elem, p, r, inh, depth, cur, emit)
	case dtd.ProdStar:
		return a.partialStar(env, elem, p, r, inh, depth, cur, emit)
	case dtd.ProdChoice:
		return a.partialChoice(env, elem, p, r, inh, depth, cur, emit)
	default:
		return fmt.Errorf("aig: bad production kind for %s", elem)
	}
}

// SynRefs lists the element types whose synthesized attribute an
// inherited-attribute rule reads (through copies or query parameters).
// The partial evaluator and xpath's liveness analysis both order work by
// it, so a fragment's verdict stays sound only while they share it.
func SynRefs(ir *InhRule) []string {
	if ir == nil {
		return nil
	}
	var out []string
	for _, c := range ir.Copies {
		if c.Src.Side == SynSide {
			out = append(out, c.Src.Elem)
		}
	}
	for _, src := range ir.QueryParams {
		if src.Side == SynSide {
			out = append(out, src.Elem)
		}
	}
	return out
}

// partialSeq is evalSeq without materializing the parent: children the
// cursor needs are bound (and, when a sibling's inherited attribute
// reads their Syn, fully evaluated) in dependency order, then the
// cursor is consulted once per instance in document order so positional
// predicates count exactly as a full render would.
func (a *AIG) partialSeq(env *Env, elem string, p dtd.Production, r *Rule, inh *AttrValue, depth int, cur FragCursor, emit func(*xmltree.Node) error) error {
	order, err := a.SiblingOrder(elem)
	if err != nil {
		return err
	}
	occurrences := make(map[string]int)
	for _, c := range p.Children {
		occurrences[c]++
	}

	// need: children the cursor wants to see (they match a name test or
	// a remaining step can match inside them). full: children that must
	// be completely evaluated because a needed child's inherited
	// attribute reads their synthesized attribute — closed transitively
	// over the Inh rules' Syn references.
	need := make(map[string]bool)
	for t := range occurrences {
		if cur.NeedChild(t) {
			need[t] = true
		}
	}
	full := make(map[string]bool)
	for changed := true; changed; {
		changed = false
		for t := range occurrences {
			if !need[t] && !full[t] {
				continue
			}
			var ir *InhRule
			if r != nil {
				ir = r.Inh[t]
			}
			for _, dep := range SynRefs(ir) {
				if occurrences[dep] > 0 && !full[dep] {
					full[dep] = true
					changed = true
				}
			}
		}
	}

	// Pass 1 (dependency order): bind inherited attributes; fully
	// evaluate the instances whose Syn a sibling needs.
	sc := &InstanceScope{Elem: elem, Inh: inh}
	inhs := make(map[string][]*AttrValue)
	builtNodes := make(map[string][]*xmltree.Node)
	for _, childType := range order {
		if !need[childType] && !full[childType] {
			continue
		}
		var ir *InhRule
		if r != nil {
			ir = r.Inh[childType]
		}
		for i := 0; i < occurrences[childType]; i++ {
			childInh := NewAttrValue(a.Inh[childType])
			if ir != nil {
				if err := a.evalInhSingle(env, ir, childType, childInh, sc); err != nil {
					return err
				}
			}
			inhs[childType] = append(inhs[childType], childInh)
			if full[childType] {
				childNode, childSyn, err := a.evalNode(env, childType, childInh, depth+1)
				if err != nil {
					return err
				}
				builtNodes[childType] = append(builtNodes[childType], childNode)
				sc.AddSyn(childType, childSyn)
			}
		}
	}

	// Pass 2 (document order): one cursor consultation per instance.
	consumed := make(map[string]int)
	for _, childType := range p.Children {
		i := consumed[childType]
		consumed[childType]++
		if !need[childType] {
			continue
		}
		var built *xmltree.Node
		if full[childType] {
			built = builtNodes[childType][i]
		}
		if err := a.partialChild(env, childType, inhs[childType][i], depth+1, cur, emit, built, i); err != nil {
			return err
		}
	}
	return nil
}

// partialStar is evalStar without materializing the parent — and, when
// the cursor does not need the star child at all, without even running
// the iteration query. Skipped rows are never bound or evaluated: this
// is where fragment evaluation stops scaling with document size.
func (a *AIG) partialStar(env *Env, elem string, p dtd.Production, r *Rule, inh *AttrValue, depth int, cur FragCursor, emit func(*xmltree.Node) error) error {
	child := p.Children[0]
	if r == nil || r.Inh[child] == nil {
		return fmt.Errorf("aig: star production of %s has no rule for %s", elem, child)
	}
	if !cur.NeedChild(child) {
		return nil
	}
	ir := r.Inh[child]
	sc := &InstanceScope{Elem: elem, Inh: inh}
	rows, schema, err := a.starRows(env, ir, sc)
	if err != nil {
		return err
	}
	for i, row := range rows {
		childInh := NewAttrValue(a.Inh[child])
		if err := childInh.BindScalarsFromRow(schema, row); err != nil {
			return fmt.Errorf("aig: %s children of %s: %v", child, elem, err)
		}
		if ir.IsQuery() {
			for _, c := range ir.Copies {
				v, err := sc.scalar(c.Src)
				if err != nil {
					return err
				}
				if err := childInh.SetScalar(c.TargetMember, v); err != nil {
					return err
				}
			}
		}
		if err := a.partialChild(env, child, childInh, depth+1, cur, emit, nil, i); err != nil {
			return err
		}
	}
	return nil
}

// partialChoice runs the condition query (the branch taken determines
// the document's shape, so it always runs), then treats the selected
// branch child like any other instance.
func (a *AIG) partialChoice(env *Env, elem string, p dtd.Production, r *Rule, inh *AttrValue, depth int, cur FragCursor, emit func(*xmltree.Node) error) error {
	if r == nil || r.Cond == nil {
		return fmt.Errorf("aig: choice production of %s has no condition query", elem)
	}
	sc := &InstanceScope{Elem: elem, Inh: inh}
	out, err := a.runQuery(env, r.Cond, r.CondParams, sc, nil)
	if err != nil {
		return err
	}
	i, err := chooseBranch(elem, inh, out, len(p.Children))
	if err != nil {
		return err
	}
	child := p.Children[i-1]
	if !cur.NeedChild(child) {
		return nil
	}
	var branch Branch
	if i-1 < len(r.Branches) {
		branch = r.Branches[i-1]
	}
	childInh := NewAttrValue(a.Inh[child])
	if branch.Inh != nil {
		if err := a.evalInhSingle(env, branch.Inh, child, childInh, sc); err != nil {
			return err
		}
	}
	return a.partialChild(env, child, childInh, depth+1, cur, emit, nil, 0)
}
