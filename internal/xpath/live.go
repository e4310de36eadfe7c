package xpath

import (
	"sort"
	"strconv"

	"github.com/aigrepro/aig/internal/aig"
	"github.com/aigrepro/aig/internal/dtd"
)

// Verdict is the liveness analysis of one path over one grammar, as one
// keep-or-drop decision per (parent type, child type) edge, copy edges
// included. An edge is kept when some evaluation of the path may need
// its child's instances: the child can match a step or hold a match
// below it, is a child a [child='X'] test reads, or feeds the
// inherited attribute of a kept sibling through its Syn — and then its
// whole subtree is kept, as is every matched element's. A choice's
// condition query is the edge (choice, "").
//
// Two consumers read the one verdict, so what a fragment reads and what
// invalidates its cached bytes cannot drift apart: ivm.ExtractFiltered
// keeps the scans of the kept edges (the refresher's dependency map),
// and the mediator prunes its plan to them (mediator.Verdict). The
// analysis walks the same (element type × state set) pairs partial
// evaluation does, with every runtime-decided predicate taken both
// ways, so it keeps a superset of what any concrete evaluation reads —
// which is what makes restamping on an Unaffected verdict sound.
type Verdict struct {
	key string
	// live marks single edges: (rule element, child) pairs whose query
	// or copy an evaluation may run. A choice condition is (elem, "").
	live map[pushKey]bool
	// full marks element types whose whole subtree may be evaluated
	// (collected, verified, read by a predicate, or forced by a sibling's
	// Syn dependency) — every edge at or below them is kept.
	full map[string]bool
}

// Verdict runs the liveness analysis of the path over grammar a, the
// grammar c was compiled against.
func (c *Compiled) Verdict(a *aig.AIG) *Verdict {
	lv := &liveness{
		c:    c,
		a:    a,
		seen: make(map[string]bool),
		v:    &Verdict{key: c.path.String(), live: make(map[pushKey]bool), full: make(map[string]bool)},
	}
	lv.process(a.DTD.Root, []int{0})
	return lv.v
}

// Keep reports whether the edge from parent to child is kept; child ""
// is a choice's condition query.
func (v *Verdict) Keep(parent, child string) bool {
	return v.full[parent] || v.live[pushKey{elem: parent, child: child}]
}

// Key is the path's canonical rendering.
func (v *Verdict) Key() string { return v.key }

type liveness struct {
	c    *Compiled
	a    *aig.AIG
	seen map[string]bool
	v    *Verdict
}

// judge abstracts cursor.Child for an instance of type t under the
// parent-walk states: whether the instance may end up fully evaluated
// (collect, or verify because a predicate is not pushdownable), and the
// state set for the walk over its children. Positional predicates and
// pushdownable equality tests are taken both ways.
func (lv *liveness) judge(t string, states []int) (hot bool, next []int) {
	steps := lv.c.path.Steps
	label := lv.c.label(t)
	for _, s := range states {
		st := &steps[s]
		if st.Axis == Descendant && lv.c.live(s, t) {
			next = appendState(next, s)
		}
		if !nameMatches(st.Name, label) {
			continue
		}
		fail := false
		for _, pred := range st.Preds {
			if p, ok := pred.(ChildEq); ok {
				if !lv.c.childLabels[t][p.Child] {
					fail = true // statically impossible, on every instance
					break
				}
				if _, pushable := lv.c.push[pushKey{elem: t, child: p.Child}]; !pushable {
					hot = true // FragVerify evaluates the whole subtree
				}
				lv.keepLabeled(t, p.Child) // a matcher on the tree reads them
			}
		}
		if fail {
			continue
		}
		if s == len(steps)-1 {
			hot = true // FragCollect evaluates the whole subtree
		} else if lv.c.live(s+1, t) {
			next = appendState(next, s+1)
		}
	}
	return hot, next
}

// needChild abstracts cursor.NeedChild: the cursor's runtime state set
// is always a subset of the abstract one, so a static false is a true
// "this child's queries never run".
func (lv *liveness) needChild(t string, states []int) bool {
	for _, s := range states {
		st := &lv.c.path.Steps[s]
		if nameMatches(st.Name, lv.c.label(t)) {
			return true
		}
		if st.Axis == Descendant && lv.c.live(s, t) {
			return true
		}
	}
	return false
}

func (lv *liveness) process(t string, states []int) {
	key := stateKey(t, states)
	if lv.seen[key] {
		return
	}
	lv.seen[key] = true

	hot, next := lv.judge(t, states)
	if hot {
		lv.markFull(t)
	}
	if len(next) == 0 || lv.v.full[t] {
		return // nothing (more) can run below this instance
	}
	prod, ok := lv.a.DTD.Production(t)
	if !ok {
		return
	}
	r := lv.a.Rules[t]
	switch prod.Kind {
	case dtd.ProdText, dtd.ProdEmpty:
		return
	case dtd.ProdStar:
		child := prod.Children[0]
		if lv.needChild(child, next) {
			lv.v.live[pushKey{elem: t, child: child}] = true
			lv.process(child, next)
		}
	case dtd.ProdSeq:
		occurs := make(map[string]bool)
		for _, c := range prod.Children {
			occurs[c] = true
		}
		need := make(map[string]bool)
		for c := range occurs {
			if lv.needChild(c, next) {
				need[c] = true
			}
		}
		// Sibling Syn dependencies force full evaluation, exactly as
		// partialSeq closes them.
		full := make(map[string]bool)
		for changed := true; changed; {
			changed = false
			for c := range occurs {
				if !need[c] && !full[c] {
					continue
				}
				if r == nil {
					continue
				}
				for _, dep := range aig.SynRefs(r.Inh[c]) {
					if occurs[dep] && !full[dep] {
						full[dep] = true
						changed = true
					}
				}
			}
		}
		for c := range occurs {
			if need[c] || full[c] {
				lv.v.live[pushKey{elem: t, child: c}] = true
			}
			if full[c] {
				lv.markFull(c)
			} else if need[c] {
				lv.process(c, next)
			}
		}
	case dtd.ProdChoice:
		// The condition query always runs on a descended instance.
		lv.v.live[pushKey{elem: t, child: ""}] = true
		for _, c := range prod.Children {
			if lv.needChild(c, next) {
				lv.v.live[pushKey{elem: t, child: c}] = true
				lv.process(c, next)
			}
		}
	}
}

// keepLabeled keeps, whole, the children of type t that carry label:
// the elements a [label='X'] test on an instance of t compares.
func (lv *liveness) keepLabeled(t, label string) {
	prod, ok := lv.a.DTD.Production(t)
	if !ok {
		return
	}
	for _, k := range prod.Children {
		if lv.c.label(k) == label {
			lv.v.live[pushKey{elem: t, child: k}] = true
			lv.markFull(k)
		}
	}
}

// markFull marks a type and every type derivable below it as fully
// evaluated: all their scans are live.
func (lv *liveness) markFull(t string) {
	if lv.v.full[t] {
		return
	}
	lv.v.full[t] = true
	if prod, ok := lv.a.DTD.Production(t); ok {
		for _, c := range prod.Children {
			lv.markFull(c)
		}
	}
}

func stateKey(t string, states []int) string {
	ss := append([]int(nil), states...)
	sort.Ints(ss)
	key := t
	for _, s := range ss {
		key += "|" + strconv.Itoa(s)
	}
	return key
}
