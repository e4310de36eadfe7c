package specialize

import (
	"fmt"
	"sort"
	"strings"

	"github.com/aigrepro/aig/internal/aig"
	"github.com/aigrepro/aig/internal/dtd"
	"github.com/aigrepro/aig/internal/srcpos"
)

// Unfold rewrites a recursive AIG into a non-recursive one by replicating
// each recursive element type once per level, up to the given depth
// (§5.5). Replicas are named "type@level" and carry a label mapping back
// to the original type name, so generated documents still conform to the
// original DTD. At the cutoff depth, star productions that would recurse
// further are truncated to the empty production (their queries simply
// never run); a sequence or choice that cannot be truncated this way is
// an error.
//
// Constraints compiled into guards survive unfolding (the guards are
// attached to every replica); the declarative constraint list is cleared
// because its type names no longer exist in the unfolded DTD — compile
// constraints before unfolding.
func Unfold(a *aig.AIG, depth int) (*aig.AIG, error) {
	out, _, err := UnfoldInfo(a, depth)
	return out, err
}

// TruncProbe describes one truncated replica type: the star production
// that was cut and its original query rule (with attribute references
// renamed to the replica), so that runtime re-unrolling (§5.5) can probe
// whether any instance was blocked waiting for deeper expansion.
type TruncProbe struct {
	Type string
	Rule *aig.InhRule
}

// UnfoldInfo is Unfold, additionally reporting a probe per truncated
// replica type (e.g. "procedure@5"). An empty list means the unfolding is
// exact for every instance.
func UnfoldInfo(a *aig.AIG, depth int) (*aig.AIG, []TruncProbe, error) {
	if depth < 1 {
		return nil, nil, fmt.Errorf("specialize: unfold depth must be >= 1, got %d", depth)
	}
	rec := a.DTD.RecursiveTypes()
	if len(rec) == 0 {
		return a.Clone(), nil, nil
	}
	comp := sccIDs(a.DTD)
	// Header of each recursive SCC: the type at which the cycle is cut.
	// Truncation replaces the productions referencing header@(depth+1)
	// with empty ones, which is only legal for star productions — so
	// prefer a member whose intra-SCC parents are all stars (e.g.
	// "treatment", referenced by procedure -> treatment*). Ties and
	// fallbacks resolve lexicographically.
	header := make(map[int]string)
	cuttable := make(map[string]bool)
	for t := range rec {
		cuttable[t] = true
	}
	for _, parent := range a.DTD.Types() {
		p, _ := a.DTD.Production(parent)
		if !rec[parent] {
			continue
		}
		for _, c := range p.Children {
			if rec[c] && comp[c] == comp[parent] && p.Kind != dtd.ProdStar {
				cuttable[c] = false
			}
		}
	}
	for t := range rec {
		id := comp[t]
		h, ok := header[id]
		switch {
		case !ok:
			header[id] = t
		case cuttable[t] && !cuttable[h]:
			header[id] = t
		case cuttable[t] == cuttable[h] && t < h:
			header[id] = t
		}
	}

	u := &unfolder{
		src:    a,
		depth:  depth,
		rec:    rec,
		comp:   comp,
		header: header,
		out:    aig.New(dtd.New("")),
		done:   make(map[string]bool),
	}
	u.out.Labels = make(map[string]string)
	u.out.DTD.Root = a.DTD.Root
	if rec[a.DTD.Root] {
		u.out.DTD.Root = levelName(a.DTD.Root, 1)
	}
	// Expand every reachable type. Non-recursive types keep their names;
	// recursive types are expanded per level on demand.
	if err := u.expand(a.DTD.Root, 0); err != nil {
		return nil, nil, err
	}
	u.out.Constraints = nil
	if err := u.out.DTD.Validate(); err != nil {
		return nil, nil, fmt.Errorf("specialize: unfolding produced an invalid DTD: %v", err)
	}
	sort.Slice(u.truncated, func(i, j int) bool { return u.truncated[i].Type < u.truncated[j].Type })
	return u.out, u.truncated, nil
}

func levelName(t string, level int) string { return fmt.Sprintf("%s@%d", t, level) }

// ReplicaOf returns the type an unfolded replica type replicates
// ("treatment@3" is a replica of "treatment"); any other name, "" included,
// is returned as it is. DTD names cannot contain '@'.
func ReplicaOf(t string) string {
	if i := strings.LastIndexByte(t, '@'); i >= 0 {
		return t[:i]
	}
	return t
}

type unfolder struct {
	src    *aig.AIG
	depth  int
	rec    map[string]bool
	comp   map[string]int
	header map[int]string
	out    *aig.AIG
	done   map[string]bool

	truncated []TruncProbe
}

// childName maps a child reference from a type at the given level (0 for
// non-recursive context) to the unfolded child type name, or "" when the
// reference crosses the depth cutoff.
func (u *unfolder) childName(parent string, parentLevel int, child string) string {
	if !u.rec[child] {
		return child
	}
	level := 1
	if parentLevel > 0 && u.comp[parent] == u.comp[child] {
		level = parentLevel
		if child == u.header[u.comp[child]] {
			level = parentLevel + 1
		}
	}
	if level > u.depth {
		return ""
	}
	return levelName(child, level)
}

// expand produces the unfolded type (and transitively its children) for
// the original type at the given level (0 for non-recursive types).
func (u *unfolder) expand(orig string, level int) error {
	name := orig
	if u.rec[orig] {
		name = levelName(orig, level)
	}
	if u.done[name] {
		return nil
	}
	u.done[name] = true
	if u.rec[orig] {
		u.out.Labels[name] = orig
	}

	p, ok := u.src.DTD.Production(orig)
	if !ok {
		return fmt.Errorf("specialize: type %q has no production", orig)
	}

	// Map children, detecting truncation.
	mapped := make([]string, len(p.Children))
	truncated := false
	for i, c := range p.Children {
		mapped[i] = u.childName(orig, level, c)
		if mapped[i] == "" {
			truncated = true
		}
	}
	if truncated && p.Kind != dtd.ProdStar {
		return fmt.Errorf("specialize: cannot truncate %s production of %q at depth %d; only star productions can be cut", p.Kind, orig, u.depth)
	}

	// Attribute declarations carry over.
	u.out.Inh[name] = u.src.Inh[orig].Clone()
	u.out.Syn[name] = u.src.Syn[orig].Clone()

	rule := u.src.Rules[orig]

	if truncated {
		// Cut star: the type becomes empty; collection members of Syn
		// default to empty, scalars to Null, and guards still apply.
		probe := TruncProbe{Type: name}
		if rule != nil {
			if ir := rule.Inh[p.Children[0]]; ir.IsQuery() {
				renamed := renameRule(rule, name, func(s string) string {
					if s == orig {
						return name
					}
					return s
				})
				probe.Rule = renamed.Inh[p.Children[0]]
			}
		}
		u.truncated = append(u.truncated, probe)
		u.out.DTD.DefineEmpty(name)
		if rule != nil {
			nr := &aig.Rule{Elem: name, Guards: append([]aig.Guard(nil), rule.Guards...)}
			if !u.src.Syn[orig].IsEmpty() {
				nr.Syn = &aig.SynRule{Exprs: map[string]aig.SynExpr{}}
				for _, m := range u.src.Syn[orig].Members {
					if m.Kind != aig.Scalar {
						nr.Syn.Exprs[m.Name] = aig.EmptyOf{}
					}
				}
			}
			u.out.Rules[name] = nr
		}
		return nil
	}

	u.out.DTD.Define(name, dtd.Production{Kind: p.Kind, Children: mapped})

	if rule != nil {
		rename := func(s string) string {
			// Child rename within this production.
			for i, c := range p.Children {
				if c == s {
					return mapped[i]
				}
			}
			if s == orig {
				return name
			}
			return s
		}
		u.out.Rules[name] = renameRule(rule, name, rename)
	}

	for i, c := range p.Children {
		childLevel := 0
		if u.rec[c] {
			// Parse level back from mapped name: we know the mapping rule.
			childLevel = 1
			if level > 0 && u.comp[orig] == u.comp[c] {
				childLevel = level
				if c == u.header[u.comp[c]] {
					childLevel = level + 1
				}
			}
		}
		_ = mapped[i]
		if err := u.expand(c, childLevel); err != nil {
			return err
		}
	}
	return nil
}

// renameRule deep-copies a rule, renaming element references via the
// rename function.
func renameRule(r *aig.Rule, elem string, rename func(string) string) *aig.Rule {
	renameRef := func(s aig.SourceRef) aig.SourceRef {
		s.Elem = rename(s.Elem)
		return s
	}
	renameParams := func(m map[string]aig.SourceRef) map[string]aig.SourceRef {
		if m == nil {
			return nil
		}
		out := make(map[string]aig.SourceRef, len(m))
		for k, v := range m {
			out[k] = renameRef(v)
		}
		return out
	}
	renameInh := func(ir *aig.InhRule) *aig.InhRule {
		if ir == nil {
			return nil
		}
		out := &aig.InhRule{
			Child:            rename(ir.Child),
			TargetCollection: ir.TargetCollection,
			QueryParams:      renameParams(ir.QueryParams),
			Pos:              ir.Pos,
			QueryPos:         ir.QueryPos,
		}
		if ir.Query != nil {
			out.Query = ir.Query.Clone()
		}
		for _, q := range ir.Chain {
			out.Chain = append(out.Chain, q.Clone())
		}
		for _, c := range ir.Copies {
			out.Copies = append(out.Copies, aig.CopyAssign{TargetMember: c.TargetMember, Src: renameRef(c.Src)})
		}
		return out
	}
	renameSyn := func(sr *aig.SynRule) *aig.SynRule {
		if sr == nil {
			return nil
		}
		out := &aig.SynRule{Exprs: make(map[string]aig.SynExpr, len(sr.Exprs))}
		for k, e := range sr.Exprs {
			out.Exprs[k] = renameExpr(e, rename)
		}
		if sr.Pos != nil {
			out.Pos = make(map[string]srcpos.Pos, len(sr.Pos))
			for k, p := range sr.Pos {
				out.Pos[k] = p
			}
		}
		return out
	}

	out := &aig.Rule{
		Elem:    elem,
		TextSrc: renameRef(r.TextSrc),
		Syn:     renameSyn(r.Syn),
		Guards:  append([]aig.Guard(nil), r.Guards...),
		Pos:     r.Pos,
		CondPos: r.CondPos,
	}
	if r.TextSrc == (aig.SourceRef{}) {
		out.TextSrc = aig.SourceRef{}
	}
	if r.Inh != nil {
		out.Inh = make(map[string]*aig.InhRule, len(r.Inh))
		for k, ir := range r.Inh {
			out.Inh[rename(k)] = renameInh(ir)
		}
	}
	if r.Cond != nil {
		out.Cond = r.Cond.Clone()
		out.CondParams = renameParams(r.CondParams)
	}
	for _, b := range r.Branches {
		out.Branches = append(out.Branches, aig.Branch{Inh: renameInh(b.Inh), Syn: renameSyn(b.Syn)})
	}
	return out
}

func renameExpr(e aig.SynExpr, rename func(string) string) aig.SynExpr {
	renameRef := func(s aig.SourceRef) aig.SourceRef {
		s.Elem = rename(s.Elem)
		return s
	}
	switch e := e.(type) {
	case aig.ScalarOf:
		return aig.ScalarOf{Src: renameRef(e.Src)}
	case aig.CollectionOf:
		return aig.CollectionOf{Src: renameRef(e.Src)}
	case aig.SingletonOf:
		srcs := make([]aig.SourceRef, len(e.Srcs))
		for i, s := range e.Srcs {
			srcs[i] = renameRef(s)
		}
		return aig.SingletonOf{Srcs: srcs}
	case aig.UnionOf:
		terms := make([]aig.SynExpr, len(e.Terms))
		for i, t := range e.Terms {
			terms[i] = renameExpr(t, rename)
		}
		return aig.UnionOf{Terms: terms}
	case aig.CollectChildren:
		return aig.CollectChildren{Child: rename(e.Child), Member: e.Member}
	default:
		return e
	}
}

// sccIDs assigns a strongly-connected-component id to every element type.
func sccIDs(d *dtd.DTD) map[string]int {
	index := make(map[string]int)
	low := make(map[string]int)
	onStack := make(map[string]bool)
	comp := make(map[string]int)
	var stack []string
	next, compID := 0, 0

	var connect func(v string)
	connect = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		p, _ := d.Production(v)
		for _, w := range p.Children {
			if _, seen := index[w]; !seen {
				connect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp[w] = compID
				if w == v {
					break
				}
			}
			compID++
		}
	}
	types := d.Types()
	sort.Strings(types)
	for _, t := range types {
		if _, seen := index[t]; !seen {
			connect(t)
		}
	}
	return comp
}
