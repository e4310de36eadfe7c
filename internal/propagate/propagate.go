// Package propagate implements static constraint propagation and view
// certification (§5): source-side relational constraints — the keys and
// foreign keys declared in a spec's sources section — are symbolically
// pushed through each rule's conjunctive query and the copy chains of
// the grammar, to decide for each declared XML constraint whether it
// must hold on every instance satisfying the source constraints.
//
// Like internal/static, the analysis is exact only on the
// conjunctive-query fragment (equality/comparison/IN predicates, no
// negation) and strictly conservative outside it: every shape the
// certifier does not recognize yields Unknown, never MustHold. A
// MustHold verdict is therefore a proof; Unknown merely reverts to
// runtime checking.
//
// The verdict lattice is three-valued:
//
//	MustHold — every instance satisfying the source constraints
//	           satisfies the XML constraint; runtime checking is
//	           redundant.
//	Unknown  — the certifier cannot decide; runtime checks stay on.
//	Violated — some instance satisfying the source constraints
//	           violates the XML constraint (the constraint is
//	           unsatisfiable as written, e.g. an inclusion whose
//	           target can never be produced under the context).
package propagate

import (
	"fmt"
	"sort"
	"strings"

	"github.com/aigrepro/aig/internal/aig"
	"github.com/aigrepro/aig/internal/dtd"
	"github.com/aigrepro/aig/internal/sqlmini"
	"github.com/aigrepro/aig/internal/static"
	"github.com/aigrepro/aig/internal/xconstraint"
)

// Verdict is the certification outcome for one constraint.
type Verdict uint8

// The verdicts, ordered from strongest to weakest guarantee.
const (
	MustHold Verdict = iota
	Unknown
	Violated
)

func (v Verdict) String() string {
	switch v {
	case MustHold:
		return "must-hold"
	case Unknown:
		return "unknown"
	case Violated:
		return "violated"
	default:
		return fmt.Sprintf("verdict(%d)", uint8(v))
	}
}

// Result is the verdict for one declared XML constraint.
type Result struct {
	Constraint xconstraint.Constraint
	Verdict    Verdict
	// Reason explains the verdict: the proof sketch for MustHold, the
	// first unprovable obligation for Unknown, the witness argument for
	// Violated.
	Reason string
	// Uses lists the source constraints (rendered with String) the proof
	// depends on; empty unless Verdict == MustHold.
	Uses []string
}

// Certification is the outcome of certifying a whole grammar.
type Certification struct {
	Results []Result
	// Certified reports whether every declared constraint is MustHold —
	// the condition under which a server may skip per-document
	// re-verification. (DTD conformance is guaranteed by construction:
	// the evaluator derives documents from the grammar itself.)
	Certified bool
	// UnusedSources lists declared source constraints no certification
	// proof depends on (rendered with String), in declaration order.
	UnusedSources []string
	// Premises lists, sorted, the source constraints some MustHold proof
	// uses (the union of their Uses): what must hold on the data for the
	// verdicts to apply to it.
	Premises []string
}

// Summary renders a short human-readable report.
func (c *Certification) Summary() string {
	var b strings.Builder
	for _, r := range c.Results {
		fmt.Fprintf(&b, "%-9s %s", r.Verdict, r.Constraint)
		if r.Reason != "" {
			fmt.Fprintf(&b, "  (%s)", r.Reason)
		}
		b.WriteByte('\n')
	}
	if c.Certified {
		b.WriteString("certified: all constraints must hold; runtime verification is redundant\n")
	} else {
		b.WriteString("not certified: runtime verification stays on\n")
	}
	return b.String()
}

// Certify runs the propagation analysis on a validated,
// pre-specialization grammar. It never fails: unprovable constraints
// come back Unknown.
func Certify(a *aig.AIG) *Certification {
	ce := &certifier{a: a, used: make(map[string]bool)}
	out := &Certification{Certified: true}
	for _, c := range a.Constraints {
		var r Result
		switch c.Kind {
		case xconstraint.Key:
			r = ce.certifyKey(c)
		case xconstraint.Inclusion:
			r = ce.certifyInclusion(c)
		default:
			r = Result{Constraint: c, Verdict: Unknown, Reason: "unrecognized constraint kind"}
		}
		if r.Verdict != MustHold {
			out.Certified = false
		} else {
			for _, u := range r.Uses {
				ce.used[u] = true
			}
		}
		out.Results = append(out.Results, r)
	}
	for _, k := range a.SourceKeys {
		if !ce.used["key "+k.String()] {
			out.UnusedSources = append(out.UnusedSources, "key "+k.String())
		}
	}
	for _, k := range a.SourceFKs {
		if !ce.used["fkey "+k.String()] {
			out.UnusedSources = append(out.UnusedSources, "fkey "+k.String())
		}
	}
	for u := range ce.used {
		out.Premises = append(out.Premises, u)
	}
	sort.Strings(out.Premises)
	return out
}

type certifier struct {
	a    *aig.AIG
	used map[string]bool
	// an caches the §4 reachability analysis, computed on first use by
	// the provably-violated check.
	an *static.Analysis
}

// ---------------------------------------------------------------------------
// Derivation paths

// edge is one parent -> child derivation step.
type edge struct {
	parent, child string
	kind          dtd.ProdKind
	occ           int // occurrences of child in the parent's production
}

// pathsTo enumerates the derivation paths from `from` down to `to` over
// the DTD's production graph. ok is false when the relevant subgraph —
// types reachable from `from` that can reach `to` — contains a cycle, in
// which case the family of paths is infinite and the caller must stay
// conservative.
func (ce *certifier) pathsTo(from, to string) (paths [][]edge, ok bool) {
	d := ce.a.DTD
	// relevant: reachable from `from` and co-reachable to `to`.
	reach := map[string]bool{}
	var down func(e string)
	down = func(e string) {
		if reach[e] {
			return
		}
		reach[e] = true
		p, _ := d.Production(e)
		for _, c := range p.Children {
			down(c)
		}
	}
	down(from)
	// Co-reachability to `to`: reverse-edge BFS within the reach set, so
	// cycles cannot hide routes (a DFS with in-progress memoization
	// would under-approximate here, which must not happen — missing
	// paths could turn into unsound trivial MustHold verdicts).
	rev := map[string][]string{}
	for e := range reach {
		p, _ := d.Production(e)
		for _, c := range p.Children {
			if reach[c] {
				rev[c] = append(rev[c], e)
			}
		}
	}
	co := map[string]bool{to: true}
	queue := []string{to}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		for _, pr := range rev[x] {
			if !co[pr] {
				co[pr] = true
				queue = append(queue, pr)
			}
		}
	}
	relevant := func(e string) bool { return reach[e] && co[e] }
	if !relevant(from) {
		return nil, true
	}
	// Cycle check on the relevant subgraph (nodes strictly before `to`
	// plus `to` itself: a cycle through any of them makes path
	// enumeration meaningless).
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := map[string]int{}
	var acyclic func(e string) bool
	acyclic = func(e string) bool {
		color[e] = gray
		if e != to { // do not descend past the target
			p, _ := d.Production(e)
			for _, c := range p.Children {
				if !relevant(c) {
					continue
				}
				switch color[c] {
				case gray:
					return false
				case white:
					if !acyclic(c) {
						return false
					}
				}
			}
		} else {
			// The target must not be able to re-derive itself: nested
			// occurrences would escape the path enumeration.
			p, _ := d.Production(e)
			for _, c := range p.Children {
				if reach[c] && reachesOrIs(d, c, to) {
					return false
				}
			}
		}
		color[e] = black
		return true
	}
	if !acyclic(from) {
		return nil, false
	}
	var cur []edge
	var walk func(e string)
	walk = func(e string) {
		if e == to {
			paths = append(paths, append([]edge(nil), cur...))
			return
		}
		p, _ := d.Production(e)
		occ := map[string]int{}
		for _, c := range p.Children {
			occ[c]++
		}
		done := map[string]bool{}
		for _, c := range p.Children {
			if done[c] || !relevant(c) {
				continue
			}
			done[c] = true
			cur = append(cur, edge{parent: e, child: c, kind: p.Kind, occ: occ[c]})
			walk(c)
			cur = cur[:len(cur)-1]
		}
	}
	walk(from)
	return paths, true
}

// reachesOrIs reports whether elem's subtree can contain a `to` element
// (including elem itself), over the plain production graph.
func reachesOrIs(d *dtd.DTD, elem, to string) bool {
	seen := map[string]bool{}
	var visit func(e string) bool
	visit = func(e string) bool {
		if e == to {
			return true
		}
		if seen[e] {
			return false
		}
		seen[e] = true
		p, _ := d.Production(e)
		for _, c := range p.Children {
			if visit(c) {
				return true
			}
		}
		return false
	}
	return visit(elem)
}

// ---------------------------------------------------------------------------
// Field origins and copy chains

// fieldOrigin resolves which member of Inh(elem) becomes the PCDATA of
// elem's `field` subelement: the rule for the field child must copy
// Inh(elem).m into the field's text-source member. Returns the member
// name, or ok=false when the flow is anything else.
func (ce *certifier) fieldOrigin(elem, field string) (string, bool) {
	fr := ce.a.Rules[field]
	if fr == nil || fr.TextSrc == (aig.SourceRef{}) {
		return "", false
	}
	ts := fr.TextSrc
	if ts.Side != aig.InhSide || ts.Elem != field || ts.Member == "" {
		return "", false
	}
	er := ce.a.Rules[elem]
	if er == nil {
		return "", false
	}
	ir := er.Inh[field]
	if ir == nil || ir.IsQuery() {
		return "", false
	}
	for _, cp := range ir.Copies {
		if cp.TargetMember == ts.Member {
			if cp.Src.Side == aig.InhSide && cp.Src.Elem == elem && cp.Src.Member != "" {
				return cp.Src.Member, true
			}
			return "", false
		}
	}
	return "", false
}

// traceBelow walks the pure-copy suffix of a path: given that member m of
// Inh(path[last].child) originates the field value, it returns the member
// of Inh(stop) the value was copied from, following the edges of
// path[stopIdx+1:]. Every traversed edge must be a sequence edge whose
// inherited rule copies the member from the parent's Inh.
func (ce *certifier) traceBelow(path []edge, stopIdx int, m string) (string, bool) {
	for i := len(path) - 1; i > stopIdx; i-- {
		e := path[i]
		if e.kind != dtd.ProdSeq || e.occ != 1 {
			return "", false
		}
		r := ce.a.Rules[e.parent]
		if r == nil {
			return "", false
		}
		ir := r.Inh[e.child]
		if ir == nil || ir.IsQuery() {
			return "", false
		}
		found := false
		for _, cp := range ir.Copies {
			if cp.TargetMember == m {
				if cp.Src.Side != aig.InhSide || cp.Src.Elem != e.parent || cp.Src.Member == "" {
					return "", false
				}
				m = cp.Src.Member
				found = true
				break
			}
		}
		if !found {
			return "", false
		}
	}
	return m, true
}

// boundColumn finds the select column of a query that binds member m of
// the spawned child's inherited attribute, mirroring the row-binding
// rules of validation: by output name when every column names a scalar
// member, positionally otherwise.
func boundColumn(q *sqlmini.Query, decl aig.AttrDecl, m string) (sqlmini.ColRef, bool) {
	scalars := decl.ScalarSchema()
	byName := true
	for _, s := range q.Select {
		if scalars.ColumnIndex(s.OutputName()) < 0 {
			byName = false
			break
		}
	}
	if byName {
		for _, s := range q.Select {
			if s.OutputName() == m {
				return s.Expr, true
			}
		}
		return sqlmini.ColRef{}, false
	}
	if len(q.Select) != len(scalars) {
		return sqlmini.ColRef{}, false
	}
	for i, col := range scalars {
		if col.Name == m {
			return q.Select[i].Expr, true
		}
	}
	return sqlmini.ColRef{}, false
}

// ---------------------------------------------------------------------------
// The chase: equivalence classes and key propagation

// colKey is the class key for an alias-qualified column; qualify
// resolves unqualified references against the FROM list first.
func colKey(alias, col string) string { return "c:" + alias + "." + col }

// qualify resolves a column reference to the FROM alias that binds it.
// Unqualified references resolve only in single-relation queries.
func qualify(q *sqlmini.Query, c sqlmini.ColRef) (string, bool) {
	if c.Table != "" {
		for _, t := range q.From {
			if t.BindName() == c.Table {
				return c.Table, true
			}
		}
		return "", false
	}
	if len(q.From) == 1 {
		return q.From[0].BindName(), true
	}
	return "", false
}

// queryClasses builds the equality equivalence classes of a query's
// predicates and the set of class roots whose value is fixed within one
// execution (bound to a constant or to a scalar parameter field). ok is
// false when a reference cannot be resolved.
func queryClasses(q *sqlmini.Query) (uf *static.UnionFind, fixed map[string]bool, ok bool) {
	uf = static.NewUnionFind()
	var fixedKeys []string
	key := func(c sqlmini.ColRef) (string, bool) {
		a, ok := qualify(q, c)
		if !ok {
			return "", false
		}
		return colKey(a, c.Column), true
	}
	for _, p := range q.Where {
		switch p.Kind {
		case sqlmini.PredColCol:
			if p.Op == sqlmini.OpEq {
				l, lok := key(p.Left)
				r, rok := key(p.Right)
				if !lok || !rok {
					return nil, nil, false
				}
				uf.Union(l, r)
			}
		case sqlmini.PredColConst:
			if p.Op == sqlmini.OpEq {
				l, lok := key(p.Left)
				if !lok {
					return nil, nil, false
				}
				ck := "k:" + p.Const.Key()
				uf.Union(l, ck)
				fixedKeys = append(fixedKeys, ck)
			}
		case sqlmini.PredColParam:
			if p.Op == sqlmini.OpEq {
				l, lok := key(p.Left)
				if !lok {
					return nil, nil, false
				}
				pk := "p:" + p.Param + "." + p.ParamField
				uf.Union(l, pk)
				fixedKeys = append(fixedKeys, pk)
			}
		case sqlmini.PredColInList:
			if len(p.List) == 1 {
				l, lok := key(p.Left)
				if !lok {
					return nil, nil, false
				}
				ck := "k:" + p.List[0].Key()
				uf.Union(l, ck)
				fixedKeys = append(fixedKeys, ck)
			}
		}
	}
	fixed = make(map[string]bool, len(fixedKeys))
	for _, k := range fixedKeys {
		fixed[uf.Find(k)] = true
	}
	return uf, fixed, true
}

// chase decides whether the seed columns functionally determine the
// query's output rows, by propagating the declared source keys: a FROM
// relation all of whose key columns are determined is pinned to a single
// row, determining all its columns. It reports success when either every
// FROM relation is pinned (each valuation of the FROM tuple is unique
// given the seeds), or the query is DISTINCT and every select column is
// determined (duplicate outputs collapse). uses lists the keys the proof
// consumed.
func (ce *certifier) chase(q *sqlmini.Query, seeds []sqlmini.ColRef) (ok bool, uses []string, why string) {
	uf, fixed, cok := queryClasses(q)
	if !cok {
		return false, nil, "unresolvable column reference"
	}
	determined := make(map[string]bool)
	for r := range fixed {
		determined[r] = true
	}
	for _, s := range seeds {
		a, qok := qualify(q, s)
		if !qok {
			return false, nil, fmt.Sprintf("cannot resolve column %s", s)
		}
		determined[uf.Find(colKey(a, s.Column))] = true
	}
	pinned := make(map[string]bool)
	usedSet := make(map[string]bool)
	for changed := true; changed; {
		changed = false
		for _, t := range q.From {
			alias := t.BindName()
			if pinned[alias] || t.IsParam() {
				continue
			}
			for _, k := range ce.a.SourceKeys {
				if k.Source != t.Source || k.Table != t.Table {
					continue
				}
				all := true
				for _, c := range k.Cols {
					if !determined[uf.Find(colKey(alias, c))] {
						all = false
						break
					}
				}
				if !all {
					continue
				}
				pinned[alias] = true
				usedSet["key "+k.String()] = true
				schema, err := ce.a.Sources.TableSchema(t.Source, t.Table)
				if err == nil {
					for _, col := range schema {
						if !determined[uf.Find(colKey(alias, col.Name))] {
							determined[uf.Find(colKey(alias, col.Name))] = true
							changed = true
						}
					}
				}
				changed = true
				break
			}
		}
	}
	for u := range usedSet {
		uses = append(uses, u)
	}
	sort.Strings(uses)
	allPinned := true
	for _, t := range q.From {
		if !pinned[t.BindName()] {
			allPinned = false
			break
		}
	}
	if allPinned {
		return true, uses, ""
	}
	if q.Distinct {
		allOut := true
		for _, s := range q.Select {
			a, qok := qualify(q, s.Expr)
			if !qok || !determined[uf.Find(colKey(a, s.Expr.Column))] {
				allOut = false
				break
			}
		}
		if allOut {
			return true, uses, ""
		}
	}
	for _, t := range q.From {
		if !pinned[t.BindName()] {
			return false, nil, fmt.Sprintf("relation %s is not pinned by any declared key", t.BindName())
		}
	}
	return false, nil, "no relation pinned"
}

// classColumns returns every alias-qualified column in the same equality
// class as the given column, as (alias, column) pairs.
func classColumns(q *sqlmini.Query, uf *static.UnionFind, c sqlmini.ColRef) [][2]string {
	alias, ok := qualify(q, c)
	if !ok {
		return nil
	}
	class := uf.Class(colKey(alias, c.Column))
	var out [][2]string
	for _, t := range q.From {
		bn := t.BindName()
		// Enumerate columns that appeared in the union-find plus the seed
		// column itself; we only know about columns mentioned somewhere,
		// so also add c explicitly.
		for _, k := range class {
			if strings.HasPrefix(k, "c:"+bn+".") {
				out = append(out, [2]string{bn, strings.TrimPrefix(k, "c:"+bn+".")})
			}
		}
	}
	found := false
	for _, p := range out {
		if p[0] == alias && p[1] == c.Column {
			found = true
		}
	}
	if !found {
		out = append(out, [2]string{alias, c.Column})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}
