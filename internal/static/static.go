// Package static implements the static analyses of §4: termination and
// reachability guarantees for AIGs defined with conjunctive queries, and
// the classification of semantic rules into copy rules (CSRs) and query
// rules (QSRs) that underlies copy elimination.
//
// The paper proves these properties decidable for conjunctive-query AIGs
// by symbolic execution, and undecidable for arbitrary SQL; accordingly,
// the analyses here are exact on the conjunctive fragment this
// implementation supports (equality/comparison/IN predicates without
// negation) and conservative in the presence of features they cannot
// decide.
package static

import (
	"fmt"

	"github.com/aigrepro/aig/internal/aig"
	"github.com/aigrepro/aig/internal/dtd"
	"github.com/aigrepro/aig/internal/relstore"
	"github.com/aigrepro/aig/internal/sqlmini"
)

// Analysis is the result of analyzing an AIG.
type Analysis struct {
	// MustTerminate: evaluation halts on every database instance. True
	// when the reachable DTD is non-recursive, or every recursive cycle
	// passes through a statically unsatisfiable query (which cuts the
	// recursion at depth one).
	MustTerminate bool
	// MayTerminate: evaluation halts on at least one instance (symbolic
	// execution over the empty instance).
	MayTerminate bool
	// CanReach[E]: some instance produces an E element.
	CanReach map[string]bool
	// MustReach[E]: every successful evaluation produces an E element.
	MustReach map[string]bool
	// UnsatisfiableQueries lists rule queries that can never return a
	// tuple, with their locations.
	UnsatisfiableQueries []string
}

// Analyze runs all §4 analyses on the AIG.
func Analyze(a *aig.AIG) (*Analysis, error) {
	if err := a.DTD.Validate(); err != nil {
		return nil, err
	}
	an := &Analysis{
		CanReach:  make(map[string]bool),
		MustReach: make(map[string]bool),
	}

	sat := make(map[string]bool) // elem/child -> query satisfiable
	for _, eq := range a.Queries() {
		ok := Satisfiable(eq.Query)
		key := eq.Elem + "/" + eq.Child
		if prev, seen := sat[key]; seen {
			ok = ok && prev // chains: every step must be satisfiable
		}
		sat[key] = ok
	}
	for key, ok := range sat {
		if !ok {
			an.UnsatisfiableQueries = append(an.UnsatisfiableQueries, key)
		}
	}

	// edgePossible reports whether an (elem -> child) derivation can ever
	// produce a child node on some instance.
	edgePossible := func(elem, child string) bool {
		p, _ := a.DTD.Production(elem)
		r := a.Rules[elem]
		switch p.Kind {
		case dtd.ProdSeq:
			return true
		case dtd.ProdChoice:
			return true // the condition query may select any branch
		case dtd.ProdStar:
			if r == nil || r.Inh[child] == nil {
				return false // nothing can generate children
			}
			if ok, seen := sat[elem+"/"+child]; seen {
				return ok
			}
			return true // copy-driven star: possible when the member is non-empty
		default:
			return false
		}
	}

	// CanReach: graph reachability over possible edges.
	var canVisit func(elem string)
	canVisit = func(elem string) {
		if an.CanReach[elem] {
			return
		}
		an.CanReach[elem] = true
		p, _ := a.DTD.Production(elem)
		for _, c := range p.Children {
			if edgePossible(elem, c) {
				canVisit(c)
			}
		}
	}
	canVisit(a.DTD.Root)

	// MustReach: only sequence edges (and single-alternative choices)
	// guarantee a child on every instance.
	var mustVisit func(elem string)
	mustVisit = func(elem string) {
		if an.MustReach[elem] {
			return
		}
		an.MustReach[elem] = true
		p, _ := a.DTD.Production(elem)
		switch {
		case p.Kind == dtd.ProdSeq:
			for _, c := range p.Children {
				mustVisit(c)
			}
		case p.Kind == dtd.ProdChoice && len(p.Children) == 1:
			mustVisit(p.Children[0])
		}
	}
	mustVisit(a.DTD.Root)

	// MustTerminate: every reachable recursive cycle must be cut by an
	// unsatisfiable query.
	an.MustTerminate = mustTerminate(a, an.CanReach, sat)

	// MayTerminate: symbolic execution over the empty instance — every
	// star is empty, so the derivation halts iff some finite expansion
	// exists: sequences need all children to halt, choices need some
	// branch to halt.
	an.MayTerminate = haltsOnEmpty(a.DTD, a.DTD.Root, make(map[string]int))

	return an, nil
}

// mustTerminate checks that no reachable cycle of the type graph survives
// after removing edges cut by statically unsatisfiable queries: such a
// surviving cycle could, on a suitable instance, expand forever.
func mustTerminate(a *aig.AIG, reachable map[string]bool, sat map[string]bool) bool {
	rec := a.DTD.RecursiveTypes()
	// Live edges among reachable recursive types.
	adj := make(map[string][]string)
	for elem := range rec {
		if !reachable[elem] {
			continue
		}
		p, _ := a.DTD.Production(elem)
		for _, c := range p.Children {
			if !rec[c] || !reachable[c] {
				continue
			}
			if p.Kind == dtd.ProdStar {
				if ok, seen := sat[elem+"/"+c]; seen && !ok {
					continue // this expansion can never fire
				}
			}
			adj[elem] = append(adj[elem], c)
		}
	}
	// Cycle detection over the surviving edges.
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[string]int)
	var visit func(v string) bool
	visit = func(v string) bool {
		color[v] = gray
		for _, c := range adj[v] {
			switch color[c] {
			case gray:
				return false
			case white:
				if !visit(c) {
					return false
				}
			}
		}
		color[v] = black
		return true
	}
	for v := range adj {
		if color[v] == white && !visit(v) {
			return false
		}
	}
	return true
}

// haltsOnEmpty decides whether the derivation of elem halts over the
// empty instance. state: 0 unvisited, 1 in progress (cycle), 2 halts.
func haltsOnEmpty(d *dtd.DTD, elem string, state map[string]int) bool {
	switch state[elem] {
	case 1:
		return false // cyclic derivation with no data-driven escape
	case 2:
		return true
	}
	state[elem] = 1
	defer func() {
		if state[elem] == 1 {
			state[elem] = 0
		}
	}()
	p, _ := d.Production(elem)
	halts := false
	switch p.Kind {
	case dtd.ProdText, dtd.ProdEmpty, dtd.ProdStar:
		// Stars are empty on the empty instance.
		halts = true
	case dtd.ProdSeq:
		halts = true
		for _, c := range p.Children {
			if !haltsOnEmpty(d, c, state) {
				halts = false
				break
			}
		}
	case dtd.ProdChoice:
		for _, c := range p.Children {
			if haltsOnEmpty(d, c, state) {
				halts = true
				break
			}
		}
	}
	if halts {
		state[elem] = 2
	}
	return halts
}

// Satisfiable decides whether a conjunctive query can return a tuple on
// some instance: its equality/comparison predicates must be mutually
// consistent. The check unions columns and parameters into equivalence
// classes, propagates constants, and verifies comparisons between
// constant-valued classes; predicates it cannot decide are assumed
// satisfiable (per the paper, the general problem is undecidable for full
// SQL).
func Satisfiable(q *sqlmini.Query) bool {
	_, _, ok := constClasses(q)
	return ok
}

// ForcedOutputs reports, for each select column of the query, the
// constant value the query's predicates force it to take on every output
// row (nil when the column is unconstrained). A nil slice means the query
// is statically unsatisfiable and produces no rows at all. The linter
// uses this to detect choice-production condition queries that always
// select the same branch.
func ForcedOutputs(q *sqlmini.Query) []*relstore.Value {
	uf, classConst, ok := constClasses(q)
	if !ok {
		return nil
	}
	out := make([]*relstore.Value, len(q.Select))
	for i, s := range q.Select {
		if v, found := classConst[uf.Find("c:"+s.Expr.String())]; found {
			v := v
			out[i] = &v
		}
	}
	return out
}

// cmpPred is a deferred non-equality comparison between two class keys.
type cmpPred struct {
	a, b string
	op   sqlmini.CompareOp
}

// constClasses performs the symbolic part of Satisfiable: it unions
// columns, parameters and constants into equivalence classes from the
// query's equality predicates, propagates constants, and checks the
// deferred comparisons. It returns the union-find, the constant value per
// class root, and whether the predicates are mutually consistent.
func constClasses(q *sqlmini.Query) (*UnionFind, map[string]relstore.Value, bool) {
	uf := NewUnionFind()
	key := func(c sqlmini.ColRef) string { return "c:" + c.String() }
	paramKey := func(p, f string) string { return "p:" + p + "." + f }

	constOf := make(map[string]relstore.Value)
	var cmps []cmpPred

	for _, p := range q.Where {
		switch p.Kind {
		case sqlmini.PredColCol:
			if p.Op == sqlmini.OpEq {
				uf.Union(key(p.Left), key(p.Right))
			} else {
				cmps = append(cmps, cmpPred{key(p.Left), key(p.Right), p.Op})
			}
		case sqlmini.PredColConst:
			ck := "k:" + p.Const.Key()
			constOf[ck] = p.Const
			if p.Op == sqlmini.OpEq {
				uf.Union(key(p.Left), ck)
			} else {
				cmps = append(cmps, cmpPred{key(p.Left), ck, p.Op})
			}
		case sqlmini.PredColParam:
			if p.Op == sqlmini.OpEq {
				uf.Union(key(p.Left), paramKey(p.Param, p.ParamField))
			} else {
				cmps = append(cmps, cmpPred{key(p.Left), paramKey(p.Param, p.ParamField), p.Op})
			}
		case sqlmini.PredColInList:
			if len(p.List) == 0 {
				return nil, nil, false
			}
			if len(p.List) == 1 {
				ck := "k:" + p.List[0].Key()
				constOf[ck] = p.List[0]
				uf.Union(key(p.Left), ck)
			}
		case sqlmini.PredColInParam:
			// Parameters range over arbitrary sets; always satisfiable.
		}
	}

	// Each equivalence class may contain at most one distinct constant.
	classConst := make(map[string]relstore.Value)
	for ck, v := range constOf {
		root := uf.Find(ck)
		if prev, ok := classConst[root]; ok && !prev.Equal(v) {
			return nil, nil, false
		}
		classConst[root] = v
	}
	// Comparisons between two constant-valued classes must hold;
	// inequality within one class must not contradict equality.
	for _, c := range cmps {
		ra, rb := uf.Find(c.a), uf.Find(c.b)
		if ra == rb && (c.op == sqlmini.OpNe || c.op == sqlmini.OpLt || c.op == sqlmini.OpGt) {
			return nil, nil, false
		}
		va, aok := classConst[ra]
		vb, bok := classConst[rb]
		if aok && bok && !c.op.Eval(va, vb) {
			return nil, nil, false
		}
	}
	return uf, classConst, true
}

// UnionFind partitions strings into equivalence classes; this package
// and internal/propagate group a query's columns and constants by its
// equality predicates with it.
type UnionFind struct{ parent map[string]string }

// NewUnionFind returns an empty partition.
func NewUnionFind() *UnionFind { return &UnionFind{parent: make(map[string]string)} }

// Find returns the representative of x's class.
func (u *UnionFind) Find(x string) string {
	p, ok := u.parent[x]
	if !ok || p == x {
		u.parent[x] = x
		return x
	}
	root := u.Find(p)
	u.parent[x] = root
	return root
}

// Class returns every element seen so far that is in x's class.
func (u *UnionFind) Class(x string) []string {
	root := u.Find(x)
	var out []string
	for k := range u.parent {
		if u.Find(k) == root {
			out = append(out, k)
		}
	}
	return out
}

// Union merges the classes of a and b.
func (u *UnionFind) Union(a, b string) {
	ra, rb := u.Find(a), u.Find(b)
	if ra != rb {
		u.parent[ra] = rb
	}
}

// RuleClass classifies one inherited-attribute rule (§4): a copy rule
// (CSR) uses only member projections; a query rule (QSR) runs SQL.
type RuleClass uint8

// The rule classes.
const (
	CSR RuleClass = iota
	QSR
)

func (c RuleClass) String() string {
	if c == CSR {
		return "CSR"
	}
	return "QSR"
}

// Classify returns the class of every inherited rule, keyed by
// "elem/child".
func Classify(a *aig.AIG) map[string]RuleClass {
	out := make(map[string]RuleClass)
	for _, elem := range a.DTD.Types() {
		r := a.Rules[elem]
		if r == nil {
			continue
		}
		for child, ir := range r.Inh {
			k := fmt.Sprintf("%s/%s", elem, child)
			if ir.IsQuery() {
				out[k] = QSR
			} else {
				out[k] = CSR
			}
		}
		for _, b := range r.Branches {
			if b.Inh == nil {
				continue
			}
			k := fmt.Sprintf("%s/%s", elem, b.Inh.Child)
			if b.Inh.IsQuery() {
				out[k] = QSR
			} else {
				out[k] = CSR
			}
		}
	}
	return out
}

// CopyChains finds maximal chains of CSRs ending in a QSR parameter (the
// inlining opportunities of §4). Each chain is reported as the sequence
// of element types whose inherited attributes merely forward values, from
// the origin to the consuming query's element.
func CopyChains(a *aig.AIG) [][]string {
	classes := Classify(a)
	// parentOf[child] = parents whose rule computes Inh(child) as a CSR
	// projecting Inh(parent) only.
	pureParents := make(map[string][]string)
	for _, elem := range a.DTD.Types() {
		r := a.Rules[elem]
		if r == nil {
			continue
		}
		for child, ir := range r.Inh {
			if classes[elem+"/"+child] != CSR || ir == nil {
				continue
			}
			pure := len(ir.Copies) > 0
			for _, cp := range ir.Copies {
				if cp.Src.Side != aig.InhSide || cp.Src.Elem != elem {
					pure = false
				}
			}
			if pure {
				pureParents[child] = append(pureParents[child], elem)
			}
		}
	}
	var chains [][]string
	for _, eq := range a.Queries() {
		for _, src := range ruleParamSources(a, eq) {
			if src.Side != aig.InhSide {
				continue
			}
			var chain []string
			cur := src.Elem
			for {
				parents := pureParents[cur]
				if len(parents) != 1 {
					break
				}
				chain = append(chain, cur)
				cur = parents[0]
			}
			if len(chain) > 0 {
				chain = append(chain, cur)
				// origin last; reverse so chains read origin -> consumer
				for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
					chain[i], chain[j] = chain[j], chain[i]
				}
				chains = append(chains, chain)
			}
		}
	}
	return chains
}

func ruleParamSources(a *aig.AIG, eq aig.ElemQuery) []aig.SourceRef {
	r := a.Rules[eq.Elem]
	if r == nil {
		return nil
	}
	if eq.Child == "" {
		out := make([]aig.SourceRef, 0, len(r.CondParams))
		for _, s := range r.CondParams {
			out = append(out, s)
		}
		return out
	}
	ir := r.Inh[eq.Child]
	if ir == nil {
		for _, b := range r.Branches {
			if b.Inh != nil && b.Inh.Child == eq.Child {
				ir = b.Inh
			}
		}
	}
	if ir == nil {
		return nil
	}
	out := make([]aig.SourceRef, 0, len(ir.QueryParams))
	for _, s := range ir.QueryParams {
		out = append(out, s)
	}
	return out
}
