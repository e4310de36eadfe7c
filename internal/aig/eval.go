package aig

import (
	"fmt"
	"sort"

	"github.com/aigrepro/aig/internal/dtd"
	"github.com/aigrepro/aig/internal/relstore"
	"github.com/aigrepro/aig/internal/sqlmini"
	"github.com/aigrepro/aig/internal/xmltree"
)

// Env carries the execution context of an AIG evaluation: how to resolve,
// execute and cost queries over the data sources.
type Env struct {
	Schemas  sqlmini.SchemaProvider
	Data     sqlmini.DataProvider
	Stats    sqlmini.Stats
	PlanOpts sqlmini.PlanOptions

	// MaxDepth bounds tree depth to catch non-terminating recursion over
	// cyclic data (the paper's static termination analysis cannot rule
	// this out for arbitrary SQL). Zero means 256.
	MaxDepth int

	// Counters is populated during evaluation when non-nil.
	Counters *Counters
}

// Counters accumulates evaluation statistics, used by the benchmark
// harness and ablation studies.
type Counters struct {
	QueriesRun   int
	NodesCreated int
	GuardsPassed int
}

func (e *Env) maxDepth() int {
	if e.MaxDepth > 0 {
		return e.MaxDepth
	}
	return 256
}

func (e *Env) countQuery() {
	if e.Counters != nil {
		e.Counters.QueriesRun++
	}
}

func (e *Env) countNode() {
	if e.Counters != nil {
		e.Counters.NodesCreated++
	}
}

// AbortError reports that a guard evaluated to false: the evaluation is
// terminated without success (§3.3).
type AbortError struct {
	Elem  string
	Path  string
	Guard Guard
}

// Error implements error.
func (e *AbortError) Error() string {
	return fmt.Sprintf("aig: constraint %s violated: guard %s failed at %s",
		e.Guard.Origin, e.Guard, e.Path)
}

// Eval runs the conceptual evaluation strategy of §3.2: a depth-first,
// one-sweep derivation directed by the DTD and ordered by the dependency
// relations, evaluating semantic rules with tuple-at-a-time queries. It
// returns the generated document, which conforms to the DTD by
// construction; guard failures return an *AbortError.
//
// rootInh is the attribute of the AIG — the value of Inh(root), e.g. the
// report date.
func (a *AIG) Eval(env *Env, rootInh *AttrValue) (*xmltree.Node, error) {
	if rootInh == nil {
		rootInh = NewAttrValue(a.Inh[a.DTD.Root])
	}
	node, _, err := a.evalNode(env, a.DTD.Root, rootInh, 0)
	if err != nil {
		return nil, err
	}
	return node, nil
}

// evalNode creates and evaluates the subtree for one element instance:
// first its inherited attribute is already given, then its subtree is
// derived, and finally its synthesized attribute is computed and guards
// are checked — the visit discipline of §3.2.
func (a *AIG) evalNode(env *Env, elem string, inh *AttrValue, depth int) (*xmltree.Node, *AttrValue, error) {
	if depth > env.maxDepth() {
		return nil, nil, fmt.Errorf("aig: recursion exceeded depth %d at element %s (cyclic source data?)", env.maxDepth(), elem)
	}
	node := xmltree.NewElement(a.Label(elem))
	env.countNode()
	p, ok := a.DTD.Production(elem)
	if !ok {
		return nil, nil, fmt.Errorf("aig: element type %q has no production", elem)
	}
	r := a.Rules[elem]

	var syn *AttrValue
	var err error
	switch p.Kind {
	case dtd.ProdText:
		syn, err = a.evalText(env, elem, node, r, inh)
	case dtd.ProdEmpty:
		syn, err = a.evalEmpty(env, r, inh)
	case dtd.ProdSeq:
		syn, err = a.evalSeq(env, elem, node, p, r, inh, depth)
	case dtd.ProdStar:
		syn, err = a.evalStar(env, elem, node, p, r, inh, depth)
	case dtd.ProdChoice:
		syn, err = a.evalChoice(env, elem, node, p, r, inh, depth)
	default:
		err = fmt.Errorf("aig: bad production kind for %s", elem)
	}
	if err != nil {
		return nil, nil, err
	}
	if r != nil {
		for _, g := range r.Guards {
			ok, err := evalGuard(g, syn)
			if err != nil {
				return nil, nil, fmt.Errorf("aig: at %s: %v", node.Path(), err)
			}
			if !ok {
				return nil, nil, &AbortError{Elem: elem, Path: node.Path(), Guard: g}
			}
			if env.Counters != nil {
				env.Counters.GuardsPassed++
			}
		}
	}
	return node, syn, nil
}

func (a *AIG) evalText(env *Env, elem string, node *xmltree.Node, r *Rule, inh *AttrValue) (*AttrValue, error) {
	sc := &InstanceScope{Elem: elem, Inh: inh}
	text := ""
	if r != nil && r.TextSrc != (SourceRef{}) {
		v, err := sc.scalar(r.TextSrc)
		if err != nil {
			return nil, err
		}
		text = v.Text()
	} else if scalars := inh.ScalarTuple(); len(scalars) == 1 {
		// Default: a text element with a single inherited scalar emits it.
		text = scalars[0].Text()
	}
	node.AppendText(text)
	env.countNode()
	return a.evalSynRule(env, elem, synRuleOf(r), sc)
}

func (a *AIG) evalEmpty(env *Env, r *Rule, inh *AttrValue) (*AttrValue, error) {
	var elem string
	if r != nil {
		elem = r.Elem
	}
	sc := &InstanceScope{Elem: elem, Inh: inh}
	return a.evalSynRule(env, elem, synRuleOf(r), sc)
}

func synRuleOf(r *Rule) *SynRule {
	if r == nil {
		return nil
	}
	return r.Syn
}

func (a *AIG) evalSeq(env *Env, elem string, node *xmltree.Node, p dtd.Production, r *Rule, inh *AttrValue, depth int) (*AttrValue, error) {
	order, err := a.SiblingOrder(elem)
	if err != nil {
		return nil, err
	}
	sc := &InstanceScope{Elem: elem, Inh: inh}
	// Occurrence counts per type, to create one node per occurrence.
	occurrences := make(map[string]int)
	for _, c := range p.Children {
		occurrences[c]++
	}
	built := make(map[string][]*xmltree.Node)
	for _, childType := range order {
		var ir *InhRule
		if r != nil {
			ir = r.Inh[childType]
		}
		for i := 0; i < occurrences[childType]; i++ {
			childInh := NewAttrValue(a.Inh[childType])
			if ir != nil {
				if err := a.evalInhSingle(env, ir, childType, childInh, sc); err != nil {
					return nil, err
				}
			}
			childNode, childSyn, err := a.evalNode(env, childType, childInh, depth+1)
			if err != nil {
				return nil, err
			}
			built[childType] = append(built[childType], childNode)
			sc.AddSyn(childType, childSyn)
		}
	}
	// Attach subtrees in document (production) order.
	consumed := make(map[string]int)
	for _, c := range p.Children {
		node.AppendChild(built[c][consumed[c]])
		consumed[c]++
	}
	// Syn(A) = g(Syn(B1..Bn)): Inh is out of scope here.
	synScope := &InstanceScope{Syns: sc.Syns}
	return a.evalSynRule(env, elem, synRuleOf(r), synScope)
}

func (a *AIG) evalStar(env *Env, elem string, node *xmltree.Node, p dtd.Production, r *Rule, inh *AttrValue, depth int) (*AttrValue, error) {
	child := p.Children[0]
	if r == nil || r.Inh[child] == nil {
		return nil, fmt.Errorf("aig: star production of %s has no rule for %s", elem, child)
	}
	ir := r.Inh[child]
	sc := &InstanceScope{Elem: elem, Inh: inh}

	rows, schema, err := a.starRows(env, ir, sc)
	if err != nil {
		return nil, err
	}
	all := make([]*AttrValue, 0, len(rows))
	for _, row := range rows {
		childInh := NewAttrValue(a.Inh[child])
		if err := childInh.BindScalarsFromRow(schema, row); err != nil {
			return nil, fmt.Errorf("aig: %s children of %s: %v", child, elem, err)
		}
		// Copy assignments accompanying a star query fill the members the
		// query does not produce (e.g. Inh(patient).date = Inh(report).date).
		if ir.IsQuery() {
			for _, c := range ir.Copies {
				v, err := sc.scalar(c.Src)
				if err != nil {
					return nil, err
				}
				if err := childInh.SetScalar(c.TargetMember, v); err != nil {
					return nil, err
				}
			}
		}
		childNode, childSyn, err := a.evalNode(env, child, childInh, depth+1)
		if err != nil {
			return nil, err
		}
		node.AppendChild(childNode)
		all = append(all, childSyn)
	}
	synScope := &InstanceScope{Syns: []ChildSyns{{Elem: child, All: all}}}
	return a.evalSynRule(env, elem, synRuleOf(r), synScope)
}

// starRows computes the iteration set for a star production: the query
// result, or the rows of a copied collection member. Rows are sorted by
// tuple value (stable, duplicates preserved): SQL makes no order
// guarantee, so the implementation canonicalizes sibling order among star
// children, which also makes the conceptual and mediator evaluators
// produce identical documents.
func (a *AIG) starRows(env *Env, ir *InhRule, sc *InstanceScope) ([]relstore.Tuple, relstore.Schema, error) {
	var rows []relstore.Tuple
	var schema relstore.Schema
	if ir.IsQuery() {
		out, err := a.runInhQuery(env, ir, sc)
		if err != nil {
			return nil, nil, err
		}
		rows, schema = out.Rows(), out.Schema()
	} else {
		if len(ir.Copies) != 1 {
			return nil, nil, fmt.Errorf("aig: star rule for %s must have a query or one collection copy", ir.Child)
		}
		b, err := sc.binding(ir.Copies[0].Src)
		if err != nil {
			return nil, nil, err
		}
		rows, schema = b.Rows, b.Schema
	}
	sorted := make([]relstore.Tuple, len(rows))
	copy(sorted, rows)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Compare(sorted[j]) < 0 })
	return sorted, schema, nil
}

func (a *AIG) evalChoice(env *Env, elem string, node *xmltree.Node, p dtd.Production, r *Rule, inh *AttrValue, depth int) (*AttrValue, error) {
	if r == nil || r.Cond == nil {
		return nil, fmt.Errorf("aig: choice production of %s has no condition query", elem)
	}
	sc := &InstanceScope{Elem: elem, Inh: inh}
	out, err := a.runQuery(env, r.Cond, r.CondParams, sc, nil)
	if err != nil {
		return nil, err
	}
	if out.Len() == 0 || out.Row(0)[0].Kind() != relstore.KindInt {
		return nil, fmt.Errorf("aig: condition query of %s must return one integer, got %s", elem, out)
	}
	i := int(out.Row(0)[0].AsInt())
	if i < 1 || i > len(p.Children) {
		return nil, fmt.Errorf("aig: condition query of %s returned %d, want 1..%d", elem, i, len(p.Children))
	}
	child := p.Children[i-1]
	var branch Branch
	if i-1 < len(r.Branches) {
		branch = r.Branches[i-1]
	}
	childInh := NewAttrValue(a.Inh[child])
	if branch.Inh != nil {
		if err := a.evalInhSingle(env, branch.Inh, child, childInh, sc); err != nil {
			return nil, err
		}
	}
	childNode, childSyn, err := a.evalNode(env, child, childInh, depth+1)
	if err != nil {
		return nil, err
	}
	node.AppendChild(childNode)
	synScope := &InstanceScope{Syns: []ChildSyns{{Elem: child, All: []*AttrValue{childSyn}}}}
	return a.evalSynRule(env, elem, branch.Syn, synScope)
}

// evalInhSingle evaluates a non-star inherited-attribute rule into target.
func (a *AIG) evalInhSingle(env *Env, ir *InhRule, child string, target *AttrValue, sc *InstanceScope) error {
	if ir.IsQuery() {
		out, err := a.runInhQuery(env, ir, sc)
		if err != nil {
			return err
		}
		if ir.TargetCollection != "" {
			if err := target.SetCollection(ir.TargetCollection, out.Rows()); err != nil {
				return err
			}
		} else if out.Len() > 0 {
			if err := target.BindScalarsFromRow(out.Schema(), out.Row(0)); err != nil {
				return err
			}
		}
		// Fall through: copies fill members the query did not produce.
	}
	for _, c := range ir.Copies {
		m, ok := target.Decl.Member(c.TargetMember)
		if !ok {
			return fmt.Errorf("aig: Inh(%s) has no member %q", child, c.TargetMember)
		}
		if m.Kind == Scalar {
			v, err := sc.scalar(c.Src)
			if err != nil {
				return err
			}
			if err := target.SetScalar(c.TargetMember, v); err != nil {
				return err
			}
			continue
		}
		b, err := sc.binding(c.Src)
		if err != nil {
			return err
		}
		if err := target.SetCollection(c.TargetMember, b.Rows); err != nil {
			return err
		}
	}
	return nil
}

// runInhQuery executes an inherited-attribute query rule: either the
// original (possibly multi-source) query, or the decomposed single-source
// chain, threading each step's output into the next step's $prev
// parameter.
func (a *AIG) runInhQuery(env *Env, ir *InhRule, sc *InstanceScope) (*relstore.Table, error) {
	if ir.Query != nil {
		return a.runQuery(env, ir.Query, ir.QueryParams, sc, nil)
	}
	var prev *relstore.Table
	for i, q := range ir.Chain {
		extra := make(sqlmini.Params, 1)
		if prev != nil {
			extra[PrevParam] = sqlmini.TableBinding(prev)
		}
		out, err := a.runQuery(env, q, ir.QueryParams, sc, extra)
		if err != nil {
			return nil, fmt.Errorf("aig: chain step %d for %s: %v", i+1, ir.Child, err)
		}
		prev = out
	}
	if prev == nil {
		return nil, fmt.Errorf("aig: empty query chain for %s", ir.Child)
	}
	return prev, nil
}

// runQuery binds the query's parameters from the scope (and the extra
// pre-bound parameters) and executes it against the sources.
func (a *AIG) runQuery(env *Env, q *sqlmini.Query, paramSrcs map[string]SourceRef, sc *InstanceScope, extra sqlmini.Params) (*relstore.Table, error) {
	params := make(sqlmini.Params)
	for _, name := range q.Params() {
		if b, ok := extra[name]; ok {
			params[name] = b
			continue
		}
		src, ok := paramSrcs[name]
		if !ok {
			return nil, fmt.Errorf("aig: query parameter $%s has no source (query: %s)", name, q)
		}
		b, err := sc.binding(src)
		if err != nil {
			return nil, err
		}
		params[name] = b
	}
	env.countQuery()
	return sqlmini.Run("q", q, env.Schemas, env.Data, env.Stats, params, env.PlanOpts)
}

// evalSynRule computes the synthesized attribute of elem from the scope.
func (a *AIG) evalSynRule(env *Env, elem string, r *SynRule, sc *InstanceScope) (*AttrValue, error) {
	decl := a.Syn[elem]
	out := NewAttrValue(decl)
	if r == nil {
		return out, nil
	}
	for _, m := range decl.Members {
		expr, ok := r.Exprs[m.Name]
		if !ok {
			continue
		}
		if m.Kind == Scalar {
			se, ok := expr.(ScalarOf)
			if !ok {
				return nil, fmt.Errorf("aig: Syn(%s).%s is scalar but its rule is %s", elem, m.Name, expr)
			}
			v, err := sc.scalar(se.Src)
			if err != nil {
				return nil, err
			}
			if err := out.SetScalar(m.Name, v); err != nil {
				return nil, err
			}
			continue
		}
		rows, err := a.evalSetExpr(expr, sc, len(m.Fields))
		if err != nil {
			return nil, fmt.Errorf("aig: Syn(%s).%s: %v", elem, m.Name, err)
		}
		if err := out.SetCollection(m.Name, rows); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// evalSetExpr evaluates a collection-valued expression to its rows.
func (a *AIG) evalSetExpr(expr SynExpr, sc *InstanceScope, arity int) ([]relstore.Tuple, error) {
	switch e := expr.(type) {
	case EmptyOf:
		return nil, nil
	case SingletonOf:
		row := make(relstore.Tuple, len(e.Srcs))
		for i, s := range e.Srcs {
			v, err := sc.scalar(s)
			if err != nil {
				return nil, err
			}
			row[i] = v
		}
		return []relstore.Tuple{row}, nil
	case CollectionOf:
		b, err := sc.binding(e.Src)
		if err != nil {
			return nil, err
		}
		return b.Rows, nil
	case UnionOf:
		var rows []relstore.Tuple
		for _, t := range e.Terms {
			part, err := a.evalSetExpr(t, sc, arity)
			if err != nil {
				return nil, err
			}
			rows = append(rows, part...)
		}
		return rows, nil
	case CollectChildren:
		var rows []relstore.Tuple
		for _, childSyn := range sc.all(e.Child) {
			i, scalar := childSyn.index(e.Member)
			switch {
			case i < 0:
				return nil, fmt.Errorf("Syn(%s) has no member %q", e.Child, e.Member)
			case scalar:
				rows = append(rows, relstore.Tuple{childSyn.slots[i].v})
			default:
				rows = append(rows, childSyn.rows(i)...)
			}
		}
		return rows, nil
	default:
		return nil, fmt.Errorf("set-valued rule has unsupported expression %T", expr)
	}
}

// evalGuard checks one guard against a synthesized attribute value.
func evalGuard(g Guard, syn *AttrValue) (bool, error) {
	switch g.Kind {
	case GuardUnique:
		t, err := syn.Collection(g.Member)
		if err != nil {
			return false, err
		}
		seen := make(map[string]bool, t.Len())
		for _, row := range t.Rows() {
			k := row.Key()
			if seen[k] {
				return false, nil
			}
			seen[k] = true
		}
		return true, nil
	case GuardSubset:
		sub, err := syn.Collection(g.Sub)
		if err != nil {
			return false, err
		}
		super, err := syn.Collection(g.Super)
		if err != nil {
			return false, err
		}
		have := make(map[string]bool, super.Len())
		for _, row := range super.Rows() {
			have[row.Key()] = true
		}
		for _, row := range sub.Rows() {
			if !have[row.Key()] {
				return false, nil
			}
		}
		return true, nil
	default:
		return false, fmt.Errorf("aig: unknown guard kind %d", g.Kind)
	}
}
