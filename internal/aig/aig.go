// Package aig implements Attribute Integration Grammars (§3 of the
// paper): a DTD whose element types carry inherited and synthesized
// semantic attributes, computed by semantic rules that combine attribute
// members and evaluate parameterized multi-source SQL queries; plus XML
// keys and inclusion constraints enforced through guards.
//
// The package provides the AIG model, static validation (type
// compatibility and dependency-relation acyclicity, §3.1), and the
// conceptual evaluator (§3.2) — the reference tuple-at-a-time semantics
// against which the set-oriented mediator evaluator is verified.
package aig

import (
	"fmt"
	"sort"
	"strings"

	"github.com/aigrepro/aig/internal/dtd"
	"github.com/aigrepro/aig/internal/relstore"
	"github.com/aigrepro/aig/internal/sqlmini"
	"github.com/aigrepro/aig/internal/srcpos"
	"github.com/aigrepro/aig/internal/xconstraint"
)

// MemberKind discriminates the type of one attribute member: a scalar
// (one component of the attribute's tuple type), or a set/bag of tuples.
// Bags arise only from constraint compilation (§3.3).
type MemberKind uint8

// The member kinds.
const (
	Scalar MemberKind = iota
	Set
	Bag
)

func (k MemberKind) String() string {
	switch k {
	case Scalar:
		return "scalar"
	case Set:
		return "set"
	case Bag:
		return "bag"
	default:
		return fmt.Sprintf("memberkind(%d)", uint8(k))
	}
}

// MemberDecl declares one member of an attribute.
type MemberDecl struct {
	Name string
	Kind MemberKind
	// ValueKind is the scalar's kind (Scalar members only).
	ValueKind relstore.Kind
	// Fields is the tuple schema of Set/Bag members.
	Fields relstore.Schema
	// Pos is where the member was declared in the spec source (zero for
	// programmatically built grammars).
	Pos srcpos.Pos
}

// String renders the member declaration.
func (m MemberDecl) String() string {
	switch m.Kind {
	case Scalar:
		return m.Name + ":" + m.ValueKind.String()
	case Set:
		return fmt.Sprintf("set %s%s", m.Name, m.Fields)
	default:
		return fmt.Sprintf("bag %s%s", m.Name, m.Fields)
	}
}

// AttrDecl declares an attribute — Inh(A) or Syn(A) — as an ordered list
// of members. The zero value is the empty attribute ().
type AttrDecl struct {
	Members []MemberDecl
}

// Member returns the declaration of the named member, if present.
func (d AttrDecl) Member(name string) (MemberDecl, bool) {
	for _, m := range d.Members {
		if m.Name == name {
			return m, true
		}
	}
	return MemberDecl{}, false
}

// ScalarSchema returns the schema of the attribute's scalar members in
// declaration order — the tuple shape used when the whole attribute is
// bound to a query parameter ($v).
func (d AttrDecl) ScalarSchema() relstore.Schema {
	var out relstore.Schema
	for _, m := range d.Members {
		if m.Kind == Scalar {
			out = append(out, relstore.Column{Name: m.Name, Kind: m.ValueKind})
		}
	}
	return out
}

// IsEmpty reports whether the attribute has no members.
func (d AttrDecl) IsEmpty() bool { return len(d.Members) == 0 }

// Clone returns a deep copy of the declaration.
func (d AttrDecl) Clone() AttrDecl { return cloneAttrDecl(d) }

// String renders the declaration as "(date:string, set trIdS(trId:string))".
func (d AttrDecl) String() string {
	parts := make([]string, len(d.Members))
	for i, m := range d.Members {
		parts[i] = m.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Side distinguishes inherited from synthesized attributes in references.
type Side uint8

// The attribute sides.
const (
	InhSide Side = iota
	SynSide
)

func (s Side) String() string {
	if s == InhSide {
		return "Inh"
	}
	return "Syn"
}

// SourceRef names a value source inside a semantic rule: a member of an
// attribute of some element type (the parent's Inh, or a sibling/child
// Syn). An empty Member refers to the whole scalar tuple of the
// attribute.
type SourceRef struct {
	Side   Side
	Elem   string
	Member string
}

// String renders the reference in the paper's notation.
func (r SourceRef) String() string {
	s := fmt.Sprintf("%s(%s)", r.Side, r.Elem)
	if r.Member != "" {
		s += "." + r.Member
	}
	return s
}

// CopyAssign copies a source member into a target member of the rule's
// target attribute.
type CopyAssign struct {
	TargetMember string
	Src          SourceRef
}

// InhRule computes the inherited attribute of one child element type in a
// production. Exactly one of two shapes is used:
//
//   - a copy rule: Copies assigns members from Inh(A) and sibling Syn;
//   - a query rule: Query runs with QueryParams bound from attributes. In
//     star productions each output row spawns one child, its scalar
//     members bound from the row by column name. In other productions the
//     output set becomes the child's TargetCollection member (a set), or —
//     when the child's attribute is all scalars — the single output row is
//     bound by column name.
type InhRule struct {
	Child string

	Copies []CopyAssign

	Query            *sqlmini.Query
	QueryParams      map[string]SourceRef
	TargetCollection string

	// Chain, when non-empty, replaces Query with the decomposed
	// single-source steps produced by multi-source query decomposition
	// (§3.4). Each step may reference the previous step's output as the
	// set parameter $prev (the paper's internal states St1, St2, ...; here
	// the state values flow directly instead of materializing as tree
	// nodes, and the mediator gives each step its own node in the query
	// dependency graph). QueryParams binds the remaining parameters for
	// every step.
	Chain []*sqlmini.Query

	// Pos is where the rule's first clause for this child appears in the
	// spec source; QueryPos points at the query clause specifically (both
	// zero for programmatically built grammars).
	Pos      srcpos.Pos
	QueryPos srcpos.Pos
}

// PrevParam is the reserved parameter name binding a chain step to the
// output of the preceding step.
const PrevParam = "prev"

// IsQuery reports whether the rule is a query rule (QSR); otherwise it is
// a copy rule (CSR) in the terminology of §4.
func (r *InhRule) IsQuery() bool { return r != nil && (r.Query != nil || len(r.Chain) > 0) }

// SynExpr is the right-hand side of one synthesized-attribute member
// definition: the g functions of §3.1.
type SynExpr interface {
	synExpr()
	String() string
}

// ScalarOf evaluates to the scalar value of a source member.
type ScalarOf struct{ Src SourceRef }

// SingletonOf evaluates to the one-tuple set {(x1, ..., xk)} of scalar
// sources.
type SingletonOf struct{ Srcs []SourceRef }

// CollectionOf evaluates to a source set/bag member.
type CollectionOf struct{ Src SourceRef }

// UnionOf evaluates to the union (bag union for bag targets) of its terms.
type UnionOf struct{ Terms []SynExpr }

// CollectChildren evaluates, in star productions, to the union over all B
// children of the given Syn(B) member (the "collect" function of §3.1,
// case 4). Scalar child members are collected into a set of 1-tuples.
type CollectChildren struct {
	Child  string
	Member string
}

// EmptyOf evaluates to the empty set.
type EmptyOf struct{}

func (ScalarOf) synExpr()        {}
func (SingletonOf) synExpr()     {}
func (CollectionOf) synExpr()    {}
func (UnionOf) synExpr()         {}
func (CollectChildren) synExpr() {}
func (EmptyOf) synExpr()         {}

func (e ScalarOf) String() string     { return e.Src.String() }
func (e CollectionOf) String() string { return e.Src.String() }
func (e EmptyOf) String() string      { return "{}" }

func (e SingletonOf) String() string {
	parts := make([]string, len(e.Srcs))
	for i, s := range e.Srcs {
		parts[i] = s.String()
	}
	return "{(" + strings.Join(parts, ", ") + ")}"
}

func (e UnionOf) String() string {
	parts := make([]string, len(e.Terms))
	for i, t := range e.Terms {
		parts[i] = t.String()
	}
	return strings.Join(parts, " U ")
}

func (e CollectChildren) String() string {
	return fmt.Sprintf("collect(Syn(%s).%s)", e.Child, e.Member)
}

// SynRule computes Syn(A): one expression per member, keyed by member
// name. Members without an entry default to empty (set/bag) or Null
// (scalar).
type SynRule struct {
	Exprs map[string]SynExpr
	// Pos locates each member's defining clause in the spec source (absent
	// or zero for programmatically built grammars).
	Pos map[string]srcpos.Pos
}

// GuardKind discriminates the two guard forms of §3.3.
type GuardKind uint8

// The guard forms.
const (
	GuardUnique GuardKind = iota // unique(Syn(C).B): the bag has no duplicates
	GuardSubset                  // subset(Syn(C).S1, Syn(C).S2)
)

// Guard is a boolean condition on the element's own synthesized
// attribute, checked after the subtree is generated; a false guard aborts
// the evaluation (§3.3).
type Guard struct {
	Kind GuardKind
	// Member is the bag member checked for duplicates (GuardUnique).
	Member string
	// Sub and Super are the set members of a GuardSubset check.
	Sub, Super string
	// Origin is the constraint this guard enforces, for error messages.
	Origin xconstraint.Constraint
}

// String renders the guard.
func (g Guard) String() string {
	if g.Kind == GuardUnique {
		return fmt.Sprintf("unique(%s)", g.Member)
	}
	return fmt.Sprintf("subset(%s, %s)", g.Sub, g.Super)
}

// Branch is one alternative of a choice production's rule: how to compute
// the selected child's Inh and, from it, Syn(A) (§3.1, case 3).
type Branch struct {
	Inh *InhRule
	Syn *SynRule
}

// Rule is rule(p) for one production p = A -> α.
type Rule struct {
	Elem string

	// TextSrc, for A -> S productions, is the scalar source whose value
	// becomes the PCDATA of the text child (the f of case 1).
	TextSrc SourceRef

	// Inh maps child element types to their inherited-attribute rules
	// (sequence and star productions).
	Inh map[string]*InhRule

	// Syn computes Syn(A) (all production forms except choice).
	Syn *SynRule

	// Cond is the condition query of a choice production; it must return
	// a single integer in [1, n] selecting the branch. Branches holds the
	// per-alternative rules in production order.
	Cond       *sqlmini.Query
	CondParams map[string]SourceRef
	Branches   []Branch

	// Guards are checked after Syn(A) is computed.
	Guards []Guard

	// Pos is where the rule section starts in the spec source; CondPos
	// points at the condition query clause (both zero for programmatically
	// built grammars).
	Pos     srcpos.Pos
	CondPos srcpos.Pos
}

// DeclaredSources is the relational schema signature an AIG is written
// against: source name -> table name -> schema, as declared in a spec's
// "sources" section. It implements sqlmini.SchemaProvider so rule queries
// can be resolved against the declaration alone, without live sources.
type DeclaredSources map[string]map[string]relstore.Schema

// TableSchema implements sqlmini.SchemaProvider.
func (s DeclaredSources) TableSchema(source, table string) (relstore.Schema, error) {
	tables, ok := s[source]
	if !ok {
		return nil, fmt.Errorf("source %q is not declared", source)
	}
	schema, ok := tables[table]
	if !ok {
		return nil, fmt.Errorf("source %q declares no table %q", source, table)
	}
	return schema, nil
}

// Clone returns a deep copy.
func (s DeclaredSources) Clone() DeclaredSources {
	if s == nil {
		return nil
	}
	out := make(DeclaredSources, len(s))
	for src, tables := range s {
		ct := make(map[string]relstore.Schema, len(tables))
		for t, schema := range tables {
			ct[t] = append(relstore.Schema(nil), schema...)
		}
		out[src] = ct
	}
	return out
}

// SourceKey declares a relational key (unique constraint) on a declared
// source table: no two rows of Source:Table agree on all of Cols. The
// propagation engine (internal/propagate) chases these through rule
// queries to certify XML keys statically (§5).
type SourceKey struct {
	Source string
	Table  string
	Cols   []string
	// Pos is where the key was declared in the spec source (zero for
	// programmatically built grammars).
	Pos srcpos.Pos
}

// String renders the key as "DB1:patient(SSN)".
func (k SourceKey) String() string {
	return fmt.Sprintf("%s:%s(%s)", k.Source, k.Table, strings.Join(k.Cols, ", "))
}

// Clone returns a deep copy.
func (k SourceKey) Clone() SourceKey {
	k.Cols = append([]string(nil), k.Cols...)
	return k
}

// SourceFK declares a relational foreign key on a declared source table:
// every Cols tuple of Source:Table appears as a RefCols tuple of
// RefSource:RefTable. The referenced column list must itself be declared
// as a SourceKey.
type SourceFK struct {
	Source    string
	Table     string
	Cols      []string
	RefSource string
	RefTable  string
	RefCols   []string
	// Pos is where the foreign key was declared in the spec source (zero
	// for programmatically built grammars).
	Pos srcpos.Pos
}

// String renders the foreign key as "DB1:visitInfo(trId) -> DB3:billing(trId)".
func (k SourceFK) String() string {
	return fmt.Sprintf("%s:%s(%s) -> %s:%s(%s)",
		k.Source, k.Table, strings.Join(k.Cols, ", "),
		k.RefSource, k.RefTable, strings.Join(k.RefCols, ", "))
}

// Clone returns a deep copy.
func (k SourceFK) Clone() SourceFK {
	k.Cols = append([]string(nil), k.Cols...)
	k.RefCols = append([]string(nil), k.RefCols...)
	return k
}

// AIG is an attribute integration grammar σ: R -> D (§3.1, Definition
// 3.1): a DTD, attribute declarations, semantic rules per production, and
// XML constraints.
type AIG struct {
	DTD *dtd.DTD

	Inh map[string]AttrDecl
	Syn map[string]AttrDecl

	Rules map[string]*Rule

	Constraints []xconstraint.Constraint

	// Sources, when non-nil, is the declared schema signature of the
	// relational sources the grammar integrates (a spec's "sources"
	// section). Static tooling resolves rule queries against it; at run
	// time the live registry remains authoritative.
	Sources DeclaredSources

	// SourceKeys and SourceFKs are the relational constraints declared on
	// the source signature ("key"/"fkey" lines of the sources section).
	// They are premises, not checks: the certifier assumes they hold on
	// every instance and proves XML constraints from them.
	SourceKeys []SourceKey
	SourceFKs  []SourceFK

	// Labels maps internal element type names to the labels emitted in the
	// output document. Recursion unfolding (§5.5) introduces per-level
	// copies like "treatment@2" that must still be tagged "treatment"; an
	// absent entry means the type name is the label.
	Labels map[string]string
}

// Label returns the output label of an element type.
func (a *AIG) Label(elem string) string {
	if l, ok := a.Labels[elem]; ok {
		return l
	}
	return elem
}

// New creates an empty AIG over the given DTD.
func New(d *dtd.DTD) *AIG {
	return &AIG{
		DTD:   d,
		Inh:   make(map[string]AttrDecl),
		Syn:   make(map[string]AttrDecl),
		Rules: make(map[string]*Rule),
	}
}

// InhDecl returns the declared inherited attribute of the element type
// (empty if undeclared).
func (a *AIG) InhDecl(elem string) AttrDecl { return a.Inh[elem] }

// SynDecl returns the declared synthesized attribute of the element type
// (empty if undeclared).
func (a *AIG) SynDecl(elem string) AttrDecl { return a.Syn[elem] }

// Rule returns the semantic rule of the element type's production.
func (a *AIG) Rule(elem string) *Rule { return a.Rules[elem] }

// Clone returns a deep copy of the AIG. Queries inside rules are cloned;
// the DTD is cloned too, so specialization can extend it with internal
// states without affecting the original.
func (a *AIG) Clone() *AIG {
	out := New(a.DTD.Clone())
	for k, v := range a.Inh {
		out.Inh[k] = cloneAttrDecl(v)
	}
	for k, v := range a.Syn {
		out.Syn[k] = cloneAttrDecl(v)
	}
	for k, r := range a.Rules {
		out.Rules[k] = cloneRule(r)
	}
	out.Constraints = append([]xconstraint.Constraint(nil), a.Constraints...)
	out.Sources = a.Sources.Clone()
	for _, k := range a.SourceKeys {
		out.SourceKeys = append(out.SourceKeys, k.Clone())
	}
	for _, k := range a.SourceFKs {
		out.SourceFKs = append(out.SourceFKs, k.Clone())
	}
	if a.Labels != nil {
		out.Labels = make(map[string]string, len(a.Labels))
		for k, v := range a.Labels {
			out.Labels[k] = v
		}
	}
	return out
}

func cloneAttrDecl(d AttrDecl) AttrDecl {
	members := make([]MemberDecl, len(d.Members))
	for i, m := range d.Members {
		m.Fields = append(relstore.Schema(nil), m.Fields...)
		members[i] = m
	}
	return AttrDecl{Members: members}
}

func cloneInhRule(r *InhRule) *InhRule {
	if r == nil {
		return nil
	}
	out := &InhRule{
		Child:            r.Child,
		Copies:           append([]CopyAssign(nil), r.Copies...),
		TargetCollection: r.TargetCollection,
		Pos:              r.Pos,
		QueryPos:         r.QueryPos,
	}
	if r.Query != nil {
		out.Query = r.Query.Clone()
	}
	for _, q := range r.Chain {
		out.Chain = append(out.Chain, q.Clone())
	}
	if r.QueryParams != nil {
		out.QueryParams = make(map[string]SourceRef, len(r.QueryParams))
		for k, v := range r.QueryParams {
			out.QueryParams[k] = v
		}
	}
	return out
}

func cloneSynRule(r *SynRule) *SynRule {
	if r == nil {
		return nil
	}
	out := &SynRule{Exprs: make(map[string]SynExpr, len(r.Exprs))}
	for k, v := range r.Exprs {
		out.Exprs[k] = v // expressions are immutable values
	}
	if r.Pos != nil {
		out.Pos = make(map[string]srcpos.Pos, len(r.Pos))
		for k, v := range r.Pos {
			out.Pos[k] = v
		}
	}
	return out
}

func cloneRule(r *Rule) *Rule {
	out := &Rule{
		Elem:    r.Elem,
		TextSrc: r.TextSrc,
		Syn:     cloneSynRule(r.Syn),
		Guards:  append([]Guard(nil), r.Guards...),
		Pos:     r.Pos,
		CondPos: r.CondPos,
	}
	if r.Inh != nil {
		out.Inh = make(map[string]*InhRule, len(r.Inh))
		for k, v := range r.Inh {
			out.Inh[k] = cloneInhRule(v)
		}
	}
	if r.Cond != nil {
		out.Cond = r.Cond.Clone()
	}
	if r.CondParams != nil {
		out.CondParams = make(map[string]SourceRef, len(r.CondParams))
		for k, v := range r.CondParams {
			out.CondParams[k] = v
		}
	}
	for _, b := range r.Branches {
		out.Branches = append(out.Branches, Branch{Inh: cloneInhRule(b.Inh), Syn: cloneSynRule(b.Syn)})
	}
	return out
}

// Queries returns every SQL query mentioned in the AIG's rules — choice
// conditions, child queries and decomposed chains, choice branches
// included — paired with the element type owning the rule. The
// specializer uses this to find multi-source queries.
func (a *AIG) Queries() []ElemQuery {
	var out []ElemQuery
	for _, elem := range a.DTD.Types() {
		r := a.Rules[elem]
		if r == nil {
			continue
		}
		if r.Cond != nil {
			out = append(out, ElemQuery{Elem: elem, Query: r.Cond})
		}
		for _, child := range sortedKeys(r.Inh) {
			out = r.Inh[child].appendQueries(out, elem, child)
		}
		for _, b := range r.Branches {
			if b.Inh != nil {
				out = b.Inh.appendQueries(out, elem, b.Inh.Child)
			}
		}
	}
	return out
}

// appendQueries appends the rule's query, or its decomposed chain, as
// computing child's Inh under elem.
func (r *InhRule) appendQueries(out []ElemQuery, elem, child string) []ElemQuery {
	if !r.IsQuery() {
		return out
	}
	if r.Query != nil {
		out = append(out, ElemQuery{Elem: elem, Child: child, Query: r.Query})
	}
	for i, q := range r.Chain {
		out = append(out, ElemQuery{Elem: elem, Child: child, Query: q, ChainStep: i + 1})
	}
	return out
}

// QuerySources returns the sorted set of source names the grammar's queries
// read.
func (a *AIG) QuerySources() []string {
	set := make(map[string]bool)
	for _, eq := range a.Queries() {
		for _, s := range eq.Query.Sources() {
			set[s] = true
		}
	}
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// ElemQuery locates a query within the grammar.
type ElemQuery struct {
	Elem      string // element type whose production owns the rule
	Child     string // child whose Inh the query computes ("" for condition queries)
	Query     *sqlmini.Query
	ChainStep int // 1-based position within a decomposed chain; 0 otherwise
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	// insertion sort; rule maps are tiny
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
