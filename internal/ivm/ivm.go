// Package ivm implements the decision core of incremental view
// maintenance: given the static table dependencies of a prepared view
// (specialize.TableScans) and a batch of row-level deltas from a source
// (relstore.ChangeSet), it judges whether the deltas can possibly affect
// the view as evaluated for a concrete root-parameter binding.
//
// The judge is deliberately one-sided. Unaffected is a proof: every
// changed row fails, on every scan of the changed table, at least one
// predicate whose value is fixed at judging time (a literal, an IN list,
// or a scalar parameter bound to the view's root Inh — the HTTP request
// parameters, constant for the whole evaluation). Such a row can never
// enter any query result the view reads, inserted or deleted, so the
// rendered document is unchanged and a cached copy may simply be
// restamped to the new data version. MaybeAffected is not a proof of
// change — it just sends the refresher down the full re-evaluation path.
package ivm

import (
	"fmt"

	"github.com/aigrepro/aig/internal/aig"
	"github.com/aigrepro/aig/internal/relstore"
	"github.com/aigrepro/aig/internal/specialize"
	"github.com/aigrepro/aig/internal/sqlmini"
)

// Verdict is the judge's answer for one delta batch.
type Verdict uint8

const (
	// Unaffected proves the deltas cannot change the view's output for
	// the judged parameter binding.
	Unaffected Verdict = iota
	// MaybeAffected means no such proof exists; re-evaluate.
	MaybeAffected
)

// String returns "unaffected" or "maybe-affected".
func (v Verdict) String() string {
	if v == Unaffected {
		return "unaffected"
	}
	return "maybe-affected"
}

// pred is a judgeable predicate on one scan: column index into the base
// table's schema plus a right-hand side that is constant per judging.
type pred struct {
	col int
	op  sqlmini.CompareOp

	kind  sqlmini.PredKind // PredColConst, PredColParam or PredColInList
	con   relstore.Value
	field string // root Inh member for PredColParam
	list  []relstore.Value
}

// scan is one base-table reference with its judgeable predicates. An
// empty preds list means no proof is ever possible for this scan: every
// change to the table is relevant.
type scan struct {
	elem, child string
	preds       []pred
}

// Deps holds a view's judgeable table dependencies.
type Deps struct {
	root       string
	rootSchema relstore.Schema
	// scans[source][table] lists the scans of that base table.
	scans map[string]map[string][]scan
}

// SchemaSource resolves base-table schemas during extraction;
// *source.Registry implements it.
type SchemaSource interface {
	TableSchema(source, table string) (relstore.Schema, error)
}

// botMark is the lattice bottom of the root-copy analysis: "this member
// is not provably a copy of a root Inh member".
const botMark = "\x00bot"

// rootCopyMap computes, for each element type, which of its inherited
// scalar members are pure copies of a root Inh member along *every*
// instantiation path — those members hold the same value as the request
// parameter in every node instance, which is what makes a predicate over
// them evaluation-constant. The analysis is an optimistic fixpoint over
// copy rules: query-bound members are bottom, copies propagate the
// parent's status, and elements creatable from multiple productions meet
// their contributions (disagreement is bottom). Elements still unvisited
// at the fixpoint are unreachable from the root and stay absent.
func rootCopyMap(a *aig.AIG) map[string]map[string]string {
	st := make(map[string]map[string]string)
	root := a.DTD.Root
	id := make(map[string]string)
	for _, m := range a.Inh[root].Members {
		if m.Kind == aig.Scalar {
			id[m.Name] = m.Name
		}
	}
	st[root] = id

	// contribution computes what one creating rule asserts about the
	// child's members, given the parent's current status.
	contribution := func(parent string, ir *aig.InhRule) map[string]string {
		ps := st[parent]
		out := make(map[string]string)
		for _, m := range a.Inh[ir.Child].Members {
			out[m.Name] = botMark
			if m.Kind != aig.Scalar {
				continue
			}
			for _, cp := range ir.Copies {
				if cp.TargetMember != m.Name {
					continue
				}
				if cp.Src.Side == aig.InhSide && cp.Src.Elem == parent {
					if r, ok := ps[cp.Src.Member]; ok && r != botMark {
						out[m.Name] = r
					}
				}
				break
			}
		}
		return out
	}

	meet := func(child string, contrib map[string]string) bool {
		cur := st[child]
		if cur == nil {
			st[child] = contrib
			return true
		}
		changed := false
		for m, c := range contrib {
			if prev, ok := cur[m]; !ok {
				cur[m] = c
				changed = true
			} else if prev != c && prev != botMark {
				cur[m] = botMark
				changed = true
			}
		}
		return changed
	}

	for changed := true; changed; {
		changed = false
		for _, elem := range a.DTD.Types() {
			r := a.Rules[elem]
			if r == nil || st[elem] == nil {
				continue // unreachable so far; cannot instantiate children
			}
			for _, ir := range r.Inh {
				if meet(ir.Child, contribution(elem, ir)) {
					changed = true
				}
			}
			for _, b := range r.Branches {
				if b.Inh != nil {
					if meet(b.Inh.Child, contribution(elem, b.Inh)) {
						changed = true
					}
				}
			}
		}
	}
	return st
}

// Extract builds the judgeable dependencies of an AIG. Run it on the
// post-decomposition grammar the evaluator actually executes. A
// predicate survives extraction only when its value is fixed for a whole
// evaluation: literals, IN lists, and scalar parameters bound (directly,
// or through an unbroken chain of copy rules) to a root Inh member —
// the view's request parameters.
func Extract(a *aig.AIG, schemas SchemaSource) (*Deps, error) {
	return ExtractFiltered(a, schemas, nil)
}

// ExtractFiltered is Extract restricted to the scans keep admits, keyed
// by (rule element, child) the way specialize.TableScans reports them.
// It exists for fragment serving: a cached fragment depends only on the
// scans its path can reach (xpath.Verdict), so deltas against
// the rest of the view's tables restamp the fragment instead of
// rebuilding it. keep must be an over-approximation of the scans any
// concrete evaluation of the fragment runs; nil keeps everything.
func ExtractFiltered(a *aig.AIG, schemas SchemaSource, keep func(elem, child string) bool) (*Deps, error) {
	root := a.DTD.Root
	traced := rootCopyMap(a)
	d := &Deps{
		root:       root,
		rootSchema: a.Inh[root].ScalarSchema(),
		scans:      make(map[string]map[string][]scan),
	}
	for _, ts := range specialize.TableScans(a) {
		if keep != nil && !keep(ts.Elem, ts.Child) {
			continue
		}
		schema, err := schemas.TableSchema(ts.Source, ts.Table)
		if err != nil {
			return nil, fmt.Errorf("ivm: resolving %s:%s: %w", ts.Source, ts.Table, err)
		}
		sc := scan{elem: ts.Elem, child: ts.Child}
		for _, p := range ts.Preds {
			col := schema.ColumnIndex(p.Left.Column)
			if col < 0 {
				continue // resolver would have rejected; stay conservative
			}
			jp := pred{col: col, op: p.Op, kind: p.Kind}
			switch p.Kind {
			case sqlmini.PredColConst:
				jp.con = p.Const
			case sqlmini.PredColInList:
				jp.list = p.List
			case sqlmini.PredColParam:
				// Usable only when the parameter field provably holds a
				// root Inh member's value in every node instance: the
				// parameter is a whole Inh tuple whose field the
				// root-copy analysis traced back to the root.
				ref, ok := ts.Params[p.Param]
				if !ok || ref.Side != aig.InhSide || ref.Member != "" {
					continue
				}
				rootMember, ok := traced[ref.Elem][p.ParamField]
				if !ok || rootMember == botMark {
					continue
				}
				if _, ok := a.Inh[root].Member(rootMember); !ok {
					continue
				}
				jp.field = rootMember
			default:
				continue
			}
			sc.preds = append(sc.preds, jp)
		}
		byTable := d.scans[ts.Source]
		if byTable == nil {
			byTable = make(map[string][]scan)
			d.scans[ts.Source] = byTable
		}
		byTable[ts.Table] = append(byTable[ts.Table], sc)
	}
	return d, nil
}

// Judges reports whether d holds a scan of source:table by the query of
// rule (elem, child) — the key specialize.TableScans gives it; child is
// "" for a choice's condition.
func (d *Deps) Judges(elem, child, source, table string) bool {
	for _, sc := range d.scans[source][table] {
		if sc.elem == elem && sc.child == child {
			return true
		}
	}
	return false
}

// DependsOn reports whether any of the view's queries scans the table.
// Changes to non-dependency tables never dirty the view.
func (d *Deps) DependsOn(source, table string) bool {
	return len(d.scans[source][table]) > 0
}

// Tables returns the names of the tables the view reads from the given
// source.
func (d *Deps) Tables(source string) []string {
	out := make([]string, 0, len(d.scans[source]))
	for t := range d.scans[source] {
		out = append(out, t)
	}
	return out
}

// ParseParams converts raw request parameters (as bound by the serving
// layer) into typed values against the root Inh schema, the form Judge
// consumes.
func (d *Deps) ParseParams(raw map[string]string) (map[string]relstore.Value, error) {
	out := make(map[string]relstore.Value, len(raw))
	for _, col := range d.rootSchema {
		s, ok := raw[col.Name]
		if !ok {
			return nil, fmt.Errorf("ivm: missing root parameter %q", col.Name)
		}
		v, err := relstore.ParseValue(col.Kind, s)
		if err != nil {
			return nil, fmt.Errorf("ivm: root parameter %q: %w", col.Name, err)
		}
		out[col.Name] = v
	}
	return out, nil
}

// ParamsFromInh extracts the judgeable parameter binding directly from
// a bound root inherited attribute — the difftest harness's route,
// which has the typed values rather than raw request strings.
func (d *Deps) ParamsFromInh(v *aig.AttrValue) (map[string]relstore.Value, error) {
	out := make(map[string]relstore.Value, len(d.rootSchema))
	for _, col := range d.rootSchema {
		val, err := v.Scalar(col.Name)
		if err != nil {
			return nil, fmt.Errorf("ivm: root parameter %q: %w", col.Name, err)
		}
		out[col.Name] = val
	}
	return out, nil
}

// Judge decides whether the delta batch can affect the view under the
// given root-parameter binding. A truncated ChangeSet is always
// MaybeAffected (the deltas are unknown). Otherwise the batch is
// Unaffected iff every changed row is provably excluded from every scan
// of the table: on each scan, the row fails at least one judgeable
// predicate. Inserts and deletes are symmetric — a row no query would
// have read contributes nothing whether it arrives or leaves.
func (d *Deps) Judge(source, table string, cs relstore.ChangeSet, params map[string]relstore.Value) Verdict {
	if cs.Truncated {
		return MaybeAffected
	}
	scans := d.scans[source][table]
	if len(scans) == 0 {
		return Unaffected // not a dependency at all
	}
	for _, ch := range cs.Changes {
		for _, sc := range scans {
			if !rowExcluded(sc, ch.Row, params) {
				return MaybeAffected
			}
		}
	}
	return Unaffected
}

// rowExcluded reports whether the row provably fails at least one of the
// scan's judgeable predicates.
func rowExcluded(sc scan, row relstore.Tuple, params map[string]relstore.Value) bool {
	for _, p := range sc.preds {
		if p.col >= len(row) {
			continue // schema drift; never prove from a misshapen row
		}
		val := row[p.col]
		switch p.kind {
		case sqlmini.PredColConst:
			if !p.op.Eval(val, p.con) {
				return true
			}
		case sqlmini.PredColParam:
			pv, ok := params[p.field]
			if ok && !p.op.Eval(val, pv) {
				return true
			}
		case sqlmini.PredColInList:
			in := false
			for _, lv := range p.list {
				if val.Equal(lv) {
					in = true
					break
				}
			}
			if !in {
				return true
			}
		}
	}
	return false
}
