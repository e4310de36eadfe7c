package specialize

import (
	"sort"

	"github.com/aigrepro/aig/internal/aig"
	"github.com/aigrepro/aig/internal/sqlmini"
)

// TableScan records one base-table reference made by a semantic-rule
// query, together with everything a maintenance judge can use to decide
// whether a row-level change to that table can affect the query's
// output: the predicates attributable to the scan and the rule's
// parameter bindings. This is the static side of incremental view
// maintenance; the dynamic side (internal/ivm) turns these records into
// relevance verdicts for concrete deltas.
type TableScan struct {
	// Elem is the element type owning the rule; Child the child whose
	// Inh the query computes ("" for condition queries); ChainStep the
	// 1-based position within a decomposed chain (0 outside chains).
	Elem      string
	Child     string
	ChainStep int

	// Source and Table name the scanned base relation; Alias is the
	// name by which the query's columns reference it.
	Source string
	Table  string
	Alias  string

	// Sole reports that this is the query's only FROM entry, so
	// unqualified column references resolve to it.
	Sole bool

	// Preds are the WHERE conjuncts attributable to this scan: their
	// left column resolves here and their right side is a constant, an
	// IN list, or a scalar parameter field. Join predicates (column =
	// column) and set-parameter membership are excluded — they depend
	// on other relations and are never usable to prove a delta
	// irrelevant.
	Preds []sqlmini.Pred

	// Params is the owning rule's parameter binding map: parameter name
	// to the attribute reference it is bound from.
	Params map[string]aig.SourceRef
}

// TableScans statically extracts every base-table scan of the AIG's
// semantic-rule queries. Run it after DecomposeQueries so that chain
// steps (each single-source) are what ships to the sources; parameter
// table references ($prev and friends) carry no Source and are skipped.
// The result is sorted by (Source, Table, Elem, Child, ChainStep) for
// deterministic consumers.
func TableScans(a *aig.AIG) []TableScan {
	var out []TableScan
	collect := func(elem, child string, step int, q *sqlmini.Query, params map[string]aig.SourceRef) {
		if q == nil {
			return
		}
		sole := len(q.From) == 1
		for _, ref := range q.From {
			if ref.IsParam() || ref.Source == "" {
				continue
			}
			ts := TableScan{
				Elem: elem, Child: child, ChainStep: step,
				Source: ref.Source, Table: ref.Table, Alias: ref.BindName(),
				Sole: sole, Params: params,
			}
			for _, p := range q.Where {
				switch p.Kind {
				case sqlmini.PredColConst, sqlmini.PredColParam, sqlmini.PredColInList:
				default:
					continue
				}
				if p.Left.Table != ts.Alias && !(p.Left.Table == "" && sole) {
					continue
				}
				ts.Preds = append(ts.Preds, p)
			}
			out = append(out, ts)
		}
	}

	for _, elem := range a.DTD.Types() {
		r := a.Rules[elem]
		if r == nil {
			continue
		}
		if r.Cond != nil {
			collect(elem, "", 0, r.Cond, r.CondParams)
		}
		inh := func(child string, ir *aig.InhRule) {
			if !ir.IsQuery() {
				return
			}
			if len(ir.Chain) > 0 {
				for i, q := range ir.Chain {
					collect(elem, child, i+1, q, ir.QueryParams)
				}
			} else {
				collect(elem, child, 0, ir.Query, ir.QueryParams)
			}
		}
		children := make([]string, 0, len(r.Inh))
		for c := range r.Inh {
			children = append(children, c)
		}
		sort.Strings(children)
		for _, child := range children {
			inh(child, r.Inh[child])
		}
		for _, b := range r.Branches {
			if b.Inh != nil {
				inh(b.Inh.Child, b.Inh)
			}
		}
	}

	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Source != b.Source {
			return a.Source < b.Source
		}
		if a.Table != b.Table {
			return a.Table < b.Table
		}
		if a.Elem != b.Elem {
			return a.Elem < b.Elem
		}
		if a.Child != b.Child {
			return a.Child < b.Child
		}
		return a.ChainStep < b.ChainStep
	})
	return out
}
