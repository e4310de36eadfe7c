package sqlmini

import (
	"fmt"

	"github.com/aigrepro/aig/internal/relstore"
)

// DataProvider supplies table contents at execution time.
type DataProvider interface {
	TableData(source, table string) (*relstore.Table, error)
}

// CatalogData adapts a relstore catalog into a DataProvider.
type CatalogData struct{ Catalog *relstore.Catalog }

// TableData implements DataProvider.
func (c CatalogData) TableData(source, table string) (*relstore.Table, error) {
	return c.Catalog.Table(source, table)
}

// Exec executes the plan against the data provider with the given
// parameter bindings and returns the result as a table named name.
// Bag semantics: duplicates are preserved.
func Exec(name string, plan *Plan, data DataProvider, params Params) (*relstore.Table, error) {
	r := plan.Resolved
	n := len(r.TableSchemas)

	preds, err := bindPreds(r, params)
	if err != nil {
		return nil, err
	}

	metricQueries.Inc()

	// Materialize filtered base rows per table.
	baseRows := make([][]relstore.Tuple, n)
	for i := 0; i < n; i++ {
		rows, err := baseTableRows(r, i, data, params)
		if err != nil {
			return nil, err
		}
		metricRowsScanned.Add(int64(len(rows)))
		baseRows[i] = filterLocal(r, i, rows, preds)
	}

	// layoutPos[t] is the column offset of table t in the current
	// intermediate row layout (-1 when not yet joined).
	layoutPos := make([]int, n)
	for i := range layoutPos {
		layoutPos[i] = -1
	}
	// abs translates an absolute resolved column to a layout position.
	abs := func(c int) int {
		t := r.TableOf(c)
		return layoutPos[t] + (c - r.Offsets[t])
	}

	var current []relstore.Tuple
	width := 0
	appliedPred := make([]bool, len(r.Preds))

	markLocalApplied := func(ti int) {
		for pi, p := range r.Preds {
			if isLocalPred(r, p, ti) {
				appliedPred[pi] = true
			}
		}
	}

	for step, ti := range plan.Order {
		markLocalApplied(ti)
		next := baseRows[ti]
		if step == 0 {
			current = make([]relstore.Tuple, len(next))
			for i, row := range next {
				current[i] = row
			}
			layoutPos[ti] = 0
			width = len(r.TableSchemas[ti])
			continue
		}

		// Equality join predicates between the joined prefix and table ti.
		var probeCols, buildCols []int // layout positions vs next-table-local positions
		var pendIdx []int
		for pi, p := range r.Preds {
			if appliedPred[pi] || p.Kind != PredColCol {
				continue
			}
			lt, rt := r.TableOf(p.Left), r.TableOf(p.Right)
			var prefixCol, ownCol int
			switch {
			case lt == ti && layoutPos[rt] >= 0:
				ownCol, prefixCol = p.Left-r.Offsets[ti], abs(p.Right)
			case rt == ti && layoutPos[lt] >= 0:
				ownCol, prefixCol = p.Right-r.Offsets[ti], abs(p.Left)
			default:
				continue
			}
			if p.Op == OpEq {
				probeCols = append(probeCols, prefixCol)
				buildCols = append(buildCols, ownCol)
				appliedPred[pi] = true
			} else {
				pendIdx = append(pendIdx, pi)
			}
		}

		var joined []relstore.Tuple
		if len(buildCols) > 0 {
			// Hash join: build on the new table, probe with the prefix.
			buckets := make(map[string][]relstore.Tuple, len(next))
			for _, row := range next {
				k := row.KeyOn(buildCols)
				buckets[k] = append(buckets[k], row)
			}
			for _, prow := range current {
				k := prow.KeyOn(probeCols)
				for _, nrow := range buckets[k] {
					joined = append(joined, prow.Concat(nrow))
				}
			}
		} else {
			// Cartesian product (rare; only for disconnected queries).
			for _, prow := range current {
				for _, nrow := range next {
					joined = append(joined, prow.Concat(nrow))
				}
			}
		}
		layoutPos[ti] = width
		width += len(r.TableSchemas[ti])

		// Apply non-equi cross-table predicates that just became bound.
		if len(pendIdx) > 0 {
			filtered := joined[:0]
			for _, row := range joined {
				ok := true
				for _, pi := range pendIdx {
					p := r.Preds[pi]
					if !p.Op.Eval(row[abs(p.Left)], row[abs(p.Right)]) {
						ok = false
						break
					}
				}
				if ok {
					filtered = append(filtered, row)
				}
			}
			joined = filtered
			for _, pi := range pendIdx {
				appliedPred[pi] = true
			}
		}
		current = joined
	}

	// Any predicate not yet applied (e.g. cross-table preds over a
	// cartesian pair) is applied now.
	for pi, p := range preds {
		if appliedPred[pi] {
			continue
		}
		filtered := current[:0]
		for _, row := range current {
			if evalPredOnLayout(p, row, abs) {
				filtered = append(filtered, row)
			}
		}
		current = filtered
	}

	// Project into one backing array: the result is an immutable
	// temporary, so its rows may share storage.
	k := len(r.SelectCols)
	at := make([]int, k)
	for i, c := range r.SelectCols {
		at[i] = abs(c)
	}
	vals := make(relstore.Tuple, len(current)*k)
	rows := make([]relstore.Tuple, len(current))
	for i, row := range current {
		proj := vals[i*k : (i+1)*k : (i+1)*k]
		for j, c := range at {
			proj[j] = row[c]
		}
		rows[i] = proj
	}
	if r.Query.Distinct {
		rows, _ = relstore.DistinctRows(rows)
	}
	out, err := relstore.TableFromRows(name, r.Output.Project(identity(len(r.Output))), rows)
	if err != nil {
		return nil, err
	}
	metricRowsReturned.Add(int64(out.Len()))
	return out, nil
}

func identity(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// boundPred is a resolved predicate with its parameter operand evaluated
// for one execution — the scalar field's value or the IN set — so that
// per-row evaluation looks nothing up by name.
type boundPred struct {
	ResolvedPred
	operand relstore.Value  // PredColParam
	inSet   map[string]bool // PredColInParam: value keys
}

// bindPreds evaluates the parameter operands of r's predicates, in the
// order of r.Preds.
func bindPreds(r *Resolved, params Params) ([]boundPred, error) {
	out := make([]boundPred, len(r.Preds))
	inSets := make(map[string]map[string]bool) // a set parameter may feed several predicates
	for i, p := range r.Preds {
		out[i].ResolvedPred = p
		if p.Kind != PredColParam && p.Kind != PredColInParam {
			continue
		}
		b, ok := params[p.Param]
		if !ok {
			return nil, fmt.Errorf("sqlmini: missing binding for parameter $%s", p.Param)
		}
		if p.Kind == PredColParam {
			v, err := b.Field(p.ParamField)
			if err != nil {
				return nil, err
			}
			out[i].operand = v
			continue
		}
		set, done := inSets[p.Param]
		if !done {
			if len(b.Schema) != 1 {
				return nil, fmt.Errorf("sqlmini: IN parameter $%s must have one column, has %d", p.Param, len(b.Schema))
			}
			set = make(map[string]bool, len(b.Rows))
			for _, row := range b.Rows {
				set[row[0].Key()] = true
			}
			inSets[p.Param] = set
		}
		out[i].inSet = set
	}
	return out, nil
}

func baseTableRows(r *Resolved, i int, data DataProvider, params Params) ([]relstore.Tuple, error) {
	ref := r.Query.From[i]
	if ref.IsParam() {
		b, ok := params[ref.Param]
		if !ok {
			return nil, fmt.Errorf("sqlmini: missing binding for table parameter $%s", ref.Param)
		}
		if !b.Schema.Equal(r.TableSchemas[i]) {
			return nil, fmt.Errorf("sqlmini: binding for $%s has schema %v, resolved as %v", ref.Param, b.Schema, r.TableSchemas[i])
		}
		return b.Rows, nil
	}
	t, err := data.TableData(ref.Source, ref.Table)
	if err != nil {
		return nil, err
	}
	if !t.Schema().Equal(r.TableSchemas[i]) {
		return nil, fmt.Errorf("sqlmini: table %s:%s schema changed since resolution", ref.Source, ref.Table)
	}
	return t.Rows(), nil
}

func isLocalPred(r *Resolved, p ResolvedPred, ti int) bool {
	if r.TableOf(p.Left) != ti {
		return false
	}
	if p.Kind == PredColCol {
		return r.TableOf(p.Right) == ti
	}
	return true
}

// filterLocal applies all single-table predicates of table i to its rows.
func filterLocal(r *Resolved, i int, rows []relstore.Tuple, all []boundPred) []relstore.Tuple {
	var preds []boundPred
	for _, p := range all {
		if isLocalPred(r, p.ResolvedPred, i) {
			preds = append(preds, p)
		}
	}
	if len(preds) == 0 {
		return rows
	}
	off := r.Offsets[i]
	local := func(c int) int { return c - off }
	out := make([]relstore.Tuple, 0, len(rows))
	for _, row := range rows {
		ok := true
		for _, p := range preds {
			if !evalPredOnLayout(p, row, local) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, row)
		}
	}
	return out
}

// evalPredOnLayout evaluates a predicate on a row given a translation from
// absolute resolved columns to row positions.
func evalPredOnLayout(p boundPred, row relstore.Tuple, at func(int) int) bool {
	left := row[at(p.Left)]
	switch p.Kind {
	case PredColCol:
		return p.Op.Eval(left, row[at(p.Right)])
	case PredColConst:
		return p.Op.Eval(left, p.Const)
	case PredColParam:
		return p.Op.Eval(left, p.operand)
	case PredColInParam:
		return p.inSet[left.Key()]
	case PredColInList:
		for _, v := range p.List {
			if left.Equal(v) {
				return true
			}
		}
		return false
	default:
		return false
	}
}

// Run resolves, plans and executes q in one call — the convenience path
// used by the conceptual evaluator, which runs each query per node rather
// than set-at-a-time.
func Run(name string, q *Query, schemas SchemaProvider, data DataProvider, stats Stats, params Params, opts PlanOptions) (*relstore.Table, error) {
	plan, err := PlanAndEstimate(q, schemas, ParamSchemasOf(params), stats, opts)
	if err != nil {
		return nil, err
	}
	return Exec(name, plan, data, params)
}
