package sqlmini

import (
	"fmt"
	"slices"

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
//
// Stored tables are read through their snapshot indexes: local
// equalities with a constant or a parameter field, or failing those an
// IN set, select candidates from the index on their columns, and a join
// step whose new table is stored probes the index on the equality
// columns plus the join columns with each prefix row. Positions are
// taken in snapshot order, so every result lists its rows in the order
// a scan and a hash join would.
func Exec(name string, plan *Plan, data DataProvider, params Params) (*relstore.Table, error) {
	r := plan.Resolved
	n := len(r.TableSchemas)

	preds, err := bindPreds(r, params)
	if err != nil {
		return nil, err
	}

	metricQueries.Inc()

	inputs := make([]input, n)
	for i := range inputs {
		if err := inputs[i].open(r, i, data, params, preds); err != nil {
			return nil, err
		}
	}

	// The joined rows hold one reference per joined table, in join
	// order: over k tables, row i is refs[i*k:(i+1)*k], and slot[t] is
	// table t's place in it (-1 until t is joined). The projection below
	// is the only place a row is built.
	slot := make([]int, n)
	for i := range slot {
		slot[i] = -1
	}
	at := func(c int) colAt {
		t := r.TableOf(c)
		return colAt{slot[t], c - r.Offsets[t]}
	}
	value := func(row []relstore.Tuple, c int) relstore.Value {
		a := at(c)
		return row[a.slot][a.col]
	}

	var refs []relstore.Tuple
	k := 0
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
		in := &inputs[ti]
		if step == 0 {
			// A copy: the filters below work in place, and the
			// candidates may be a stored snapshot.
			refs = append([]relstore.Tuple(nil), in.candidates()...)
			slot[ti], k = 0, 1
			continue
		}

		// Equality join predicates between the joined prefix and table ti.
		var probe []colAt   // prefix columns
		var buildCols []int // table ti's own columns
		var pendIdx []int
		for pi, p := range r.Preds {
			if appliedPred[pi] || p.Kind != PredColCol {
				continue
			}
			lt, rt := r.TableOf(p.Left), r.TableOf(p.Right)
			var prefixCol colAt
			var ownCol int
			switch {
			case lt == ti && slot[rt] >= 0:
				ownCol, prefixCol = p.Left-r.Offsets[ti], at(p.Right)
			case rt == ti && slot[lt] >= 0:
				ownCol, prefixCol = p.Right-r.Offsets[ti], at(p.Left)
			default:
				continue
			}
			if p.Op == OpEq {
				probe = append(probe, prefixCol)
				buildCols = append(buildCols, ownCol)
				appliedPred[pi] = true
			} else {
				pendIdx = append(pendIdx, pi)
			}
		}

		if len(buildCols) > 0 {
			refs = in.join(refs, k, probe, buildCols)
		} else {
			// Cartesian product (rare; only for disconnected queries).
			next := in.candidates()
			joined := make([]relstore.Tuple, 0, len(refs)/k*len(next)*(k+1))
			for lo := 0; lo < len(refs); lo += k {
				for _, nrow := range next {
					joined = append(append(joined, refs[lo:lo+k]...), nrow)
				}
			}
			refs = joined
		}
		slot[ti] = k
		k++

		// Apply non-equi cross-table predicates that just became bound.
		if len(pendIdx) > 0 {
			refs = keep(refs, k, func(row []relstore.Tuple) bool {
				for _, pi := range pendIdx {
					p := r.Preds[pi]
					if !p.Op.Eval(value(row, p.Left), value(row, p.Right)) {
						return false
					}
				}
				return true
			})
			for _, pi := range pendIdx {
				appliedPred[pi] = true
			}
		}
	}

	// Any predicate not yet applied (e.g. cross-table preds over a
	// cartesian pair) is applied now.
	for pi, p := range preds {
		if appliedPred[pi] {
			continue
		}
		refs = keep(refs, k, func(row []relstore.Tuple) bool {
			return evalPred(p, func(c int) relstore.Value { return value(row, c) })
		})
	}

	// Project into one backing array: the result is an immutable
	// temporary, so its rows may share storage.
	w := len(r.SelectCols)
	cols := make([]colAt, w)
	for i, c := range r.SelectCols {
		cols[i] = at(c)
	}
	nrows := 0
	if k > 0 {
		nrows = len(refs) / k
	}
	vals := make(relstore.Tuple, nrows*w)
	rows := make([]relstore.Tuple, nrows)
	for i := range rows {
		row, proj := refs[i*k:(i+1)*k], vals[i*w:(i+1)*w:(i+1)*w]
		for j, c := range cols {
			proj[j] = row[c.slot][c.col]
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

// colAt places a column in a joined row: column col of the row's
// slot-th reference.
type colAt struct{ slot, col int }

// keep filters joined rows of k references each in place, keeping the
// rows ok accepts, in order.
func keep(refs []relstore.Tuple, k int, ok func(row []relstore.Tuple) bool) []relstore.Tuple {
	n := 0
	for lo := 0; lo < len(refs); lo += k {
		if row := refs[lo : lo+k]; ok(row) {
			n += copy(refs[n:], row)
		}
	}
	return refs[:n]
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

// input is one FROM table as the executor reads it: a stored table
// through its snapshot indexes, or a parameter table's rows.
type input struct {
	table *relstore.Table // nil for a parameter table
	rows  []relstore.Tuple
	// eqCols and eqVals are a stored table's local equalities with a
	// constant or a parameter field, which its index probes apply.
	eqCols []int
	eqVals relstore.Tuple
	// inCol and inVals are the column and values of a stored table's
	// first local IN predicate, which a probe applies when no equality
	// does.
	inCol  []int
	inVals []relstore.Value
	// filter holds the local predicates no probe applies; off is the
	// table's first absolute column.
	filter []boundPred
	off    int
}

// open resolves FROM table i and splits its local predicates.
func (in *input) open(r *Resolved, i int, data DataProvider, params Params, preds []boundPred) error {
	ref := r.Query.From[i]
	if ref.IsParam() {
		b, ok := params[ref.Param]
		if !ok {
			return fmt.Errorf("sqlmini: missing binding for table parameter $%s", ref.Param)
		}
		if !b.Schema.Equal(r.TableSchemas[i]) {
			return fmt.Errorf("sqlmini: binding for $%s has schema %v, resolved as %v", ref.Param, b.Schema, r.TableSchemas[i])
		}
		in.rows = b.Rows
	} else {
		t, err := data.TableData(ref.Source, ref.Table)
		if err != nil {
			return err
		}
		if !t.Schema().Equal(r.TableSchemas[i]) {
			return fmt.Errorf("sqlmini: table %s:%s schema changed since resolution", ref.Source, ref.Table)
		}
		in.table = t
	}
	in.off = r.Offsets[i]
	for _, p := range preds {
		if !isLocalPred(r, p.ResolvedPred, i) {
			continue
		}
		if in.table != nil && p.Op == OpEq && (p.Kind == PredColConst || p.Kind == PredColParam) {
			in.eqCols = append(in.eqCols, p.Left-in.off)
			if p.Kind == PredColConst {
				in.eqVals = append(in.eqVals, p.Const)
			} else {
				in.eqVals = append(in.eqVals, p.operand)
			}
			continue
		}
		if in.table != nil && in.inCol == nil && (p.Kind == PredColInParam || p.Kind == PredColInList) {
			in.inCol = []int{p.Left - in.off}
			in.inVals = p.List
			if p.Kind == PredColInParam {
				set := params[p.Param].Rows
				in.inVals = make([]relstore.Value, len(set))
				for j, row := range set {
					in.inVals[j] = row[0]
				}
			}
		}
		in.filter = append(in.filter, p)
	}
	return nil
}

// pass reports whether a table-local row satisfies the filter.
func (in *input) pass(row relstore.Tuple) bool {
	local := func(c int) relstore.Value { return row[c-in.off] }
	for _, p := range in.filter {
		if !evalPred(p, local) {
			return false
		}
	}
	return true
}

// candidates returns the rows satisfying every local predicate, in
// table order: an index probe when the table is stored and has a local
// equality or IN predicate, a scan otherwise.
func (in *input) candidates() []relstore.Tuple {
	if in.table != nil && (len(in.eqCols) > 0 || in.inCol != nil) {
		var ix *relstore.HashIndex
		var pos []int
		if len(in.eqCols) > 0 {
			ix = in.table.Index(in.eqCols)
			pos = ix.Lookup(in.eqVals)
		} else {
			// One bucket per set value. Sorting the positions restores
			// snapshot order and brings a repeated value's duplicates
			// together, to be dropped.
			ix = in.table.Index(in.inCol)
			for _, v := range in.inVals {
				pos = append(pos, ix.Lookup(relstore.Tuple{v})...)
			}
			slices.Sort(pos)
			pos = slices.Compact(pos)
		}
		rows := ix.Rows()
		metricRowsScanned.Add(int64(len(pos)))
		out := make([]relstore.Tuple, 0, len(pos))
		for _, p := range pos {
			if in.pass(rows[p]) {
				out = append(out, rows[p])
			}
		}
		return out
	}
	rows := in.rows
	if in.table != nil {
		rows = in.table.Rows()
	}
	metricRowsScanned.Add(int64(len(rows)))
	if len(in.filter) == 0 {
		return rows
	}
	out := make([]relstore.Tuple, 0, len(rows))
	for _, row := range rows {
		if in.pass(row) {
			out = append(out, row)
		}
	}
	return out
}

// join equi-joins the joined rows refs, k references each, with the
// table on the prefix columns probe = row[buildCols], prefix order
// first, table order within a prefix row; a result row is its prefix's
// references followed by the table row. A stored table is probed
// through its index on the local equality columns plus buildCols; a
// parameter table is hashed for this join.
func (in *input) join(refs []relstore.Tuple, k int, probe []colAt, buildCols []int) []relstore.Tuple {
	// Room for one match per prefix row, the common key-to-key case.
	joined := make([]relstore.Tuple, 0, len(refs)+len(refs)/k)
	ne := len(in.eqCols)
	key := make(relstore.Tuple, ne+len(probe))
	copy(key, in.eqVals)
	probeKey := func(prefix []relstore.Tuple) relstore.Tuple {
		for j, c := range probe {
			key[ne+j] = prefix[c.slot][c.col]
		}
		return key
	}
	if in.table == nil {
		next := in.candidates()
		buckets := make(map[string][]relstore.Tuple, len(next))
		for _, row := range next {
			bk := row.KeyOn(buildCols)
			buckets[bk] = append(buckets[bk], row)
		}
		for lo := 0; lo < len(refs); lo += k {
			prefix := refs[lo : lo+k]
			for _, nrow := range buckets[probeKey(prefix).Key()] {
				joined = append(append(joined, prefix...), nrow)
			}
		}
		return joined
	}
	ix := in.table.Index(append(append(make([]int, 0, ne+len(buildCols)), in.eqCols...), buildCols...))
	rows := ix.Rows()
	hits := 0
	for lo := 0; lo < len(refs); lo += k {
		prefix := refs[lo : lo+k]
		pos := ix.Lookup(probeKey(prefix))
		hits += len(pos)
		for _, p := range pos {
			if nrow := rows[p]; in.pass(nrow) {
				joined = append(append(joined, prefix...), nrow)
			}
		}
	}
	metricRowsScanned.Add(int64(hits))
	return joined
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

// evalPred evaluates a predicate on a row given the value of each
// absolute resolved column.
func evalPred(p boundPred, value func(c int) relstore.Value) bool {
	left := value(p.Left)
	switch p.Kind {
	case PredColCol:
		return p.Op.Eval(left, value(p.Right))
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
