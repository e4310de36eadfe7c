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
//
// The execution works in scratch, whose arrays the result table's rows
// then live in (see Scratch); without one it allocates fresh working
// memory, and given more than one it fails.
func Exec(name string, plan *Plan, data DataProvider, params Params, scratch ...*Scratch) (*relstore.Table, error) {
	r := plan.Resolved
	n := len(r.TableSchemas)
	if len(scratch) > 1 {
		return nil, fmt.Errorf("sqlmini: %s: %d scratches given, at most one runs an execution", name, len(scratch))
	}
	var fresh Scratch
	sc := &fresh
	if len(scratch) == 1 && scratch[0] != nil {
		sc = scratch[0]
	}

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

	// The joined rows alternate between the scratch's two arrays: each
	// step reads one and writes the other.
	var refs []relstore.Tuple
	cur := 0
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
			refs = sc.joined[cur].put(in.candidates(sc.joined[cur].take(0)))
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

		cur = 1 - cur
		if len(buildCols) > 0 {
			refs = sc.joined[cur].put(in.join(sc.joined[cur].take(0), refs, k, probe, buildCols, sc, ti))
		} else {
			// Cartesian product (rare; only for disconnected queries).
			// The product only reads the input's rows, so unfiltered
			// ones are taken as they are.
			var next []relstore.Tuple
			if in.filtered() {
				next = in.candidates(nil)
			} else {
				next = in.scan()
			}
			joined := sc.joined[cur].take(len(refs) / k * len(next) * (k + 1))
			for lo := 0; lo < len(refs); lo += k {
				for _, nrow := range next {
					joined = append(append(joined, refs[lo:lo+k]...), nrow)
				}
			}
			refs = sc.joined[cur].put(joined)
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
	vals := sc.vals.put(sc.vals.take(nrows * w)[:nrows*w])
	rows := sc.rows.put(sc.rows.take(nrows)[:nrows])
	for i := range rows {
		row, proj := refs[i*k:(i+1)*k], vals[i*w:(i+1)*w:(i+1)*w]
		for j, c := range cols {
			proj[j] = row[c.slot][c.col]
		}
		rows[i] = proj
	}
	if r.Query.Distinct {
		sc.dist.Build(rows, nil)
		rows = sc.dist.KeepFirst(rows)
	}
	out, err := relstore.TableFromRows(name, r.Output.Project(identity(len(r.Output))), rows)
	if err != nil {
		return nil, err
	}
	metricRowsReturned.Add(int64(out.Len()))
	return out, nil
}

// Scratch is the working memory of executions that run one after
// another: the two arrays the joined rows alternate between, one
// parameter-table join index per FROM input, and the projected values
// and rows. A table Exec returns lives in its scratch's arrays, so it is
// valid until the scratch's next execution or Release; the zero Scratch
// is ready to use. A scratch serves one execution at a time.
type Scratch struct {
	joined [2]buffer[relstore.Tuple]
	ix     []relstore.HashIndex // by FROM input, for parameter tables; it only grows
	dist   relstore.HashIndex   // the DISTINCT pass's
	vals   buffer[relstore.Value]
	rows   buffer[relstore.Tuple]
}

// index returns the join index of FROM input ti.
func (s *Scratch) index(ti int) *relstore.HashIndex {
	if len(s.ix) <= ti {
		s.ix = append(s.ix, make([]relstore.HashIndex, ti+1-len(s.ix))...)
	}
	return &s.ix[ti]
}

// Release clears what the executions since the last Release wrote, so
// the scratch keeps none of their rows alive, and keeps its arrays for
// the next execution. Tables those executions returned must no longer
// be read.
func (s *Scratch) Release() {
	for i := range s.joined {
		s.joined[i].release()
	}
	for i := range s.ix {
		s.ix[i].Build(nil, nil) // drops the rows, keeps the array
	}
	s.dist.Build(nil, nil)
	s.vals.release()
	s.rows.release()
}

// buffer is a recycled array and its high-water length: the most of it
// written since the last release, which is all release clears.
type buffer[T any] struct {
	s  []T
	hw int
}

// take returns the array emptied, with room for n elements.
func (b *buffer[T]) take(n int) []T { return slices.Grow(b.s[:0], n) }

// put makes s, written from take's array, the array's contents, and
// returns it.
func (b *buffer[T]) put(s []T) []T {
	b.s, b.hw = s, max(b.hw, len(s))
	return s
}

func (b *buffer[T]) release() {
	clear(b.s[:b.hw])
	b.s, b.hw = b.s[:0], 0
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
	operand relstore.Value          // PredColParam
	inSet   map[relstore.Value]bool // PredColInParam
}

// bindPreds evaluates the parameter operands of r's predicates, in the
// order of r.Preds.
func bindPreds(r *Resolved, params Params) ([]boundPred, error) {
	out := make([]boundPred, len(r.Preds))
	inSets := make(map[string]map[relstore.Value]bool) // a set parameter may feed several predicates
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
			// Values compare with == exactly when they are Equal.
			set = make(map[relstore.Value]bool, len(b.Rows))
			for _, row := range b.Rows {
				set[row[0]] = true
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

// candidates appends to dst the rows satisfying every local predicate,
// in table order, and returns it: an index probe when the table is
// stored and has a local equality or IN predicate, a scan otherwise.
func (in *input) candidates(dst []relstore.Tuple) []relstore.Tuple {
	if in.table != nil && (len(in.eqCols) > 0 || in.inCol != nil) {
		var ix *relstore.HashIndex
		var pos []int32
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
		dst = slices.Grow(dst, len(pos))
		for _, p := range pos {
			if in.pass(rows[p]) {
				dst = append(dst, rows[p])
			}
		}
		return dst
	}
	rows := in.scan()
	if len(in.filter) == 0 {
		return append(dst, rows...)
	}
	dst = slices.Grow(dst, len(rows))
	for _, row := range rows {
		if in.pass(row) {
			dst = append(dst, row)
		}
	}
	return dst
}

// filtered reports whether a local predicate narrows the input's rows.
func (in *input) filtered() bool { return len(in.filter) > 0 || len(in.eqCols) > 0 }

// scan returns all of the input's rows, the stored table's snapshot or
// the parameter rows, which the caller must not modify.
func (in *input) scan() []relstore.Tuple {
	rows := in.rows
	if in.table != nil {
		rows = in.table.Rows()
	}
	metricRowsScanned.Add(int64(len(rows)))
	return rows
}

// join equi-joins the joined rows refs, k references each, with the
// table on the prefix columns probe = row[buildCols], prefix order
// first, table order within a prefix row, and appends the result to
// joined: a result row is its prefix's references followed by the table
// row. A stored table is probed through its snapshot index on the local
// equality columns plus buildCols; a parameter table's rows are indexed
// on buildCols in the scratch's index of table ti for this join. A
// counting pass sizes the result before the filling pass.
func (in *input) join(joined, refs []relstore.Tuple, k int, probe []colAt, buildCols []int, sc *Scratch, ti int) []relstore.Tuple {
	ne := len(in.eqCols)
	key := make(relstore.Tuple, ne+len(probe))
	copy(key, in.eqVals)
	var ix *relstore.HashIndex
	if in.table != nil {
		ix = in.table.Index(append(append(make([]int, 0, ne+len(buildCols)), in.eqCols...), buildCols...))
	} else {
		ix = sc.index(ti)
		ix.Build(in.rows, buildCols)
		metricRowsScanned.Add(int64(len(in.rows)))
	}
	lookup := func(prefix []relstore.Tuple) []int32 {
		for j, c := range probe {
			key[ne+j] = prefix[c.slot][c.col]
		}
		return ix.Lookup(key)
	}
	hits := 0
	for lo := 0; lo < len(refs); lo += k {
		hits += len(lookup(refs[lo : lo+k]))
	}
	if in.table != nil {
		metricRowsScanned.Add(int64(hits))
	}
	rows := ix.Rows()
	joined = slices.Grow(joined, hits*(k+1))
	for lo := 0; lo < len(refs); lo += k {
		prefix := refs[lo : lo+k]
		for _, p := range lookup(prefix) {
			if nrow := rows[p]; in.pass(nrow) {
				joined = append(append(joined, prefix...), nrow)
			}
		}
	}
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
		return p.inSet[left]
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

// Run resolves, plans and executes q in one call, in scratch as Exec
// does — the convenience path used by the conceptual evaluator, which
// runs each query per node rather than set-at-a-time.
func Run(name string, q *Query, schemas SchemaProvider, data DataProvider, stats Stats, params Params, opts PlanOptions, scratch ...*Scratch) (*relstore.Table, error) {
	plan, err := PlanAndEstimate(q, schemas, ParamSchemasOf(params), stats, opts)
	if err != nil {
		return nil, err
	}
	return Exec(name, plan, data, params, scratch...)
}
