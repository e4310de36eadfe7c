package sqlmini

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/aigrepro/aig/internal/relstore"
)

// The executor reads stored tables through their snapshot indexes. These
// tests hold it to a nested-loop reference that knows nothing of
// indexes, probes or hash joins: the join order is the plan's, every
// table is read in snapshot order and every predicate is evaluated on
// the full row, so the reference fixes both the rows and their order.

// refHolds evaluates one predicate on a row in the resolved (FROM-order)
// layout, reading parameters by name.
func refHolds(p ResolvedPred, row relstore.Tuple, params Params) bool {
	left := row[p.Left]
	switch p.Kind {
	case PredColCol:
		return p.Op.Eval(left, row[p.Right])
	case PredColConst:
		return p.Op.Eval(left, p.Const)
	case PredColParam:
		v, err := params[p.Param].Field(p.ParamField)
		return err == nil && p.Op.Eval(left, v)
	case PredColInParam:
		for _, b := range params[p.Param].Rows {
			if b[0].Equal(left) {
				return true
			}
		}
	case PredColInList:
		for _, v := range p.List {
			if v.Equal(left) {
				return true
			}
		}
	}
	return false
}

// nestedLoop is the reference: nested loops over the FROM tables in the
// plan's order, rows[i] being table i's rows.
func nestedLoop(plan *Plan, rows [][]relstore.Tuple, params Params) []relstore.Tuple {
	r := plan.Resolved
	last := len(r.TableSchemas) - 1
	full := make(relstore.Tuple, r.Offsets[last]+len(r.TableSchemas[last]))
	var out []relstore.Tuple
	var loop func(step int)
	loop = func(step int) {
		if step == len(plan.Order) {
			for _, p := range r.Preds {
				if !refHolds(p, full, params) {
					return
				}
			}
			proj := make(relstore.Tuple, len(r.SelectCols))
			for i, c := range r.SelectCols {
				proj[i] = full[c]
			}
			out = append(out, proj)
			return
		}
		ti := plan.Order[step]
		for _, row := range rows[ti] {
			copy(full[r.Offsets[ti]:], row)
			loop(step + 1)
		}
	}
	loop(0)
	if r.Query.Distinct {
		out, _ = relstore.DistinctRows(out)
	}
	return out
}

// refRows reads every FROM table of plan: parameter rows or the stored
// table's current snapshot.
func refRows(plan *Plan, cat *relstore.Catalog, params Params) [][]relstore.Tuple {
	rows := make([][]relstore.Tuple, len(plan.Resolved.Query.From))
	for i, ref := range plan.Resolved.Query.From {
		if ref.IsParam() {
			rows[i] = params[ref.Param].Rows
			continue
		}
		t, err := cat.Table(ref.Source, ref.Table)
		if err != nil {
			panic(err)
		}
		rows[i] = t.Rows()
	}
	return rows
}

// sameRows reports whether two row lists are equal element by element.
func sameRows(a, b []relstore.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// rowsKey encodes a row list, order included, as one string.
func rowsKey(rows []relstore.Tuple) string {
	keys := make([]string, len(rows))
	for i, row := range rows {
		keys[i] = row.Key()
	}
	return fmt.Sprintf("%q", keys)
}

// diffGen draws catalogs, bindings and queries from small domains, so
// that keys repeat, nulls and mismatched kinds meet in comparisons, and
// strings contain the tuple-key separator (0x1f).
type diffGen struct{ rng *rand.Rand }

var diffStrings = []string{"x", "y", "1", "", "x\x1fy", "x\x1f", "\x1fy", "\x1f"}

func (g diffGen) value(kind relstore.Kind) relstore.Value {
	if g.rng.Intn(6) == 0 {
		return relstore.Null
	}
	if kind == relstore.KindInt {
		return relstore.Int(int64(g.rng.Intn(4)))
	}
	return relstore.String(diffStrings[g.rng.Intn(len(diffStrings))])
}

// mixed is a value of either kind.
func (g diffGen) mixed() relstore.Value {
	if g.rng.Intn(2) == 0 {
		return g.value(relstore.KindInt)
	}
	return g.value(relstore.KindString)
}

func (g diffGen) row(schema relstore.Schema) relstore.Tuple {
	row := make(relstore.Tuple, len(schema))
	for i, c := range schema {
		row[i] = g.value(c.Kind)
	}
	return row
}

var diffSchemas = map[string]relstore.Schema{
	"r": relstore.MustSchema("a:int", "b:string", "c:int"),
	"s": relstore.MustSchema("a:int", "b:string", "d:string"),
	"u": relstore.MustSchema("b:string", "e:int"),
}

var (
	diffV = relstore.MustSchema("fi:int", "fs:string", "fm:string")
	diffP = relstore.MustSchema("pa:int", "pb:string")
)

func (g diffGen) catalog() *relstore.Catalog {
	db := relstore.NewDatabase("DB")
	for _, name := range []string{"r", "s", "u"} {
		t := db.CreateTable(name, diffSchemas[name])
		for n := g.rng.Intn(13); n > 0; n-- {
			t.MustInsert(g.row(diffSchemas[name]))
		}
	}
	cat := relstore.NewCatalog()
	cat.Add(db)
	return cat
}

// params binds $v (fm holds either kind), the IN set $V (one column of
// either kind, possibly empty) and the table $P (possibly empty, rows
// often repeated, so a join that hashes it meets chains of equal keys).
func (g diffGen) params() Params {
	inKind := relstore.KindInt
	if g.rng.Intn(2) == 0 {
		inKind = relstore.KindString
	}
	set := Binding{Schema: relstore.Schema{{Name: "k", Kind: inKind}}}
	for n := g.rng.Intn(4); n > 0; n-- {
		set.Rows = append(set.Rows, relstore.Tuple{g.mixed()})
	}
	tab := Binding{Schema: diffP}
	for n := g.rng.Intn(7); n > 0; n-- {
		row := g.row(diffP)
		if len(tab.Rows) > 0 && g.rng.Intn(3) == 0 {
			row = tab.Rows[g.rng.Intn(len(tab.Rows))].Clone() // a repeated key
		}
		tab.Rows = append(tab.Rows, row)
	}
	return Params{
		"v": {Schema: diffV, Rows: []relstore.Tuple{{g.value(relstore.KindInt), g.value(relstore.KindString), g.mixed()}}},
		"V": set,
		"P": tab,
	}
}

// query draws one to three FROM entries (stored tables, repeats
// allowed, and $P), up to five conjuncts of every form, equalities
// favoured, and one to three output columns.
func (g diffGen) query() *Query {
	q := &Query{Distinct: g.rng.Intn(3) == 0}
	type col struct {
		ref  string
		name string
		kind relstore.Kind
	}
	var cols []col
	for i, n := 0, 1+g.rng.Intn(3); i < n; i++ {
		alias := fmt.Sprintf("t%d", i)
		var schema relstore.Schema
		if pick := g.rng.Intn(4); pick == 3 {
			q.From = append(q.From, TableRef{Param: "P", Alias: alias})
			schema = diffP
		} else {
			name := []string{"r", "s", "u"}[pick]
			q.From = append(q.From, TableRef{Source: "DB", Table: name, Alias: alias})
			schema = diffSchemas[name]
		}
		for _, c := range schema {
			cols = append(cols, col{alias, c.Name, c.Kind})
		}
	}
	pickCol := func() col { return cols[g.rng.Intn(len(cols))] }
	ref := func(c col) ColRef { return ColRef{Table: c.ref, Column: c.name} }
	op := func() CompareOp {
		if g.rng.Intn(3) > 0 {
			return OpEq
		}
		return CompareOp(g.rng.Intn(int(OpGe) + 1))
	}
	for n := g.rng.Intn(6); n > 0; n-- {
		left := pickCol()
		p := Pred{Left: ref(left)}
		switch g.rng.Intn(5) {
		case 0, 1:
			var same []col
			for _, c := range cols {
				if c.kind == left.kind && c != left {
					same = append(same, c)
				}
			}
			if len(same) == 0 {
				continue
			}
			p.Kind, p.Op, p.Right = PredColCol, op(), ref(same[g.rng.Intn(len(same))])
		case 2:
			p.Kind, p.Op, p.Const = PredColConst, op(), g.value(left.kind)
		case 3:
			p.Kind, p.Op, p.Param = PredColParam, op(), "v"
			p.ParamField = diffV[g.rng.Intn(len(diffV))].Name
		default:
			if g.rng.Intn(2) == 0 {
				p.Kind, p.Param = PredColInParam, "V"
				break
			}
			p.Kind = PredColInList
			for m := 1 + g.rng.Intn(3); m > 0; m-- {
				if v := g.value(left.kind); !v.IsNull() {
					p.List = append(p.List, v)
				}
			}
		}
		q.Where = append(q.Where, p)
	}
	for i, n := 0, 1+g.rng.Intn(3); i < n; i++ {
		q.Select = append(q.Select, SelectItem{Expr: ref(pickCol()), As: fmt.Sprintf("o%d", i)})
	}
	return q
}

// TestExecMatchesNestedLoop runs seeded random queries through Exec and
// the nested-loop reference: same rows, same order. Each plan runs under
// several bindings, against both freshly built and cached indexes, and
// again after a write has dropped them; and each run twice, once in
// fresh memory and once in a scratch every seed shares, which is
// released after every third seed and must then hold no row.
func TestExecMatchesNestedLoop(t *testing.T) {
	var sc Scratch
	for seed := int64(0); seed < 400; seed++ {
		g := diffGen{rand.New(rand.NewSource(seed))}
		cat := g.catalog()
		q := g.query()
		params := g.params()
		opts := PlanOptions{ParamCards: map[string]int{"P": 1 + g.rng.Intn(20), "V": 1 + g.rng.Intn(20)}}
		plan, err := PlanAndEstimate(q, CatalogSchemas{cat}, ParamSchemasOf(params), CatalogStats{cat}, opts)
		if err != nil {
			t.Fatalf("seed %d: planning %s: %v", seed, q, err)
		}
		for run := 0; run < 4; run++ {
			if run == 2 {
				params = g.params()
			}
			if run == 3 {
				s, _ := cat.Table("DB", "s")
				s.MustInsert(g.row(diffSchemas["s"]))
			}
			want := nestedLoop(plan, refRows(plan, cat, params), params)
			for _, scratch := range []*Scratch{nil, &sc} {
				out, err := Exec("out", plan, CatalogData{cat}, params, scratch)
				if err != nil {
					t.Fatalf("seed %d run %d: %s: %v", seed, run, q, err)
				}
				if got := out.Rows(); !sameRows(got, want) {
					t.Fatalf("seed %d run %d (scratch %v): %s (order %v)\n got %v\nwant %v", seed, run, scratch != nil, q, plan.Order, got, want)
				}
			}
		}
		if seed%3 == 2 {
			sc.Release()
			if err := scratchHolds(&sc); err != nil {
				t.Fatalf("seed %d: released scratch: %v", seed, err)
			}
		}
	}
}

// scratchHolds reports a row or value a scratch still holds anywhere in
// its arrays' capacity.
func scratchHolds(sc *Scratch) error {
	for i, b := range sc.joined {
		for j, r := range b.s[:cap(b.s)] {
			if r != nil {
				return fmt.Errorf("joined[%d][%d] holds %v", i, j, r)
			}
		}
	}
	for j, r := range sc.rows.s[:cap(sc.rows.s)] {
		if r != nil {
			return fmt.Errorf("rows[%d] holds %v", j, r)
		}
	}
	for j, v := range sc.vals.s[:cap(sc.vals.s)] {
		if v != relstore.Null {
			return fmt.Errorf("vals[%d] holds %v", j, v)
		}
	}
	for i := range sc.ix {
		if sc.ix[i].Rows() != nil {
			return fmt.Errorf("index %d holds rows", i)
		}
	}
	if sc.dist.Rows() != nil {
		return fmt.Errorf("the distinct index holds rows")
	}
	return nil
}

// TestRowsScannedCountsIndexHits pins aig_sqlmini_rows_scanned_total to
// the rows the executor examined: an indexed probe adds its matches, not
// the table's length.
func TestRowsScannedCountsIndexHits(t *testing.T) {
	cat := benchCatalog(1000)
	left, _ := cat.Table("DB", "left")
	dup := relstore.Tuple{relstore.String("k000007"), relstore.Int(-1)}
	left.MustInsert(dup)
	left.MustInsert(dup)
	v := relstore.MustSchema("k:string")
	params := Params{"v": {Schema: v, Rows: []relstore.Tuple{{relstore.String("k000007")}}}}
	for _, tc := range []struct {
		sql          string
		rows, probed int64 // result rows; rows examined
	}{
		{`select a from DB:left where k = $v.k`, 3, 3},
		{`select l.a from $v p, DB:left l where l.k = p.k`, 3, 1 + 3},
		{`select a from DB:left where k = 'absent'`, 0, 0},
	} {
		before := metricRowsScanned.Value()
		out := runQuery(t, cat, tc.sql, params)
		if got := int64(out.Len()); got != tc.rows {
			t.Fatalf("%s: %d rows, want %d", tc.sql, got, tc.rows)
		}
		if got := metricRowsScanned.Value() - before; got != tc.probed {
			t.Errorf("%s: rows scanned moved by %d, want %d", tc.sql, got, tc.probed)
		}
	}
}

// TestConcurrentWritesYieldSnapshots runs indexed queries while a writer
// publishes deletes and inserts on the probed table: every result must
// be the result on some snapshot the writer
// published. The writer rotates the table — delete the first row,
// append it again — so positions shift on every delete while the set of
// snapshots stays small enough to enumerate.
func TestConcurrentWritesYieldSnapshots(t *testing.T) {
	g := diffGen{rand.New(rand.NewSource(7))}
	db := relstore.NewDatabase("DB")
	r := db.CreateTable("r", diffSchemas["r"])
	for i := 0; i < 30; i++ {
		r.MustInsert(g.row(diffSchemas["r"]))
	}
	s := db.CreateTable("s", diffSchemas["s"])
	var state []relstore.Tuple
	for i := 0; i < 16; i++ {
		row := g.row(diffSchemas["s"])
		row[2] = relstore.String(fmt.Sprintf("d%02d", i)) // rows are distinct
		s.MustInsert(row)
		state = append(state, row)
	}
	cat := relstore.NewCatalog()
	cat.Add(db)
	params := Params{
		"v": {Schema: diffV, Rows: []relstore.Tuple{{relstore.Int(1), relstore.String("x"), relstore.Null}}},
		"P": {Schema: diffP, Rows: []relstore.Tuple{{relstore.Int(2), relstore.String("y")}, {relstore.Null, relstore.String("x\x1fy")}}},
	}
	var plans []*Plan
	for _, sql := range []string{
		`select s.a, s.d from DB:s s where s.b = $v.fs`,
		`select r.c, s.d from DB:r r, DB:s s where r.b = s.b and s.a = $v.fi`,
		`select p.pa, s.d from $P p, DB:s s where s.b = p.pb and s.a <> $v.fi`,
	} {
		plan, err := PlanAndEstimate(MustParse(sql), CatalogSchemas{cat}, ParamSchemasOf(params), CatalogStats{cat}, PlanOptions{})
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, plan)
	}
	// Every reader's result on every state of one full rotation.
	want := make([]map[string]bool, len(plans))
	for i := range want {
		want[i] = make(map[string]bool)
	}
	record := func(state []relstore.Tuple) {
		for i, plan := range plans {
			rows := make([][]relstore.Tuple, len(plan.Resolved.Query.From))
			for j, ref := range plan.Resolved.Query.From {
				switch {
				case ref.IsParam():
					rows[j] = params[ref.Param].Rows
				case ref.Table == "s":
					rows[j] = state
				default:
					rows[j] = r.Rows()
				}
			}
			want[i][rowsKey(nestedLoop(plan, rows, params))] = true
		}
	}
	for range state {
		record(state)
		record(state[1:])
		state = append(state[1:len(state):len(state)], state[0])
	}

	var done atomic.Bool
	var checks atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				for i, plan := range plans {
					out, err := Exec("out", plan, CatalogData{cat}, params)
					if err != nil {
						t.Error(err)
						return
					}
					if !want[i][rowsKey(out.Rows())] {
						t.Errorf("query %d returned rows of no published snapshot: %v", i, out.Rows())
						return
					}
				}
				checks.Add(1)
			}
		}()
	}
	for i := 0; i < 3000 || checks.Load() < 100; i++ {
		if t.Failed() {
			break
		}
		head := s.Row(0)
		if _, err := s.DeleteWhere(func(row relstore.Tuple) bool { return row.Equal(head) }); err != nil {
			t.Fatal(err)
		}
		s.MustInsert(head)
	}
	done.Store(true)
	wg.Wait()
}
