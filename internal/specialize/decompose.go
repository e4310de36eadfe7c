package specialize

import (
	"fmt"

	"github.com/aigrepro/aig/internal/aig"
	"github.com/aigrepro/aig/internal/relstore"
	"github.com/aigrepro/aig/internal/sqlmini"
)

// DecomposeQueries returns a copy of the AIG in which every multi-source
// query has been rewritten into a chain of single-source queries (§3.4).
// A left-deep plan is generated for each such query using the sources'
// statistics; consecutive plan steps on the same source are fused into
// one sub-query; and each sub-query receives the accumulated intermediate
// result as the set parameter $prev (the paper's internal states St, St1,
// St2 — here flowing through the chain instead of materializing as tree
// nodes). Every sub-query references tables of exactly one source, so it
// can be shipped to and executed by that source's engine.
func DecomposeQueries(a *aig.AIG, schemas sqlmini.SchemaProvider, stats sqlmini.Stats, opts sqlmini.PlanOptions) (*aig.AIG, error) {
	out := a.Clone()
	for _, elem := range out.DTD.Types() {
		r := out.Rules[elem]
		if r == nil {
			continue
		}
		decompose := func(child string, ir *aig.InhRule) error {
			if ir == nil || ir.Query == nil || len(ir.Query.Sources()) <= 1 {
				return nil
			}
			params, err := ParamSchemasFor(out, ir.QueryParams, ir.Query)
			if err != nil {
				return fmt.Errorf("specialize: rule for %s child %s: %v", elem, child, err)
			}
			chain, err := Decompose(ir.Query, schemas, params, stats, opts)
			if err != nil {
				return fmt.Errorf("specialize: decomposing query for %s child %s: %v", elem, child, err)
			}
			if len(chain) == 1 {
				ir.Query = chain[0]
				return nil
			}
			ir.Query = nil
			ir.Chain = chain
			return nil
		}
		for _, child := range childKeys(r.Inh) {
			if err := decompose(child, r.Inh[child]); err != nil {
				return nil, err
			}
		}
		for _, b := range r.Branches {
			if b.Inh == nil {
				continue
			}
			if err := decompose(b.Inh.Child, b.Inh); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

func childKeys(m map[string]*aig.InhRule) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// ParamSchemasFor derives the binding schema of each query parameter from
// its attribute source, mirroring how the evaluator will bind it.
func ParamSchemasFor(a *aig.AIG, params map[string]aig.SourceRef, q *sqlmini.Query) (sqlmini.ParamSchemas, error) {
	out := make(sqlmini.ParamSchemas)
	for _, name := range q.Params() {
		src, ok := params[name]
		if !ok {
			return nil, fmt.Errorf("parameter $%s has no source", name)
		}
		var decl aig.AttrDecl
		if src.Side == aig.InhSide {
			decl = a.Inh[src.Elem]
		} else {
			decl = a.Syn[src.Elem]
		}
		if src.Member == "" {
			out[name] = decl.ScalarSchema()
			continue
		}
		m, ok := decl.Member(src.Member)
		if !ok {
			return nil, fmt.Errorf("%s has no member %q", src, src.Member)
		}
		if m.Kind == aig.Scalar {
			out[name] = relstore.Schema{{Name: m.Name, Kind: m.ValueKind}}
		} else {
			out[name] = m.Fields
		}
	}
	return out, nil
}

// Decompose rewrites one multi-source query into an equivalent chain of
// single-source queries. Step i+1 reads step i's output via the set
// parameter $prev. The chain's final output schema equals the original
// query's output schema, so the rewrite is transparent to the rule that
// owns the query.
func Decompose(q *sqlmini.Query, schemas sqlmini.SchemaProvider, params sqlmini.ParamSchemas, stats sqlmini.Stats, opts sqlmini.PlanOptions) ([]*sqlmini.Query, error) {
	r, err := sqlmini.Resolve(q, schemas, params)
	if err != nil {
		return nil, err
	}
	plan, err := sqlmini.BuildPlan(r, stats, opts)
	if err != nil {
		return nil, err
	}

	// Group consecutive plan steps by source. Parameter tables (source
	// "") attach to the group where the plan visits them; a leading
	// parameter table attaches to the following group.
	type group struct {
		source string
		tables []int // indexes into q.From
	}
	var groups []group
	var pendingParams []int
	for _, ti := range plan.Order {
		ref := q.From[ti]
		if ref.IsParam() {
			if len(groups) == 0 {
				pendingParams = append(pendingParams, ti)
			} else {
				groups[len(groups)-1].tables = append(groups[len(groups)-1].tables, ti)
			}
			continue
		}
		if len(groups) > 0 && groups[len(groups)-1].source == ref.Source {
			groups[len(groups)-1].tables = append(groups[len(groups)-1].tables, ti)
			continue
		}
		groups = append(groups, group{source: ref.Source, tables: []int{ti}})
		if pendingParams != nil {
			groups[len(groups)-1].tables = append(pendingParams, groups[len(groups)-1].tables...)
			pendingParams = nil
		}
	}
	if pendingParams != nil {
		// Query over parameter tables only; nothing to decompose.
		return []*sqlmini.Query{q.Clone()}, nil
	}
	if len(groups) <= 1 {
		return []*sqlmini.Query{q.Clone()}, nil
	}

	// groupOf[ti] = index of the group containing FROM table ti.
	groupOf := make(map[int]int)
	for gi, g := range groups {
		for _, ti := range g.tables {
			groupOf[gi0(ti)] = gi
		}
	}

	// passName gives the unique pass-through column name of an absolute
	// resolved column.
	passName := func(abs int) string {
		ti := r.TableOf(abs)
		col := r.TableSchemas[ti][abs-r.Offsets[ti]].Name
		return q.From[ti].BindName() + "_" + col
	}
	// colRefIn renders a column reference for use inside step gi: direct
	// when the column's table is in group gi, otherwise through $prev's
	// alias P.
	colRefIn := func(abs, gi int) sqlmini.ColRef {
		ti := r.TableOf(abs)
		if groupOf[ti] == gi {
			col := r.TableSchemas[ti][abs-r.Offsets[ti]].Name
			return sqlmini.ColRef{Table: q.From[ti].BindName(), Column: col}
		}
		return sqlmini.ColRef{Table: "P", Column: passName(abs)}
	}
	// predGroup is the step at which a predicate can first be evaluated:
	// the latest group among its table references.
	predGroup := func(p sqlmini.Pred, ri sqlmini.ResolvedPred) int {
		g := groupOf[r.TableOf(ri.Left)]
		if ri.Kind == sqlmini.PredColCol {
			if g2 := groupOf[r.TableOf(ri.Right)]; g2 > g {
				g = g2
			}
		}
		return g
	}

	// needed[gi] = absolute columns from groups <= gi required after step
	// gi: referenced by later predicates or by the final SELECT.
	needed := make([][]int, len(groups))
	addNeeded := func(abs, upTo int) {
		for gi := groupOf[r.TableOf(abs)]; gi < upTo; gi++ {
			needed[gi] = append(needed[gi], abs)
		}
	}
	for _, abs := range r.SelectCols {
		addNeeded(abs, len(groups)-1+1) // needed through every later boundary
	}
	for i, p := range r.Preds {
		pg := predGroup(q.Where[i], p)
		addNeeded(p.Left, pg)
		if p.Kind == sqlmini.PredColCol {
			addNeeded(p.Right, pg)
		}
	}
	for gi := range needed {
		needed[gi] = dedupInts(needed[gi])
	}

	steps := make([]*sqlmini.Query, len(groups))
	for gi, g := range groups {
		step := &sqlmini.Query{}
		// FROM: the group's tables plus $prev.
		for _, ti := range g.tables {
			ref := q.From[ti]
			if ref.Alias == "" {
				ref.Alias = ref.BindName()
			}
			step.From = append(step.From, ref)
		}
		if gi > 0 {
			step.From = append(step.From, sqlmini.TableRef{Param: aig.PrevParam, Alias: "P"})
		}
		// WHERE: predicates that become evaluable at this step.
		for i, rp := range r.Preds {
			if predGroup(q.Where[i], rp) != gi {
				continue
			}
			p := q.Where[i] // copy
			p.Left = colRefIn(rp.Left, gi)
			if p.Kind == sqlmini.PredColCol {
				p.Right = colRefIn(rp.Right, gi)
			}
			step.Where = append(step.Where, p)
		}
		// SELECT: the final step emits the original output; earlier steps
		// emit the needed pass-through columns.
		if gi == len(groups)-1 {
			step.Distinct = q.Distinct
			for si, item := range q.Select {
				step.Select = append(step.Select, sqlmini.SelectItem{
					Expr: colRefIn(r.SelectCols[si], gi),
					As:   item.OutputName(),
				})
			}
		} else {
			for _, abs := range needed[gi] {
				step.Select = append(step.Select, sqlmini.SelectItem{
					Expr: colRefIn(abs, gi),
					As:   passName(abs),
				})
			}
		}
		steps[gi] = step
	}

	// Sanity: every step must reference at most one source and must
	// resolve, threading the $prev schema.
	prev := relstore.Schema(nil)
	for i, step := range steps {
		if srcs := step.Sources(); len(srcs) > 1 {
			return nil, fmt.Errorf("specialize: step %d still references sources %v", i+1, srcs)
		}
		ps := make(sqlmini.ParamSchemas, len(params)+1)
		for k, v := range params {
			ps[k] = v
		}
		if prev != nil {
			ps[aig.PrevParam] = prev
		}
		sr, err := sqlmini.Resolve(step, schemas, ps)
		if err != nil {
			return nil, fmt.Errorf("specialize: step %d (%s) does not resolve: %v", i+1, step, err)
		}
		prev = sr.Output
	}
	return steps, nil
}

func gi0(i int) int { return i }

func dedupInts(in []int) []int {
	seen := make(map[int]bool, len(in))
	out := in[:0]
	for _, v := range in {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}
