package sqlmini

import (
	"fmt"
	"math"

	"github.com/aigrepro/aig/internal/relstore"
)

// Stats supplies the basic database statistics the planner and the
// mediator's cost model use: table cardinalities and per-column distinct
// counts. Sources answer these for their own tables (the paper's "query
// costing API").
type Stats interface {
	TableCard(source, table string) (int, error)
	ColumnDistinct(source, table, column string) (int, error)
}

// CatalogStats computes exact statistics from a relstore catalog.
type CatalogStats struct{ Catalog *relstore.Catalog }

// TableCard implements Stats.
func (c CatalogStats) TableCard(source, table string) (int, error) {
	t, err := c.Catalog.Table(source, table)
	if err != nil {
		return 0, err
	}
	return t.Len(), nil
}

// ColumnDistinct implements Stats.
func (c CatalogStats) ColumnDistinct(source, table, column string) (int, error) {
	t, err := c.Catalog.Table(source, table)
	if err != nil {
		return 0, err
	}
	ci := t.Schema().ColumnIndex(column)
	if ci < 0 {
		return 0, fmt.Errorf("sqlmini: table %s:%s has no column %q", source, table, column)
	}
	return t.DistinctCount(ci), nil
}

// PlanOptions tunes planning and estimation.
type PlanOptions struct {
	// ParamCards estimates the row count of set-valued parameters by name.
	// Unlisted parameters default to unknownParamCard.
	ParamCards map[string]int
}

// unknownParamCard is the assumed cardinality of a parameter table with
// no explicit estimate.
const unknownParamCard = 10

func (o PlanOptions) paramCard(name string) float64 {
	if n, ok := o.ParamCards[name]; ok && n > 0 {
		return float64(n)
	}
	return unknownParamCard
}

// Plan is a left-deep join plan: an ordering of the FROM tables plus cost
// estimates. Execution and decomposition both follow Order.
type Plan struct {
	Resolved *Resolved
	// Order lists FROM-table indexes in join order.
	Order []int
	// StepRows[k] is the estimated cardinality after joining the first k+1
	// tables of Order.
	StepRows []float64
	// EstRows is the estimated output cardinality.
	EstRows float64
	// EstCost is the estimated processing effort in abstract tuple units
	// (sum of intermediate result sizes), the basis for eval_cost.
	EstCost float64
	// EstBytes is the estimated output size in bytes.
	EstBytes float64
}

const defaultSelectivity = 1.0 / 3

// BuildPlan chooses a left-deep join order greedily: start from the table
// with the smallest filtered cardinality, then repeatedly add the
// join-connected table minimizing the estimated intermediate result.
// Cartesian steps are taken only when no connected table remains.
func BuildPlan(r *Resolved, stats Stats, opts PlanOptions) (*Plan, error) {
	n := len(r.TableSchemas)
	if n == 0 {
		return nil, fmt.Errorf("sqlmini: query has no FROM tables")
	}
	base := make([]float64, n)    // filtered cardinality per table
	rawCard := make([]float64, n) // unfiltered cardinality
	distinct := make([][]float64, n)
	for i := 0; i < n; i++ {
		ref := r.Query.From[i]
		schema := r.TableSchemas[i]
		distinct[i] = make([]float64, len(schema))
		if ref.IsParam() {
			rawCard[i] = opts.paramCard(ref.Param)
			for c := range schema {
				distinct[i][c] = rawCard[i]
			}
		} else {
			card, err := stats.TableCard(ref.Source, ref.Table)
			if err != nil {
				return nil, err
			}
			rawCard[i] = float64(card)
			for c, col := range schema {
				d, err := stats.ColumnDistinct(ref.Source, ref.Table, col.Name)
				if err != nil {
					return nil, err
				}
				distinct[i][c] = math.Max(1, float64(d))
			}
		}
		base[i] = math.Max(rawCard[i]*localSelectivity(r, i, distinct[i], opts), 0)
	}

	// distinctAt returns the distinct-count estimate for absolute column c.
	distinctAt := func(c int) float64 {
		ti := r.TableOf(c)
		return math.Max(1, distinct[ti][c-r.Offsets[ti]])
	}

	plan := &Plan{Resolved: r}
	used := make([]bool, n)
	// Seed with the smallest filtered table (ties break to lowest index for
	// determinism).
	best := 0
	for i := 1; i < n; i++ {
		if base[i] < base[best] {
			best = i
		}
	}
	plan.Order = append(plan.Order, best)
	used[best] = true
	rows := math.Max(base[best], 1)
	cost := rows
	plan.StepRows = append(plan.StepRows, rows)

	connected := func(i int) bool {
		for _, p := range r.Preds {
			if p.Kind != PredColCol {
				continue
			}
			lt, rt := r.TableOf(p.Left), r.TableOf(p.Right)
			if (lt == i && used[rt]) || (rt == i && used[lt]) {
				return true
			}
		}
		return false
	}

	joinRows := func(i int, cur float64) float64 {
		est := cur * math.Max(base[i], 1)
		for _, p := range r.Preds {
			if p.Kind != PredColCol || p.Op != OpEq {
				continue
			}
			lt, rt := r.TableOf(p.Left), r.TableOf(p.Right)
			var other int
			switch {
			case lt == i && used[rt]:
				other = p.Right
			case rt == i && used[lt]:
				other = p.Left
			default:
				continue
			}
			var own int
			if lt == i {
				own = p.Left
			} else {
				own = p.Right
			}
			est /= math.Max(distinctAt(own), distinctAt(other))
		}
		return math.Max(est, 0.01)
	}

	for len(plan.Order) < n {
		cand, candRows := -1, math.Inf(1)
		anyConnected := false
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			conn := connected(i)
			if anyConnected && !conn {
				continue
			}
			est := joinRows(i, rows)
			if conn && !anyConnected {
				// First connected candidate displaces any cartesian pick.
				anyConnected = true
				cand, candRows = i, est
				continue
			}
			if est < candRows {
				cand, candRows = i, est
			}
		}
		plan.Order = append(plan.Order, cand)
		used[cand] = true
		rows = candRows
		cost += rows + base[cand]
		plan.StepRows = append(plan.StepRows, rows)
	}

	plan.EstRows = rows
	plan.EstCost = cost
	plan.EstBytes = rows * estTupleBytes(r.Output)
	return plan, nil
}

// localSelectivity estimates the combined selectivity of single-table
// predicates on table i.
func localSelectivity(r *Resolved, i int, distinct []float64, opts PlanOptions) float64 {
	sel := 1.0
	for _, p := range r.Preds {
		if r.TableOf(p.Left) != i {
			continue
		}
		own := p.Left - r.Offsets[i]
		d := math.Max(1, distinct[own])
		switch p.Kind {
		case PredColConst, PredColParam:
			if p.Op == OpEq {
				sel *= 1 / d
			} else {
				sel *= defaultSelectivity
			}
		case PredColInParam:
			sel *= math.Min(1, opts.paramCard(p.Param)/d)
		case PredColInList:
			sel *= math.Min(1, float64(len(p.List))/d)
		case PredColCol:
			if r.TableOf(p.Right) == i {
				sel *= 1 / d // self-equality within a table
			}
		}
	}
	return sel
}

func estTupleBytes(schema relstore.Schema) float64 {
	b := 0.0
	for _, c := range schema {
		if c.Kind == relstore.KindInt {
			b += 8
		} else {
			b += 16
		}
	}
	if b == 0 {
		b = 1
	}
	return b
}

// PlanAndEstimate is a convenience that resolves, plans, and returns the
// plan in one call; it is the entry point sources use to answer
// eval_cost/size requests.
func PlanAndEstimate(q *Query, schemas SchemaProvider, params ParamSchemas, stats Stats, opts PlanOptions) (*Plan, error) {
	r, err := Resolve(q, schemas, params)
	if err != nil {
		return nil, err
	}
	return BuildPlan(r, stats, opts)
}
