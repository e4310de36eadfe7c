package mediator

import (
	"context"
	"fmt"
	"slices"

	"github.com/aigrepro/aig/internal/aig"
	"github.com/aigrepro/aig/internal/relstore"
	"github.com/aigrepro/aig/internal/source"
	"github.com/aigrepro/aig/internal/sqlmini"
)

// sourceRowCostSec converts a source engine's abstract cost units
// (tuples processed) to seconds, calibrating eval_cost estimates against
// the in-process engine.
const sourceRowCostSec = 2e-6

// buildEdge compiles the materialization of child context ch from parent
// context c under inherited rule ir. branch > 0 restricts the parent
// instances to a choice alternative; condSplit is that production's split
// node.
func (g *graph) buildEdge(ctx context.Context, c, ch *ctxNode, ir *aig.InhRule, branch int, condSplit *node, star bool) error {
	parentRows := g.estRows[c.path]
	if parentRows == 0 {
		parentRows = 1
	}

	mat := g.newNode(nodeLocal, MediatorSource, "mat:"+ch.path)
	g.addEdge(mat, g.inhDone[ch.path], 0)
	if condSplit != nil {
		g.addEdge(condSplit, mat, 8*parentRows)
	}

	// Pure copy edges (and ruleless edges) are mediator-local.
	if ir == nil || !ir.IsQuery() {
		g.estRows[ch.path] = parentRows
		if star {
			if ir == nil || len(ir.Copies) != 1 {
				return fmt.Errorf("mediator: star edge %s needs a query or one collection copy", ch.path)
			}
			// Iterating a collection member multiplies instances.
			g.estRows[ch.path] = parentRows * 4
		}
		g.addEdge(g.inhDone[c.path], mat, 0)
		if ir != nil {
			for _, cp := range ir.Copies {
				dep, err := g.depNodeFor(c, cp.Src)
				if err != nil {
					return err
				}
				g.addEdge(dep, mat, 0)
			}
		}
		elided := g.opts.CopyElim && isPureProjection(ir)
		mat.estCost = localCost(g.opts.Net, g.estRows[ch.path], elided)
		return g.setCopyMat(mat, c, ch, ir, branch, star, elided)
	}

	// Query edges: one graph node per (decomposed) chain step.
	steps, err := g.chainParts("edge "+ch.path, ir, c, branch)
	if err != nil {
		return err
	}
	var prevNode *node
	for k, pt := range steps {
		name := fmt.Sprintf("Q:%s", ch.path)
		if len(steps) > 1 {
			name = fmt.Sprintf("Q:%s/%d", ch.path, k+1)
		}
		qn := g.newQueryNode(name, pt)
		g.estimatePart(ctx, qn, pt)

		// Dependencies from parameter tables.
		for _, spec := range pt.rw.specs {
			switch spec.kind {
			case paramPrev:
				g.addEdge(prevNode, qn, pt.prev.estBytes)
			case paramParentIDs:
				g.addEdge(g.inhDone[c.path], qn, 8*parentRows)
			default:
				dep, err := g.depNodeFor(c, spec.src)
				if err != nil {
					return err
				}
				rows := parentRows
				if spec.kind == paramCollection {
					rows = parentRows * 4
				}
				g.addEdge(dep, qn, rows*estSchemaBytes(spec.schema))
			}
		}
		if condSplit != nil {
			g.addEdge(condSplit, qn, 8*parentRows)
		}
		prevNode = qn
	}

	// Materialize the final step's output into child instances.
	last := steps[len(steps)-1]
	g.addEdge(prevNode, mat, last.estBytes)
	g.addEdge(g.inhDone[c.path], mat, 0) // parent inh values for copy fills
	childRows := parentRows
	if star {
		childRows = last.estRows
	}
	g.estRows[ch.path] = childRows
	mat.estCost = localCost(g.opts.Net, childRows, false)
	return g.setQueryMat(mat, c, ch, ir, branch, star, last)
}

// chainParts rewrites the steps of a query rule — its single query, or
// its decomposed chain — into set-oriented parts over the instances of
// parent context c, each resolved against the one source it runs at. The
// same rewrite serves production edges and truncation probes.
func (g *graph) chainParts(what string, ir *aig.InhRule, c *ctxNode, branch int) ([]*part, error) {
	steps := ir.Chain
	if ir.Query != nil {
		steps = []*sqlmini.Query{ir.Query}
	}
	parts := make([]*part, 0, len(steps))
	var prev *part
	var prevSchema relstore.Schema
	for k, q := range steps {
		pt, out, err := g.queryPart(q, ir.QueryParams, c, prevSchema)
		if err != nil {
			return nil, fmt.Errorf("mediator: %s step %d: %v", what, k+1, err)
		}
		pt.child, pt.branch, pt.prev = ir.Child, branch, prev
		parts = append(parts, pt)
		prev, prevSchema = pt, out
	}
	return parts, nil
}

// queryPart rewrites one rule query set-oriented over parent context c
// and resolves it, returning the part and its output schema.
func (g *graph) queryPart(q *sqlmini.Query, params map[string]aig.SourceRef, c *ctxNode, prevSchema relstore.Schema) (*part, relstore.Schema, error) {
	rw, err := rewriteSetOriented(q, params, g.attrSchema, prevSchema)
	if err != nil {
		return nil, nil, err
	}
	srcName := MediatorSource
	if srcs := rw.query.Sources(); len(srcs) == 1 {
		srcName = srcs[0]
	} else if len(srcs) > 1 {
		return nil, nil, fmt.Errorf("still references %v; decompose first", srcs)
	}
	resolved, err := sqlmini.Resolve(rw.query, g.reg, rw.paramSchemas())
	if err != nil {
		return nil, nil, err
	}
	pt := &part{rw: rw, source: srcName, parentCtx: c, refs: make([]*ref, len(rw.specs))}
	for k, spec := range rw.specs {
		if spec.kind == paramScalars || spec.kind == paramCollection {
			r, err := g.ref(c, spec.src)
			if err != nil {
				return nil, nil, err
			}
			pt.refs[k] = &r
		}
	}
	return pt, resolved.Output, nil
}

func estSchemaBytes(s relstore.Schema) float64 {
	b := 0.0
	for _, c := range s {
		if c.Kind == relstore.KindInt {
			b += 8
		} else {
			b += 16
		}
	}
	return b
}

func localCost(net NetModel, rows float64, elided bool) float64 {
	if elided {
		return 0
	}
	return rows * net.MediatorRowCostSec
}

// isPureProjection reports whether a copy rule only projects scalar
// members of the parent's inherited attribute — the copy chains that copy
// elimination (§4) elides.
func isPureProjection(ir *aig.InhRule) bool {
	if ir == nil {
		return true
	}
	if ir.IsQuery() {
		return false
	}
	for _, cp := range ir.Copies {
		if cp.Src.Side != aig.InhSide {
			return false
		}
	}
	return true
}

// estimatePart asks the owning source for eval_cost and size estimates of
// a part's rewritten query (§5.2's costing API) and records them on the
// part and its node.
func (g *graph) estimatePart(ctx context.Context, qn *node, pt *part) {
	parentRows := g.estRows[pt.parentCtx.path]
	if parentRows == 0 {
		parentRows = 1
	}
	// Parameter-only queries and sources that cannot answer fall back to
	// one tuple of work per parent.
	est := source.Estimate{Rows: parentRows, Bytes: parentRows * 16, Cost: parentRows}
	if src, err := g.reg.Get(pt.source); pt.source != MediatorSource && err == nil {
		opts := g.opts.PlanOpts
		opts.ParamCards = make(map[string]int, len(pt.rw.specs))
		for _, spec := range pt.rw.specs {
			switch spec.kind {
			case paramPrev:
				if pt.prev != nil {
					opts.ParamCards[spec.name] = int(pt.prev.estRows) + 1
				}
			case paramCollection:
				opts.ParamCards[spec.name] = int(parentRows*4) + 1
			default:
				opts.ParamCards[spec.name] = int(parentRows) + 1
			}
		}
		if e, err := src.Estimate(ctx, pt.rw.query, pt.rw.paramSchemas(), opts); err == nil {
			est = e
		}
	}
	pt.estRows, pt.estBytes, pt.estCost = est.Rows, est.Bytes, est.Cost*sourceRowCostSec
	qn.estCost, qn.estOutBytes = pt.estCost, est.Bytes
}

// buildCond compiles a choice production's condition query and branch
// split.
func (g *graph) buildCond(ctx context.Context, c *ctxNode, r *aig.Rule) (*node, error) {
	pt, _, err := g.queryPart(r.Cond, r.CondParams, c, nil)
	if err != nil {
		return nil, fmt.Errorf("mediator: condition of %s: %v", c.elem, err)
	}
	qn := g.newQueryNode("Qc:"+c.path, pt)
	g.estimatePart(ctx, qn, pt)
	for _, spec := range pt.rw.specs {
		switch spec.kind {
		case paramParentIDs:
			g.addEdge(g.inhDone[c.path], qn, 8*g.estRows[c.path])
		case paramPrev:
		default:
			dep, err := g.depNodeFor(c, spec.src)
			if err != nil {
				return nil, err
			}
			g.addEdge(dep, qn, g.estRows[c.path]*estSchemaBytes(spec.schema))
		}
	}

	split := g.newNode(nodeLocal, MediatorSource, "branch:"+c.path)
	split.estCost = localCost(g.opts.Net, g.estRows[c.path], false)
	g.addEdge(qn, split, pt.estBytes)
	nBranches := len(c.children)
	decl := g.a.Inh[c.elem]
	split.runLocal = func(x *exec) (int, error) {
		out := x.partOut[pt.idx]
		if out == nil {
			return 0, fmt.Errorf("mediator: condition result of %s missing", c.path)
		}
		if out.Schema().ColumnIndex(ParentCol) != 0 || len(out.Schema()) < 2 {
			return 0, fmt.Errorf("mediator: condition result of %s lacks a leading %s column", c.path, ParentCol)
		}
		all := x.st.rows(c)
		for _, row := range out.Rows() {
			v := row[1]
			if v.Kind() != relstore.KindInt {
				return 0, fmt.Errorf("mediator: condition of %s returned non-integer %s", c.path, v)
			}
			b := int(v.AsInt())
			if b < 1 || b > nBranches {
				return 0, fmt.Errorf("mediator: condition of %s returned %d, want 1..%d", c.path, b, nBranches)
			}
			id, err := parentPos(row, len(all), "condition", c.path)
			if err != nil {
				return 0, err
			}
			// Every row for an instance must agree (aig.Eval's rule).
			if prev := all[id].branch; prev != 0 && prev != b {
				return 0, fmt.Errorf("mediator: condition of %s returned %d and %d for the instance with Inh %s", c.path, prev, b, x.st.table(c).inh.value(decl, id))
			}
			all[id].branch = b
		}
		for i := range all {
			if all[i].branch == 0 {
				return 0, fmt.Errorf("mediator: condition of %s returned no row for an instance", c.path)
			}
		}
		return out.Len(), nil
	}
	return split, nil
}

// setCopyMat installs the materialization body for a copy edge.
func (g *graph) setCopyMat(mat *node, c, ch *ctxNode, ir *aig.InhRule, branch int, star, elided bool) error {
	decl := g.a.Inh[ch.elem]
	copies, err := g.compileCopies(c, ch, ir)
	if err != nil {
		return err
	}
	// A star binds each row of the collection it iterates.
	var pos []int
	var bindErr error
	if star {
		schema, err := g.attrSchema(ir.Copies[0].Src)
		if err != nil {
			return err
		}
		pos, bindErr = decl.BindColumns(nil, schema)
	}
	mat.runLocal = func(x *exec) (int, error) {
		pt := x.st.table(c)
		w := newWriter(decl, len(pt.rows), len(pt.rows))
		var sorted []relstore.Tuple
		for id := range pt.rows {
			w.startParent()
			if !pt.rows[id].on(branch) {
				continue
			}
			if star {
				rows, err := x.rows(&copies[0].src, &pt.inh, id)
				if err != nil {
					return 0, err
				}
				if len(rows) > 0 && bindErr != nil {
					return 0, bindErr
				}
				sorted = append(sorted[:0], rows...)
				slices.SortStableFunc(sorted, relstore.Tuple.Compare)
				for _, row := range sorted {
					w.open()
					w.bind(pos, row)
					w.close()
				}
				continue
			}
			w.open()
			if err := x.applyCopies(w, copies, &pt.inh, id, false); err != nil {
				return 0, err
			}
			w.close()
		}
		t, err := w.table()
		if err != nil {
			return 0, err
		}
		x.st.publish(ch, t)
		if elided {
			return 0, nil // copy elimination: no mediator copying charged
		}
		return len(t.rows), nil
	}
	return nil
}

// setQueryMat installs the materialization body for a query edge: the
// final chain step's output rows become child instances (star), the
// child's collection member (TargetCollection), or the child's scalar
// members (single-row rules).
func (g *graph) setQueryMat(mat *node, c, ch *ctxNode, ir *aig.InhRule, branch int, star bool, last *part) error {
	decl := g.a.Inh[ch.elem]
	copies, err := g.compileCopies(c, ch, ir)
	if err != nil {
		return err
	}
	target := -1 // TargetCollection's position
	if ir.TargetCollection != "" {
		target = slices.IndexFunc(decl.Members, func(m aig.MemberDecl) bool { return m.Kind != aig.Scalar && m.Name == ir.TargetCollection })
	}
	mat.runLocal = func(x *exec) (int, error) {
		out := x.partOut[last.idx]
		if out == nil {
			return 0, fmt.Errorf("mediator: query result for %s missing", ch.path)
		}
		parentIdx := out.Schema().ColumnIndex(ParentCol)
		if parentIdx != 0 {
			return 0, fmt.Errorf("mediator: result for %s lacks leading %s column", ch.path, ParentCol)
		}
		pos, bindErr := decl.BindColumns(nil, out.Schema()[1:])
		pt := x.st.table(c)
		n := len(pt.rows)
		// Group the result rows by parent in one array: parent id's rows
		// are grouped[at[id]:at[id+1]], in result order, then sorted.
		at := make([]int, n+1)
		for _, row := range out.Rows() {
			id, err := parentPos(row, n, "result", ch.path)
			if err != nil {
				return 0, err
			}
			at[id+1]++
		}
		for id := 1; id <= n; id++ {
			at[id] += at[id-1]
		}
		grouped := make([]relstore.Tuple, out.Len())
		for _, row := range out.Rows() {
			id := int(row[0].AsInt())
			grouped[at[id]] = row[1:]
			at[id]++
		}
		copy(at[1:], at[:n])
		at[0] = 0

		rowCap := n
		if star {
			rowCap = out.Len()
		}
		w := newWriter(decl, n, rowCap)
		for id := range pt.rows {
			w.startParent()
			if !pt.rows[id].on(branch) {
				continue
			}
			rows := grouped[at[id]:at[id+1]]
			slices.SortStableFunc(rows, relstore.Tuple.Compare)
			if len(rows) > 0 && bindErr != nil && (star || ir.TargetCollection == "") {
				return 0, bindErr
			}

			if star {
				for _, row := range rows {
					w.open()
					w.bind(pos, row)
					if err := x.applyCopies(w, copies, &pt.inh, id, true); err != nil {
						return 0, err
					}
					w.close()
				}
				continue
			}

			w.open()
			switch {
			case ir.TargetCollection == "":
				if len(rows) > 0 {
					w.bind(pos, rows[0])
				}
			case target < 0:
				return 0, fmt.Errorf("aig: no collection member %q in %s", ir.TargetCollection, decl)
			default:
				w.setRows(target, rows)
			}
			if err := x.applyCopies(w, copies, &pt.inh, id, false); err != nil {
				return 0, err
			}
			w.close()
		}
		t, err := w.table()
		if err != nil {
			return 0, err
		}
		x.st.publish(ch, t)
		return len(t.rows), nil
	}
	return nil
}
