package mediator

import (
	"context"
	"errors"
	"fmt"

	"github.com/aigrepro/aig/internal/aig"
	"github.com/aigrepro/aig/internal/obs"
	"github.com/aigrepro/aig/internal/relstore"
	"github.com/aigrepro/aig/internal/specialize"
)

// EvaluateRecursive evaluates a recursive AIG by iterative unfolding
// (§5.5): begin with the user-supplied depth estimate, evaluate, probe
// whether any truncated context was blocked waiting on deeper unrolling
// (its original star query returns rows for some frontier instance), and
// if so double the depth and re-evaluate, up to maxDepth. It returns the
// result and the depth that sufficed.
//
// The input AIG should already have constraints compiled and multi-source
// queries decomposed; unfolding preserves both. A compiled-guard abort
// is probed like a document, since a truncated document can violate (or
// satisfy) a constraint that the full document does not: it is reported
// when no truncated instance is blocked, or at maxDepth, and triggers
// re-unrolling otherwise.
func (m *Mediator) EvaluateRecursive(a *aig.AIG, rootInh *aig.AttrValue, estDepth, maxDepth int) (*Result, int, error) {
	r, depth, err := m.Settle(context.Background(), a, rootInh, max(estDepth, 1), maxDepth)
	if err != nil {
		return nil, depth, err
	}
	res, err := r.result()
	return res, depth, err
}

// Settle evaluates grammar a until its document is final and returns the
// run untagged, with the unfolding depth that sufficed: a guard abort,
// or any other failure, is reported before any of the document exists,
// and only the final unfolding round is ever tagged. An estDepth of 0
// evaluates a as it is (its DTD must not be recursive); a positive one
// unfolds from there as EvaluateRecursive describes. Every round's
// evaluation and every truncation probe runs under the trace ctx
// carries.
func (m *Mediator) Settle(ctx context.Context, a *aig.AIG, rootInh *aig.AttrValue, estDepth, maxDepth int) (*Run, int, error) {
	if estDepth <= 0 {
		r, err := m.evaluate(ctx, a, 0, rootInh)
		if err != nil {
			return nil, 0, err
		}
		return r, 0, nil
	}
	if maxDepth < estDepth {
		maxDepth = estDepth
	}
	depth := estDepth
	for {
		r, err := m.evaluate(ctx, a, depth, rootInh)
		var abort *aig.AbortError
		if err != nil && (!errors.As(err, &abort) || depth >= maxDepth) {
			return nil, depth, err
		}
		// A guard abort at a truncated depth is trusted only as far as a
		// document would be: truncation can both remove tuples a subset
		// constraint needs and hide duplicates a key constraint would
		// reject. The abort is genuine once no truncated instance is
		// blocked, since deepening then no longer changes the document.
		blocked, perr := r.x.anyBlocked(ctx)
		if perr != nil {
			return nil, depth, perr
		}
		if !blocked {
			if err != nil {
				return nil, depth, err
			}
			return r, depth, nil
		}
		if depth >= maxDepth {
			return nil, depth, fmt.Errorf("mediator: recursion still expandable at depth %d (max %d); cyclic source data?", depth, maxDepth)
		}
		depth *= 2
		if depth > maxDepth {
			depth = maxDepth
		}
	}
}

// ctxProbe is the truncation probe of one context the unfolding cut: the
// original star rule's query (or decomposed chain), rewritten
// set-oriented over the context's instances exactly as a production edge
// is — joined to a parameter table keyed by parent id — so one source
// query per step answers for the whole frontier. A nil steps means the
// rule had no query to probe with.
type ctxProbe struct {
	ctx   *ctxNode
	steps []*part
}

// buildProbes compiles one probe per context of a truncated replica type,
// in document (pre-)order.
func (g *graph) buildProbes(truncated []specialize.TruncProbe) error {
	if len(truncated) == 0 {
		return nil
	}
	byType := make(map[string]specialize.TruncProbe, len(truncated))
	for _, p := range truncated {
		byType[p.Type] = p
	}
	var walk func(c *ctxNode) error
	walk = func(c *ctxNode) error {
		if tp, cut := byType[c.elem]; cut {
			pr := ctxProbe{ctx: c}
			if tp.Rule != nil {
				steps, err := g.chainParts("probe of "+c.path, tp.Rule, c, 0)
				if err != nil {
					return err
				}
				for _, pt := range steps {
					pt.name = "probe"
				}
				pr.steps = steps
			}
			g.probes = append(g.probes, pr)
		}
		for _, ch := range c.children {
			if err := walk(ch); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(g.root)
}

// anyBlocked reports whether any instance of a truncated context would
// have expanded further: the context's probe returns a row for it.
func (x *exec) anyBlocked(ctx context.Context) (bool, error) {
	tr, parent := obs.SpanFromContext(ctx)
	if tr == nil {
		tr = x.g.opts.Tracer
	}
	for _, pr := range x.g.probes {
		sp := tr.StartSpan("probe", parent)
		rows, err := x.probe(obs.ContextWithSpan(ctx, tr, sp), pr)
		sp.SetAttr("context", pr.ctx.path).SetAttr("instances", len(x.st.rows(pr.ctx))).SetAttr("rows", rows)
		if err != nil {
			sp.SetAttr("error", err.Error())
		}
		sp.End()
		if err != nil || rows > 0 {
			return rows > 0, err
		}
	}
	return false, nil
}

// probe runs one truncated context's probe over all its frontier
// instances at once and returns the number of rows the last step
// produced: any row means some instance is blocked. Without a query to
// probe with, every instance conservatively counts as a row.
func (x *exec) probe(ctx context.Context, pr ctxProbe) (int, error) {
	n := len(x.st.rows(pr.ctx))
	if n == 0 || pr.steps == nil {
		return n, nil
	}
	var out *relstore.Table
	for _, pt := range pr.steps {
		var err error
		if out, _, _, err = x.execPart(ctx, pt, out); err != nil {
			return 0, err
		}
		if out.Len() == 0 {
			return 0, nil
		}
	}
	return out.Len(), nil
}
