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
// queries decomposed; unfolding preserves both. Compiled-guard aborts at
// a depth below maxDepth trigger re-unrolling rather than an immediate
// error, since a truncated document can violate (or satisfy) a
// constraint that the full document does not; an abort that persists at
// maxDepth is reported as such.
func (m *Mediator) EvaluateRecursive(a *aig.AIG, rootInh *aig.AttrValue, estDepth, maxDepth int) (*Result, int, error) {
	return m.EvaluateRecursiveContext(context.Background(), a, rootInh, estDepth, maxDepth)
}

// EvaluateRecursiveContext is EvaluateRecursive with a caller-supplied
// context; every unfolding round's evaluation and every truncation probe
// runs under the trace ctx carries.
func (m *Mediator) EvaluateRecursiveContext(ctx context.Context, a *aig.AIG, rootInh *aig.AttrValue, estDepth, maxDepth int) (*Result, int, error) {
	if estDepth < 1 {
		estDepth = 1
	}
	if maxDepth < estDepth {
		maxDepth = estDepth
	}
	depth := estDepth
	for {
		res, x, err := m.evaluate(ctx, a, depth, rootInh)
		if err != nil {
			// A guard abort at a truncated depth is not trustworthy:
			// truncation can both remove tuples a subset constraint needs
			// and hide duplicates a key constraint would reject. Keep
			// expanding; the abort is genuine only once deepening stops
			// changing the document.
			var abort *aig.AbortError
			if errors.As(err, &abort) && depth < maxDepth {
				depth *= 2
				if depth > maxDepth {
					depth = maxDepth
				}
				continue
			}
			return nil, depth, err
		}
		blocked, err := x.anyBlocked(ctx)
		if err != nil {
			return nil, depth, err
		}
		if !blocked {
			return res, depth, nil
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
