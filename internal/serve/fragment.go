package serve

import (
	"context"
	"fmt"
	"time"

	"github.com/aigrepro/aig/internal/aig"
	"github.com/aigrepro/aig/internal/ivm"
	"github.com/aigrepro/aig/internal/mediator"
	"github.com/aigrepro/aig/internal/obs"
	"github.com/aigrepro/aig/internal/sqlmini"
	"github.com/aigrepro/aig/internal/xmltree"
	"github.com/aigrepro/aig/internal/xpath"
)

// This file is the fragment half of the serving story: GET
// /views/{name}?path=... answers with only the elements the path
// selects, evaluated so that subtrees the path cannot reach are never
// bound and their queries never run, and written as each match closes,
// so first-byte latency and bytes-on-the-wire stop scaling with document
// size. A fragment request resolves to a target carrying the compiled
// path and then takes the same pipeline as a document.
//
// One analysis decides what a fragment reads: the path's verdict
// (xpath.Verdict) over the served grammar, which the fill's route
// (Server.route) trusts or not. A path without predicates is served by
// the mediator's plan pruned to that verdict, streamed through the path
// sink (xpath.Stream) on the tag walk; a path with predicates by the
// partial evaluator, which decides [N] and pushdownable [c='v'] per
// instance while it evaluates — or, where a source gives no direct table
// access (a remote.Client), by the pruned plan and the sink as well. The
// refresher judges both kinds of entry against the verdict's scans.
// Where the verdict cannot be trusted (a guard left in the grammar, or
// broken premises) the whole document is settled, guarded where the
// premises are broken, and the sink selects the path from its tag walk.
//
// Fragments get their own cache entries, one per (view, params, path),
// with the path spliced into the key as "\x00p:<path>" — the
// full-document key never contains "\x00p:", so the two key spaces
// cannot collide. A fragment miss fills its own entry through
// cacheFill like a document's, admitted and coalesced, whether or not
// the full document is cached: its pruned evaluation reads no more than
// the path needs, where cutting it from the cached document would
// re-parse and filter every byte of it.

// maxFragPlans bounds a view's memoized fragment plans: every distinct
// path a client sends compiles one, and nothing else would ever drop
// them. A plan evicted at the bound is recompiled on its next use.
const maxFragPlans = 256

// fragPlan is one path compiled against one view: the pushdown analysis
// over the served grammar, the path's verdict, and the dependency map
// the refresher judges fragment entries against.
type fragPlan struct {
	// expr is the canonical rendering (Parse(expr).String() == expr);
	// cache keys and the memoization map use it, so "/a[2 ]"-style
	// spelling variants share one plan and one cache line.
	expr string
	path *xpath.Path
	c    *xpath.Compiled
	// verdict keeps the grammar edges the path can reach; the mediator
	// prunes its plan to it, and deps holds its scans.
	verdict *xpath.Verdict
	partial bool      // the path has predicates
	deps    *ivm.Deps // restricted to the scans the verdict keeps
}

// fragmentPlan parses, compiles, and memoizes a path against the view.
func (v *View) fragmentPlan(expr string, schemas sqlmini.SchemaProvider) (*fragPlan, error) {
	p, err := xpath.Parse(expr)
	if err != nil {
		return nil, fmt.Errorf("path: %w", err)
	}
	canon := p.String()
	v.fragMu.Lock()
	defer v.fragMu.Unlock()
	if fp, ok := v.fragPlans[canon]; ok {
		return fp, nil
	}
	c, err := xpath.Compile(v.sa, p)
	if err != nil {
		return nil, err
	}
	verdict := c.Verdict(v.sa)
	deps, err := ivm.ExtractFiltered(v.sa, schemas, verdict.Keep)
	if err != nil {
		return nil, err
	}
	fp := &fragPlan{expr: canon, path: p, c: c, verdict: verdict, partial: p.HasPredicates(), deps: deps}
	for k := range v.fragPlans {
		if len(v.fragPlans) < maxFragPlans {
			break
		}
		delete(v.fragPlans, k)
	}
	v.fragPlans[canon] = fp
	return fp, nil
}

// evalPartial fills the entry of a fragment whose path has predicates
// by partial evaluation: the served grammar is walked under the path's
// cursor — skipped subtrees never run their queries — and each matched
// element goes to out the moment it is rendered.
func (s *Server) evalPartial(ctx context.Context, t target, e *cacheEntry, out *stream) error {
	rootInh, err := t.v.bindParams(t.params)
	if err != nil {
		return err
	}
	tr, parent := obs.SpanFromContext(ctx)
	sp := tr.StartSpan("eval.partial", parent)
	sp.SetAttr("path", t.fp.expr).SetAttr("premises", "held")
	env := &aig.Env{
		Schemas:  s.reg,
		Data:     s.reg,
		Stats:    s.reg,
		PlanOpts: s.opts.PlanOpts,
		MaxDepth: mediator.UnfoldLimit,
		Counters: &aig.Counters{},
	}
	t0 := time.Now()
	err = t.v.sa.EvalPartial(env, rootInh, t.fp.c.NewCursor(), func(n *xmltree.Node) error {
		return e.addMatch(n, out)
	})
	e.evalSec = time.Since(t0).Seconds()
	s.m.evalSec.Observe(e.evalSec)
	s.m.evaluations.Inc()
	sp.SetAttr("matches", e.matches)
	sp.SetAttr("queries", env.Counters.QueriesRun)
	sp.SetAttr("bytes", len(e.body)).End()
	return err
}

// addMatch appends one selected element to a fragment entry's body and
// sends it on to out, if set.
func (e *cacheEntry) addMatch(n *xmltree.Node, out *stream) error {
	if err := n.WriteIndented(fragWriter{e, out}); err != nil {
		return err
	}
	e.matches++
	return nil
}

// fragWriter appends a fragment's bytes to its entry's body and sends
// them on to out, if set.
type fragWriter struct {
	e   *cacheEntry
	out *stream
}

func (w fragWriter) Write(b []byte) (int, error) {
	w.e.body = append(w.e.body, b...)
	if w.out == nil {
		return len(b), nil
	}
	return w.out.Write(b)
}
