package serve

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"github.com/aigrepro/aig/internal/aig"
	"github.com/aigrepro/aig/internal/ivm"
	"github.com/aigrepro/aig/internal/obs"
	"github.com/aigrepro/aig/internal/xmltree"
	"github.com/aigrepro/aig/internal/xpath"
)

// This file is the fragment half of the serving story: GET
// /views/{name}?path=... answers with only the elements the path
// selects, evaluated partially (subtrees the path cannot reach are
// never bound, their queries never run) and serialized as they are
// produced, so first-byte latency and bytes-on-the-wire stop scaling
// with document size. A fragment request resolves to a target carrying
// the compiled path and then takes the same pipeline as a document.
//
// Fragments get their own cache entries, keyed (view, params, path,
// stamp) with the path spliced into the key prefix as "\x00p:<path>" —
// the full-document prefix never contains "\x00p:", so the two key
// spaces cannot collide. A fragment miss first tries to derive the
// fragment from a cached full document (parse + post-hoc filter, no
// source queries); only when neither entry exists does it evaluate.

// maxFragPlans bounds a view's memoized fragment plans: every distinct
// path a client sends compiles one, and nothing else would ever drop
// them. A plan evicted at the bound is recompiled on its next use.
const maxFragPlans = 256

// fragPlan is one path compiled against one view: the pushdown/pruning
// analysis over the served grammar plus the path-filtered dependency map
// the refresher judges fragment entries against.
type fragPlan struct {
	// expr is the canonical rendering (Parse(expr).String() == expr);
	// cache keys and the memoization map use it, so "/a[2 ]"-style
	// spelling variants share one plan and one cache line.
	expr string
	path *xpath.Path
	c    *xpath.Compiled
	// deps is restricted to the scans the path can reach. Where partial
	// evaluation cannot serve the fragment (a guard left in the grammar,
	// or broken premises), its body is cut from a full evaluation and
	// judging falls back to the view's unfiltered deps instead.
	deps *ivm.Deps
}

// fragmentPlan parses, compiles, and memoizes a path against the view.
func (v *View) fragmentPlan(expr string, schemas ivm.SchemaSource) (*fragPlan, error) {
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
	deps, err := ivm.ExtractFiltered(v.sa, schemas, c.LiveScans(v.sa))
	if err != nil {
		return nil, err
	}
	fp := &fragPlan{expr: canon, path: p, c: c, deps: deps}
	for k := range v.fragPlans {
		if len(v.fragPlans) < maxFragPlans {
			break
		}
		delete(v.fragPlans, k)
	}
	v.fragPlans[canon] = fp
	return fp, nil
}

// evalPartial fills a fragment entry by partial evaluation: the served
// grammar is walked under the path's cursor — skipped subtrees never run
// their queries — and each matched element goes to out the moment it is
// rendered.
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
		MaxDepth: t.v.maxDepth,
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
	lo := len(e.body)
	if err := n.WriteIndented(e); err != nil {
		return err
	}
	e.matches++
	if out == nil {
		return nil
	}
	_, err := out.Write(e.body[lo:])
	return err
}

// Write appends to the entry's body.
func (e *cacheEntry) Write(b []byte) (int, error) {
	e.body = append(e.body, b...)
	return len(b), nil
}

// deriveFragment filters an already-rendered full document down to the
// path's matches — the no-source-queries route used when the full entry
// is cached.
func deriveFragment(full *cacheEntry, fp *fragPlan) (*cacheEntry, error) {
	doc, err := xmltree.Parse(bytes.NewReader(full.body))
	if err != nil {
		return nil, fmt.Errorf("re-parsing cached document: %w", err)
	}
	e := &cacheEntry{depth: full.depth, evalSec: full.evalSec, created: time.Now(), path: fp.expr}
	for _, n := range xpath.Select(doc, fp.path) {
		if err := e.addMatch(n, nil); err != nil {
			return nil, err
		}
	}
	return e, nil
}
