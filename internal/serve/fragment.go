package serve

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"strings"
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
// with document size.
//
// Fragments get their own cache entries, keyed (view, params, path,
// stamp) with the path spliced into the key prefix as "\x00p:<path>" —
// the full-document prefix never contains "\x00p:", so the two key
// spaces cannot collide. A fragment miss first tries to derive the
// fragment from a cached full document (parse + post-hoc filter, no
// source queries); only when neither entry exists does it evaluate.

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
	// or broken premises), its body derives from a full document and
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
	v.fragPlans[canon] = fp
	return fp, nil
}

// fragDeps returns the dependency map a fragment entry of this plan is
// judged against at stamp: path-filtered when partial evaluation serves
// it there, the view's full map when its body derives from a full
// render — a change outside the path may then still make a guard abort
// the full document, and so the fragment.
func (s *Server) fragDeps(v *View, fp *fragPlan, stamp string) *ivm.Deps {
	if s.partialOK(v, stamp) {
		return fp.deps
	}
	return v.deps
}

// fragPrefix builds the stamp-independent fragment key prefix from the
// full-document prefix.
func fragPrefix(fullPrefix, expr string) string {
	return fullPrefix + "\x00p:" + escapeKeyPart(expr)
}

// serveFragment answers a view request carrying a path parameter. It
// owns the response from here on.
func (s *Server) serveFragment(ctx context.Context, rt *requestTrace, rw *statusRecorder, r *http.Request, v *View, params map[string]string, rawPath string) {
	fp, err := v.fragmentPlan(rawPath, s.reg)
	if err != nil {
		rt.fail(err)
		http.Error(rw, err.Error(), http.StatusBadRequest)
		return
	}
	s.m.fragments.Inc()

	stamp, _, err := s.stamp(v)
	if err != nil {
		s.m.errors.Inc()
		rt.fail(err)
		http.Error(rw, err.Error(), http.StatusBadGateway)
		return
	}
	fullPrefix := v.name + "\x00" + rt.params
	prefix := fragPrefix(fullPrefix, fp.expr)
	key := prefix + "\x00" + stamp

	if noStoreRequest(r) {
		s.m.misses.Inc()
		rt.setCache("bypass")
		st := newFragStream(rw, fp, stamp, "bypass")
		var entry *cacheEntry
		berr := s.admitted(ctx, func() (err error) {
			entry, err = s.evaluateFragment(ctx, v, params, fp, stamp, st)
			return err
		})
		s.finishFragStream(rt, rw, st, entry, berr, "bypass")
		return
	}

	tr, parent := obs.SpanFromContext(ctx)
	lookupSpan := tr.StartSpan("cache.lookup", parent)
	e, ok := s.cache.Get(key)
	lookupSpan.SetAttr("hit", ok).End()
	if ok {
		s.m.hits.Inc()
		rt.setCache("hit")
		s.writeFragment(rw, e, "hit")
		return
	}
	s.m.misses.Inc()

	// A cached full document makes the fragment derivable without
	// touching any source: parse it back and filter post hoc.
	if full, ok := s.cache.Get(fullPrefix + "\x00" + stamp); ok {
		fe, derr := deriveFragment(full, fp)
		if derr != nil {
			rt.fail(derr)
			s.writeError(rw, derr)
			return
		}
		fe.view, fe.params, fe.keyPrefix, fe.stamp = v.name, params, prefix, stamp
		fe.tableVers = full.tableVers
		s.cache.Add(key, fe)
		s.m.cacheEntries.Set(float64(s.cache.Len()))
		rt.setCache("derived")
		s.writeFragment(rw, fe, "derived")
		return
	}

	// Evaluate. The leader streams elements as they are produced while
	// buffering them for the cache and for coalesced followers.
	st := newFragStream(rw, fp, stamp, "miss")
	entry, ferr, leader := s.cacheFill(ctx, v, params, prefix, stamp, true, func() (*cacheEntry, error) {
		return s.evaluateFragment(ctx, v, params, fp, stamp, st)
	})
	if !leader {
		s.m.coalesced.Inc()
		st = nil // a follower never streamed; serve the shared buffer
	}
	state := "miss"
	if !leader {
		state = "coalesced"
	}
	rt.setCache(state)
	s.finishFragStream(rt, rw, st, entry, ferr, state)
}

// fragStream tees fragment elements to the client as they are emitted.
// Headers are written lazily at the first byte — an evaluation that
// fails before emitting anything can still answer with a clean error
// status — and the match count travels as an HTTP trailer, since it is
// unknown when the header block ships.
type fragStream struct {
	rw    *statusRecorder
	fp    *fragPlan
	stamp string
	state string
	wrote bool
}

func newFragStream(rw *statusRecorder, fp *fragPlan, stamp, state string) *fragStream {
	return &fragStream{rw: rw, fp: fp, stamp: stamp, state: state}
}

// element ships one rendered fragment element to the client.
func (st *fragStream) element(b []byte) error {
	if !st.wrote {
		st.wrote = true
		h := st.rw.Header()
		h.Set("Trailer", "X-Aig-Fragment-Matches")
		h.Set("Content-Type", "application/xml; charset=utf-8")
		h.Set("X-Aig-Cache", st.state)
		h.Set("X-Aig-Fragment-Path", st.fp.expr)
		if st.stamp != "" {
			h.Set("X-Aig-Stamp", st.stamp)
		}
	}
	if _, err := st.rw.Write(b); err != nil {
		return err
	}
	st.rw.Flush()
	return nil
}

// finishFragStream completes a fragment response: a leader that already
// streamed only ships the trailer; anyone else gets the buffered entry.
// A failure after the first streamed byte cannot be turned into an error
// status anymore — the connection is aborted so the client sees a
// truncated chunked body, not a silently short 200.
func (s *Server) finishFragStream(rt *requestTrace, rw *statusRecorder, st *fragStream, entry *cacheEntry, err error, state string) {
	if err != nil {
		rt.fail(err)
		if st != nil && st.wrote {
			panic(http.ErrAbortHandler)
		}
		s.writeError(rw, err)
		return
	}
	if st != nil && st.wrote {
		rw.Header().Set("X-Aig-Fragment-Matches", fmt.Sprint(entry.matches))
		return
	}
	s.writeFragment(rw, entry, state)
}

// writeFragment sends a buffered fragment with the serving headers.
// Zero-match fragments are a 200 with an empty body: the request was
// valid, the path just selects nothing at these parameters.
func (s *Server) writeFragment(w http.ResponseWriter, e *cacheEntry, cacheState string) {
	h := w.Header()
	h.Set("Content-Type", "application/xml; charset=utf-8")
	h.Set("X-Aig-Cache", cacheState)
	h.Set("X-Aig-Fragment-Path", e.path)
	h.Set("X-Aig-Fragment-Matches", fmt.Sprint(e.matches))
	if e.stamp != "" {
		h.Set("X-Aig-Stamp", e.stamp)
	}
	w.Write(e.body)
}

// evaluateFragment produces a fragment body at stamp. Where partial
// evaluation may serve it (partialOK), the served grammar is walked under
// the path's cursor — skipped subtrees never run their queries — and each
// matched element is emitted to st the moment it is rendered. Everything
// else evaluates the full view (through the shared evaluate path, so the
// grammar choice and abort semantics are identical to a full-document
// request) and filters post hoc.
func (s *Server) evaluateFragment(ctx context.Context, v *View, params map[string]string, fp *fragPlan, stamp string, st *fragStream) (*cacheEntry, error) {
	if !s.partialOK(v, stamp) {
		full, err := s.evaluate(ctx, v, params, stamp)
		if err != nil {
			return nil, err
		}
		fe, err := deriveFragment(full, fp)
		if err != nil {
			return nil, err
		}
		if st != nil && len(fe.body) > 0 {
			if serr := st.element(fe.body); serr != nil {
				return nil, serr
			}
		}
		return fe, nil
	}

	rootInh, err := v.bindParams(params)
	if err != nil {
		return nil, err
	}
	tr, parent := obs.SpanFromContext(ctx)
	sp := tr.StartSpan("eval.partial", parent)
	sp.SetAttr("path", fp.expr).SetAttr("premises", "held")
	env := &aig.Env{
		Schemas:  s.reg,
		Data:     s.reg,
		Stats:    s.reg,
		PlanOpts: s.opts.PlanOpts,
		MaxDepth: v.maxDepth,
		Counters: &aig.Counters{},
	}
	t0 := time.Now()
	var buf bytes.Buffer
	matches := 0
	err = v.sa.EvalPartial(env, rootInh, fp.c.NewCursor(), func(n *xmltree.Node) error {
		var eb strings.Builder
		if werr := n.WriteIndented(&eb); werr != nil {
			return werr
		}
		b := []byte(eb.String())
		buf.Write(b)
		matches++
		if st != nil {
			return st.element(b)
		}
		return nil
	})
	evalSec := time.Since(t0).Seconds()
	s.m.evalSec.Observe(evalSec)
	s.m.evaluations.Inc()
	sp.SetAttr("matches", matches)
	sp.SetAttr("queries", env.Counters.QueriesRun)
	sp.SetAttr("bytes", buf.Len()).End()
	if err != nil {
		return nil, err
	}
	return &cacheEntry{
		body:    buf.Bytes(),
		evalSec: evalSec,
		created: time.Now(),
		path:    fp.expr,
		matches: matches,
	}, nil
}

// deriveFragment filters an already-rendered full document down to the
// path's matches — the no-source-queries route used when the full entry
// is cached and the fallback for views partial evaluation cannot serve.
func deriveFragment(full *cacheEntry, fp *fragPlan) (*cacheEntry, error) {
	doc, err := xmltree.Parse(bytes.NewReader(full.body))
	if err != nil {
		return nil, fmt.Errorf("re-parsing cached document: %w", err)
	}
	var buf bytes.Buffer
	sel := xpath.Select(doc, fp.path)
	for _, n := range sel {
		if err := n.WriteIndented(&buf); err != nil {
			return nil, err
		}
	}
	return &cacheEntry{
		body:    buf.Bytes(),
		depth:   full.depth,
		evalSec: full.evalSec,
		created: time.Now(),
		path:    fp.expr,
		matches: len(sel),
	}, nil
}
