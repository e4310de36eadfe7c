package serve

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"time"

	"github.com/aigrepro/aig/internal/ivm"
	"github.com/aigrepro/aig/internal/mediator"
	"github.com/aigrepro/aig/internal/obs"
	"github.com/aigrepro/aig/internal/xpath"
)

// target is what a request resolves to, once: a view, its parameters,
// and, for a fragment, the compiled path. Every request, refresh and
// cache load goes through the one pipeline below; the target owns each
// decision that differs between a document and a fragment — the
// cache-key prefix, the dependency map an entry is judged against, and
// the fill that produces an entry (the headers follow the entry's path).
type target struct {
	v      *View
	params map[string]string
	// doc is the whole document's stamp-independent key prefix (view +
	// canonical params); prefix is the target's own, equal to doc for a
	// document.
	doc, prefix string
	fp          *fragPlan // nil: the whole document
}

// target resolves a view, parameters in canonical form (canon) and a
// path ("" for the whole document) to a target.
func (s *Server) target(v *View, params map[string]string, canon, path string) (target, error) {
	t := target{v: v, params: params, doc: v.name + "\x00" + canon}
	t.prefix = t.doc
	if path == "" {
		return t, nil
	}
	fp, err := v.fragmentPlan(path, s.reg)
	if err != nil {
		return target{}, err
	}
	t.fp = fp
	t.prefix = t.doc + "\x00p:" + escapeKeyPart(fp.expr)
	return t, nil
}

// entryTarget resolves the target a cached entry was filled for.
func (s *Server) entryTarget(v *View, e *cacheEntry) (target, error) {
	return s.target(v, e.params, canonicalParams(e.params), e.path)
}

// deps returns the dependency map an entry of t is judged against at
// stamp: the scans the path's verdict keeps while that verdict decides
// what the fragment reads (partialOK), the view's full map otherwise — a
// change outside the path may then still make a guard abort the full
// evaluation, and so the fragment.
func (s *Server) deps(t target, stamp string) *ivm.Deps {
	if t.fp != nil && s.partialOK(t.v, stamp) {
		return t.fp.deps
	}
	return t.v.deps
}

// fill produces t's entry at stamp. While partialOK holds, a fragment
// reads only what its path's verdict keeps: a path with predicates by
// partial evaluation, any other from the mediator's plan pruned to the
// verdict. Otherwise it settles the whole document, guarded where the
// premises are broken. A fill for a client (out set) holds an admission
// slot while it evaluates or settles; the refresher's (out nil) holds
// none. A settled run is emitted after the slot is released. Bytes go to
// out as they are produced: a fragment's matches one at a time, a
// document's only when the entry is not kept (a no-store request) — a
// kept document goes out whole, once it is filled.
func (s *Server) fill(ctx context.Context, t target, stamp string, out *stream, keep bool) (*cacheEntry, error) {
	e := &cacheEntry{stamp: stamp}
	if t.fp != nil {
		e.path = t.fp.expr
	}
	if out != nil {
		out.e = e
	}
	slot := func(fn func() error) error {
		if out == nil {
			return fn()
		}
		return s.admitted(ctx, fn)
	}
	pruned := t.fp != nil && s.partialOK(t.v, stamp)
	var err error
	if pruned && t.fp.partial {
		err = slot(func() error { return s.evalPartial(ctx, t, e, out) })
	} else {
		var verdict mediator.Verdict
		if pruned {
			verdict = t.fp.verdict
		}
		var st *settled
		if err = slot(func() (err error) {
			st, err = s.settle(ctx, t.v, t.params, stamp, verdict)
			return err
		}); err == nil {
			e.depth, e.evalSec = st.depth, st.run.Report.WallSec
			err = s.render(t, st, e, out, keep)
		}
	}
	if err != nil {
		return nil, err
	}
	e.created = time.Now()
	return e, nil
}

// render emits a settled run as t's body, timed as the request's
// "render" span: a document whole, a fragment as its path's matches,
// each written as it closes by the path sink on the run's tag walk.
func (s *Server) render(t target, st *settled, e *cacheEntry, out *stream, keep bool) error {
	tr, parent := obs.SpanFromContext(st.ctx)
	sp := tr.StartSpan("render", parent)
	var n int64
	var err error
	switch {
	case t.fp != nil:
		m := xpath.NewStream(t.fp.path, fragWriter{e, out})
		if err = st.run.Tag(m); err == nil {
			err = m.Err()
		}
		e.matches = m.Matches()
		n = int64(len(e.body))
	case keep:
		buf := bytes.NewBuffer(make([]byte, 0, t.v.lastSize.Load()))
		n, err = st.run.WriteTo(buf)
		e.body = buf.Bytes()
	default:
		n, err = st.run.WriteTo(out)
	}
	if err == nil && t.fp == nil {
		t.v.lastSize.Store(n)
	}
	sp.SetAttr("bytes", n).SetAttr("premises", st.premises).End()
	return err
}

// cacheFill is the one cache-fill path of client misses and background
// refreshes: coalesce on the would-be cache key, run fill, and cache the
// result only if the data-version stamp is still the one the key was
// computed from. That recheck is what makes every cached entry exact for
// its stamp — if a source mutated while the evaluation ran, the result
// may reflect a mix of versions and is served to the waiting clients but
// never cached (a later request or refresh cycle rebuilds it under the
// new stamp). leader reports whether this caller ran fill.
func (s *Server) cacheFill(ctx context.Context, t target, stamp string, fill func() (*cacheEntry, error)) (*cacheEntry, error, bool) {
	key := t.prefix + "\x00" + stamp
	return s.flight.Do(ctx, key, func() (*cacheEntry, error) {
		// The per-table version snapshot must be taken inside the
		// stamp-recheck window too: when the recheck passes, nothing
		// mutated between reading the stamp, these versions, and the
		// data itself, so all three are mutually consistent.
		tableVers, tverr := s.tableVersions(t.v)
		entry, err := fill()
		if err != nil {
			return nil, err
		}
		entry.view, entry.params, entry.keyPrefix = t.v.name, t.params, t.prefix
		entry.tableVers = tableVers
		if tverr == nil {
			// Cache only when the recheck stamp is settled (even — no
			// write in flight) and identical to the key's stamp: by the
			// seqlock argument nothing mutated between reading the stamp,
			// the table versions, and the data, so the entry is exact for
			// its stamp.
			if s2, settled, serr := s.stamp(t.v); serr == nil && settled && s2 == stamp {
				s.cache.Add(key, entry)
				s.m.cacheEntries.Set(float64(s.cache.Len()))
			} else {
				s.m.staleSkips.Inc()
			}
		}
		return entry, nil
	})
}

// Header phases: a buffered entry sends every header with its body; a
// streamed one sends what is known at its first byte, and a fragment's
// match count as a trailer once the body is done.
const (
	whole = iota
	head
	trailer
)

// setHeaders sets the serving headers of entry e in the given phase.
// Zero-match fragments are a 200 with an empty body: the request was
// valid, the path just selects nothing at these parameters.
func setHeaders(h http.Header, e *cacheEntry, state string, phase int) {
	if phase == trailer {
		if e.path != "" {
			h.Set("X-Aig-Fragment-Matches", fmt.Sprint(e.matches))
		}
		return
	}
	h.Set("Content-Type", "application/xml; charset=utf-8")
	h.Set("X-Aig-Cache", state)
	switch {
	case e.path == "":
		h.Set("X-Aig-Unfold-Depth", fmt.Sprint(e.depth))
		h.Set("X-Aig-Eval-Seconds", fmt.Sprintf("%.6f", e.evalSec))
	case phase == head:
		h.Set("Trailer", "X-Aig-Fragment-Matches")
		h.Set("X-Aig-Fragment-Path", e.path)
	default:
		h.Set("X-Aig-Fragment-Path", e.path)
		h.Set("X-Aig-Fragment-Matches", fmt.Sprint(e.matches))
	}
	if e.stamp != "" {
		h.Set("X-Aig-Stamp", e.stamp)
	}
}

// writeEntry sends a materialized entry with its serving headers.
func writeEntry(w http.ResponseWriter, e *cacheEntry, state string) {
	setHeaders(w.Header(), e, state, whole)
	w.Write(e.body)
}

// stream writes a response body to the client as it is produced. The
// headers of the entry being filled go out with the first byte, so a
// failure before it can still answer with a clean error status, and
// every write is flushed.
type stream struct {
	rw    *statusRecorder
	state string      // the X-Aig-Cache value
	e     *cacheEntry // set by the fill
	wrote bool
}

func (st *stream) Write(b []byte) (int, error) {
	if !st.wrote {
		st.wrote = true
		setHeaders(st.rw.Header(), st.e, st.state, head)
	}
	n, err := st.rw.Write(b)
	if err == nil {
		st.rw.Flush()
	}
	return n, err
}

// finish completes a response whose body may have begun streaming. A
// failure after the first streamed byte cannot be turned into an error
// status anymore — the connection is aborted so the client sees a
// truncated chunked body, not a silently short 200. A streamed body
// ends with its trailer; an unstreamed entry is written whole.
func (s *Server) finish(rt *requestTrace, out *stream, e *cacheEntry, err error) {
	switch {
	case err != nil:
		rt.fail(err)
		if out.wrote {
			panic(http.ErrAbortHandler)
		}
		s.writeError(out.rw, err)
	case out.wrote:
		setHeaders(out.rw.Header(), e, out.state, trailer)
	default:
		writeEntry(out.rw, e, out.state)
	}
}
