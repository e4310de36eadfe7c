// Package obs is the runtime observability layer: a lightweight,
// dependency-free tracing and metrics substrate for the evaluation stack.
//
// Tracing follows the usual span model — a span is a named interval with
// a parent, monotonic start/end times and a flat list of attributes —
// collected into a Tracer owned by one request or evaluation. Every
// tracer carries a trace ID (accepted from or emitted as a W3C
// Traceparent header, see traceparent.go), travels through call graphs
// either explicitly or inside a context.Context (see context.go), and
// can export its spans as relocatable SpanData so a remote callee's
// spans graft back into the caller's trace (Export/Graft). Retention is
// the flight recorder's job: the obs/store package tail-samples
// completed traces into a bounded ring served at /debug/traces.
//
// Everything is nil-safe: a nil *Tracer (the default) hands out nil
// *Spans, and every method on a nil receiver is a no-op, so instrumented
// code pays a single pointer test when tracing is disabled. The same
// convention holds for the metric instruments in metrics.go.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Attr is one key/value annotation on a span. Values should be strings,
// booleans, integers or floats so that the JSON export stays flat.
type Attr struct {
	Key   string
	Value any
}

// Span is one named interval of work. Fields are written only by the
// goroutine that started the span; readers must wait for End (the
// mediator's phase structure guarantees this ordering).
type Span struct {
	tracer   *Tracer
	id       int
	parentID int // -1 for a root span

	name  string
	start time.Time // carries the monotonic clock reading
	end   time.Time
	attrs []Attr
}

// Tracer collects the spans of one request or evaluation. The zero
// value is not usable; use NewTracer. A nil *Tracer is the disabled
// tracer.
type Tracer struct {
	traceID string
	mu      sync.Mutex
	spans   []*Span

	// arena is block storage for the first spans, so a typical request
	// (a handful of spans) costs one allocation for all of them instead
	// of one each. It is only ever resliced up to its fixed capacity —
	// never grown — so &arena[i] pointers stay valid for the trace's
	// lifetime.
	arena []Span
}

// spanArenaSize is how many spans a tracer pre-allocates in one block. A
// warm cache hit records 2 spans; a full evaluation typically records a
// dozen or two, so the overflow path still matters but the common case
// is covered.
const spanArenaSize = 8

// newSpanLocked hands out span storage; the caller must hold t.mu and
// must overwrite every field of the returned span.
func (t *Tracer) newSpanLocked() *Span {
	if t.arena == nil {
		t.arena = make([]Span, 0, spanArenaSize)
	}
	if n := len(t.arena); n < cap(t.arena) {
		t.arena = t.arena[:n+1]
		return &t.arena[n]
	}
	return new(Span)
}

// NewTracer returns an empty, enabled tracer with a fresh trace ID.
func NewTracer() *Tracer { return &Tracer{traceID: NewTraceID()} }

// NewTracerID returns an empty, enabled tracer carrying the given trace
// ID (typically one propagated from an inbound Traceparent header or the
// remote wire protocol).
func NewTracerID(id string) *Tracer { return &Tracer{traceID: id} }

// TraceID returns the tracer's trace ID ("" on nil).
func (t *Tracer) TraceID() string {
	if t == nil {
		return ""
	}
	return t.traceID
}

// StartSpan opens a span under parent (nil parent makes a root span) and
// records it with the tracer. On a nil tracer it returns nil, which every
// Span method accepts.
func (t *Tracer) StartSpan(name string, parent *Span) *Span {
	if t == nil {
		return nil
	}
	start := time.Now()
	parentID := -1
	if parent != nil {
		parentID = parent.id
	}
	t.mu.Lock()
	s := t.newSpanLocked()
	*s = Span{tracer: t, id: len(t.spans), parentID: parentID, name: name, start: start}
	if t.spans == nil {
		t.spans = make([]*Span, 0, spanArenaSize)
	}
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

// End closes the span. Ending twice keeps the first end time.
func (s *Span) End() {
	if s == nil || !s.end.IsZero() {
		return
	}
	s.end = time.Now()
}

// SetAttr annotates the span and returns it for chaining.
func (s *Span) SetAttr(key string, value any) *Span {
	if s == nil {
		return nil
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	return s
}

// Name returns the span's name ("" on nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Duration returns the elapsed monotonic time between start and end, or
// zero if the span has not ended.
func (s *Span) Duration() time.Duration {
	if s == nil || s.end.IsZero() {
		return 0
	}
	return s.end.Sub(s.start)
}

// Ended reports whether End was called.
func (s *Span) Ended() bool { return s != nil && !s.end.IsZero() }

// Attr returns the value of the first attribute with the given key.
func (s *Span) Attr(key string) (any, bool) {
	if s == nil {
		return nil, false
	}
	for _, a := range s.attrs {
		if a.Key == key {
			return a.Value, true
		}
	}
	return nil, false
}

// Spans returns every recorded span in creation order (which is start
// order only for spans created by one goroutine; concurrent siblings may
// appear out of start order).
func (t *Tracer) Spans() []*Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*Span(nil), t.spans...)
}

// SpanData is the relocatable form of one finished span: times are
// offsets from an anchor instant, and Parent indexes into the same
// SpanData slice (-1 marks a root). Export and Graft move span forests
// between tracers — in practice across the remote wire protocol, so a
// source engine's spans stitch into the mediator-side trace.
type SpanData struct {
	Name     string
	Parent   int // index into the slice; -1 for roots
	Start    time.Duration
	Duration time.Duration
	Attrs    []Attr
}

// Export renders every recorded span as SpanData with starts relative to
// anchor. Spans still open export with their current duration zero.
func (t *Tracer) Export(anchor time.Time) []SpanData {
	if t == nil {
		return nil
	}
	spans := t.Spans()
	out := make([]SpanData, len(spans))
	for i, s := range spans {
		out[i] = SpanData{
			Name:     s.name,
			Parent:   s.parentID,
			Start:    s.start.Sub(anchor),
			Duration: s.Duration(),
			Attrs:    append([]Attr(nil), s.attrs...),
		}
	}
	return out
}

// Graft adds a forest of finished spans under parent (nil parent makes
// them roots), anchoring their offsets at the given instant. Parent
// indices inside data are remapped to the new span IDs; data roots
// attach to parent. The usual use is stitching a remote callee's
// exported spans under the local RPC span, anchored at the RPC's start.
func (t *Tracer) Graft(parent *Span, anchor time.Time, data []SpanData) {
	if t == nil || len(data) == 0 {
		return
	}
	t.mu.Lock()
	base := len(t.spans)
	for _, d := range data {
		s := t.newSpanLocked()
		*s = Span{
			tracer:   t,
			id:       len(t.spans),
			parentID: -1,
			name:     d.Name,
			start:    anchor.Add(d.Start),
			end:      anchor.Add(d.Start + d.Duration),
			attrs:    append([]Attr(nil), d.Attrs...),
		}
		if d.Parent >= 0 && d.Parent < len(data) {
			s.parentID = base + d.Parent
		} else if parent != nil {
			s.parentID = parent.id
		}
		t.spans = append(t.spans, s)
	}
	t.mu.Unlock()
}

// Root returns the first root span (parentless), or nil.
func (t *Tracer) Root() *Span {
	for _, s := range t.Spans() {
		if s.parentID < 0 {
			return s
		}
	}
	return nil
}

// Children returns the direct children of parent in start order.
func (t *Tracer) Children(parent *Span) []*Span {
	if t == nil || parent == nil {
		return nil
	}
	var out []*Span
	for _, s := range t.Spans() {
		if s.parentID == parent.id {
			out = append(out, s)
		}
	}
	return out
}

// spanJSON is the exported form of one span.
type spanJSON struct {
	ID       int            `json:"id"`
	Parent   int            `json:"parent"` // -1 for roots
	Name     string         `json:"name"`
	StartUs  int64          `json:"start_us"` // microseconds since the trace began
	DurUs    int64          `json:"dur_us"`
	Attrs    map[string]any `json:"attrs,omitempty"`
	Children []spanJSON     `json:"children,omitempty"`
}

// forest arranges spans for rendering: the origin is the minimum start
// time (spans are stored in creation order under the tracer's lock, so
// spans[0] may postdate a concurrent sibling), and roots and sibling
// lists are sorted by start time with the creation ID as tie-break, so
// output is deterministic however concurrently the spans were created.
func forest(spans []*Span) (origin time.Time, roots []*Span, kids map[int][]*Span) {
	kids = make(map[int][]*Span)
	for _, s := range spans {
		if origin.IsZero() || s.start.Before(origin) {
			origin = s.start
		}
		if s.parentID < 0 {
			roots = append(roots, s)
		} else {
			kids[s.parentID] = append(kids[s.parentID], s)
		}
	}
	byStart := func(a, b *Span) bool {
		if !a.start.Equal(b.start) {
			return a.start.Before(b.start)
		}
		return a.id < b.id
	}
	sort.Slice(roots, func(i, j int) bool { return byStart(roots[i], roots[j]) })
	for _, c := range kids {
		sort.Slice(c, func(i, j int) bool { return byStart(c[i], c[j]) })
	}
	return origin, roots, kids
}

// WriteJSON renders the trace as a JSON forest of spans, children nested
// under their parents, with start offsets and durations in microseconds.
func (t *Tracer) WriteJSON(w io.Writer) error {
	if t == nil {
		_, err := io.WriteString(w, "[]\n")
		return err
	}
	origin, roots, kids := forest(t.Spans())
	var convert func(s *Span) spanJSON
	convert = func(s *Span) spanJSON {
		j := spanJSON{
			ID:      s.id,
			Parent:  s.parentID,
			Name:    s.name,
			StartUs: s.start.Sub(origin).Microseconds(),
			DurUs:   s.Duration().Microseconds(),
		}
		if len(s.attrs) > 0 {
			j.Attrs = make(map[string]any, len(s.attrs))
			for _, a := range s.attrs {
				j.Attrs[a.Key] = a.Value
			}
		}
		for _, c := range kids[s.id] {
			j.Children = append(j.Children, convert(c))
		}
		return j
	}
	out := make([]spanJSON, 0, len(roots))
	for _, r := range roots {
		out = append(out, convert(r))
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// WriteText renders the trace as an indented tree, one line per span —
// the quick human-readable view (the JSON export is the machine one).
func (t *Tracer) WriteText(w io.Writer) error {
	if t == nil {
		return nil
	}
	_, roots, kids := forest(t.Spans())
	var walk func(s *Span, depth int) error
	walk = func(s *Span, depth int) error {
		attrs := ""
		for _, a := range s.attrs {
			attrs += fmt.Sprintf(" %s=%v", a.Key, a.Value)
		}
		if _, err := fmt.Fprintf(w, "%*s%s %.3fms%s\n",
			2*depth, "", s.name, float64(s.Duration().Microseconds())/1000, attrs); err != nil {
			return err
		}
		for _, c := range kids[s.id] {
			if err := walk(c, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	for _, r := range roots {
		if err := walk(r, 0); err != nil {
			return err
		}
	}
	return nil
}

// sortedKeys returns the map's keys in sorted order (shared by the metric
// exports, which must be deterministic).
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
