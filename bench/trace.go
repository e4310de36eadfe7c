package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one bench-owned measurement around a call into a layer. The
// program under test is not instrumented for this benchmark: a child span
// is a separate call of the layer on the inputs the parent call used, so
// a child's interval lies outside its parent's, and only durations are
// compared.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 for a root span
	Request int    `json:"request"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"` // since the recorder was made
	EndNs   int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNs - s.StartNs) }

// recorder keeps spans in memory until the run ends. It is used from one
// goroutine. A nil recorder records nothing, which is the "spans off"
// side of trace.overhead_share.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// run times f as a span and returns the span's ID and duration.
func (r *recorder) run(name string, request, parent int, f func()) (int, time.Duration) {
	if r == nil {
		t0 := time.Now()
		f()
		return 0, time.Since(t0)
	}
	start := time.Since(r.t0)
	f()
	end := time.Since(r.t0)
	return r.add(name, request, parent, start, end-start), end - start
}

// add records a span whose duration was measured elsewhere (a phase time
// the layer reports about itself, or a sum of wrapped calls).
func (r *recorder) add(name string, request, parent int, start, d time.Duration) int {
	if r == nil {
		return 0
	}
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Request: request, Name: name,
		StartNs: int64(start), EndNs: int64(start + d)})
	return id
}

// selfTimes returns each span's duration minus the part its direct
// children account for, never below zero: separately timed children can
// add up to more than the parent when the machine is noisy.
func selfTimes(spans []span) map[int]time.Duration {
	child := make(map[int]time.Duration)
	for _, s := range spans {
		if s.Parent != 0 {
			child[s.Parent] += s.dur()
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		d := s.dur() - child[s.ID]
		if d < 0 {
			d = 0
		}
		self[s.ID] = d
	}
	return self
}

// layerRow is one line of a layer table: a span name with the medians of
// its total and self time over the requests that have it.
type layerRow struct {
	Name    string  `json:"name"`
	Depth   int     `json:"depth"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

// layerTable groups spans by name, in first-seen order with children
// after their parents. keep selects the requests to include.
func layerTable(spans []span, keep func(request int) bool) []layerRow {
	self := selfTimes(spans)
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	type acc struct {
		depth, first int
		total, self  []float64
	}
	accs := make(map[string]*acc)
	for i, s := range spans {
		if !keep(s.Request) {
			continue
		}
		a := accs[s.Name]
		if a == nil {
			depth := 0
			for p := s.Parent; p != 0; p = byID[p].Parent {
				depth++
			}
			a = &acc{depth: depth, first: i}
			accs[s.Name] = a
		}
		a.total = append(a.total, ms(s.dur()))
		a.self = append(a.self, ms(self[s.ID]))
	}
	rows := make([]layerRow, 0, len(accs))
	first := make(map[string]int, len(accs))
	for name, a := range accs {
		rows = append(rows, layerRow{Name: name, Depth: a.depth, Count: len(a.total),
			TotalMs: median(a.total), SelfMs: median(a.self)})
		first[name] = a.first
	}
	sort.Slice(rows, func(i, j int) bool { return first[rows[i].Name] < first[rows[j].Name] })
	return rows
}

// attributedMs is the part of a request the layers account for: the self
// times of all its spans added up per request, then the median over the
// requests keep selects. (Medians are taken last: requests differ in
// size, so a sum of per-layer medians describes no request at all.)
func attributedMs(spans []span, keep func(request int) bool) float64 {
	self := selfTimes(spans)
	perRequest := make(map[int]time.Duration)
	for _, s := range spans {
		if keep(s.Request) {
			perRequest[s.Request] += self[s.ID]
		}
	}
	sums := make([]float64, 0, len(perRequest))
	for _, d := range perRequest {
		sums = append(sums, ms(d))
	}
	return median(sums)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
