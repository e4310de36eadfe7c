// Package store is the flight recorder behind /debug/traces: a bounded
// in-memory ring of recently completed traces with tail-based sampling.
//
// Head sampling (deciding at request start whether to trace) would miss
// exactly the traces worth keeping — the slow ones and the failures are
// not identifiable until the request ends. So aigd traces every request
// and decides retention at completion: errored traces are always kept,
// traces at or above a latency threshold are always kept, and a small
// random fraction of the fast, healthy rest is kept as a baseline for
// comparison. Everything else is dropped and its spans become garbage
// immediately; the ring bounds what retention itself can hold, evicting
// the oldest kept trace when full.
//
// A nil *Store is the disabled recorder: every method no-ops (Decide
// drops) at the cost of one pointer test, matching the obs
// package's nil-receiver convention.
package store

import (
	"math/rand/v2"
	"sync"
	"time"

	"github.com/aigrepro/aig/internal/obs"
)

// Recorder-level metrics, shared by every store in the process.
var (
	metricSeen = obs.Default.NewCounter("aig_trace_observed_total",
		"completed traces offered to the flight recorder")
	metricKept = obs.Default.NewCounter("aig_trace_kept_total",
		"traces retained by tail sampling")
	metricEvicted = obs.Default.NewCounter("aig_trace_evicted_total",
		"retained traces evicted by ring capacity")
)

// Policy is the tail-sampling decision, applied to every completed
// trace in order: errors are always kept; traces with Duration >=
// SlowThreshold are kept (a zero or negative threshold disables the
// slow rule); otherwise the trace is kept with probability SampleRate.
type Policy struct {
	SlowThreshold time.Duration
	SampleRate    float64

	// Rand overrides the random source of the probabilistic rule
	// (returns a value in [0,1); nil uses the process-wide PRNG). It
	// exists so tests can force keep and drop decisions.
	Rand func() float64
}

// Kept-reason values recorded on retained traces.
const (
	KeptError   = "error"
	KeptSlow    = "slow"
	KeptSampled = "sampled"
)

// Trace is one completed, summarized trace: the identifying and
// filtering fields the list endpoint serves, plus the tracer holding the
// full span tree.
type Trace struct {
	ID   string `json:"id"`
	Kind string `json:"kind"` // "request", "refresh", "mutate", ...
	View string `json:"view,omitempty"`
	// Params is the canonical parameter rendering of the request.
	Params     string    `json:"params,omitempty"`
	Start      time.Time `json:"start"`
	DurationMs float64   `json:"duration_ms"`
	Status     int       `json:"status,omitempty"`
	CacheState string    `json:"cache,omitempty"`
	Error      string    `json:"error,omitempty"`
	KeptReason string    `json:"kept,omitempty"`

	Duration time.Duration `json:"-"`
	Tracer   *obs.Tracer   `json:"-"`
}

// Store is the bounded ring of kept traces, newest overwriting oldest.
type Store struct {
	pol Policy

	mu   sync.Mutex
	buf  []*Trace // ring; len == capacity
	next int      // next write position
	n    int      // live entries
	byID map[string]*Trace
}

// New returns a store keeping at most capacity traces (capacity < 1 is
// raised to 1) under the given policy.
func New(capacity int, pol Policy) *Store {
	if capacity < 1 {
		capacity = 1
	}
	return &Store{
		pol:  pol,
		buf:  make([]*Trace, capacity),
		byID: make(map[string]*Trace, capacity),
	}
}

// Decide applies the tail-sampling policy to a completed trace's
// outcome without materializing it, returning the kept reason ("" to
// drop, also the answer on a nil store). It lets the serving hot path
// skip building the Trace record entirely for the overwhelming majority
// of traces that are dropped; a non-empty reason must be followed by
// Insert with the same reason.
func (s *Store) Decide(d time.Duration, hasError bool) string {
	if s == nil {
		return ""
	}
	metricSeen.Inc()
	if hasError {
		return KeptError
	}
	if s.pol.SlowThreshold > 0 && d >= s.pol.SlowThreshold {
		return KeptSlow
	}
	if s.pol.SampleRate > 0 {
		r := s.pol.Rand
		if r == nil {
			r = rand.Float64
		}
		if r() < s.pol.SampleRate {
			return KeptSampled
		}
	}
	return ""
}

// Insert retains a trace under the given kept reason (as returned by a
// non-empty Decide). The caller must not mutate the trace or its tracer
// afterwards.
func (s *Store) Insert(t *Trace, reason string) {
	if s == nil || t == nil || reason == "" {
		return
	}
	t.KeptReason = reason
	t.DurationMs = float64(t.Duration.Microseconds()) / 1000
	metricKept.Inc()

	s.mu.Lock()
	if old := s.buf[s.next]; old != nil {
		// Drop the evicted trace's index entry unless a newer trace
		// already claimed the same ID.
		if s.byID[old.ID] == old {
			delete(s.byID, old.ID)
		}
		metricEvicted.Inc()
	} else {
		s.n++
	}
	s.buf[s.next] = t
	s.next = (s.next + 1) % len(s.buf)
	s.byID[t.ID] = t
	s.mu.Unlock()
}

// Get returns the kept trace with the given ID.
func (s *Store) Get(id string) (*Trace, bool) {
	if s == nil {
		return nil, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.byID[id]
	return t, ok
}

// Len returns the number of kept traces currently retained.
func (s *Store) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// Filter selects traces for List. Zero values mean "no constraint";
// Limit <= 0 means no limit.
type Filter struct {
	View        string
	Kind        string
	MinDuration time.Duration
	ErrorsOnly  bool
	Limit       int
}

func (f Filter) match(t *Trace) bool {
	if f.View != "" && t.View != f.View {
		return false
	}
	if f.Kind != "" && t.Kind != f.Kind {
		return false
	}
	if t.Duration < f.MinDuration {
		return false
	}
	if f.ErrorsOnly && t.Error == "" {
		return false
	}
	return true
}

// List returns the kept traces matching the filter, newest first.
func (s *Store) List(f Filter) []*Trace {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Trace, 0, s.n)
	for i := 1; i <= s.n; i++ {
		// Walk backwards from the most recent write.
		t := s.buf[(s.next-i+len(s.buf))%len(s.buf)]
		if t == nil || !f.match(t) {
			continue
		}
		// A trace evicted from the index by an ID collision is stale:
		// skip it so List never shows an ID Get would resolve elsewhere.
		if s.byID[t.ID] != t {
			continue
		}
		out = append(out, t)
		if f.Limit > 0 && len(out) >= f.Limit {
			break
		}
	}
	return out
}
