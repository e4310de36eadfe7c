package obs

import (
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"
)

// Registry holds named metric instruments and renders them in Prometheus
// text format or as JSON. Instruments are created through the registry
// and keep counting for its lifetime; creation is cheap but not meant for
// hot paths — create instruments once at package init or setup time.
//
// A nil *Registry hands out nil instruments, and every instrument method
// is a no-op on a nil receiver, so metrics can be compiled in
// unconditionally and disabled by construction.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Default is the process-wide registry the instrumented packages
// (source, sqlmini, relstore, remote) register into. It is always live:
// the instruments are single atomic words, cheap enough to keep counting
// whether or not anything ever exports them.
var Default = NewRegistry()

// Counter is a monotonically increasing integer metric.
type Counter struct {
	name, help string
	v          atomic.Int64
}

// NewCounter returns the registry's counter with the given name, creating
// it if needed.
func (r *Registry) NewCounter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	c := &Counter{name: name, help: help}
	r.counters[name] = c
	return c
}

// Add increments the counter by n (negative n is ignored).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float metric that can go up and down.
type Gauge struct {
	name, help string
	bits       atomic.Uint64
}

// NewGauge returns the registry's gauge with the given name, creating it
// if needed.
func (r *Registry) NewGauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	g := &Gauge{name: name, help: help}
	r.gauges[name] = g
	return g
}

// Set stores the gauge's value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the gauge's value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a cumulative-bucket histogram over float observations
// (Prometheus semantics: each bucket counts observations <= its bound,
// plus an implicit +Inf bucket).
type Histogram struct {
	name, help string
	bounds     []float64

	mu     sync.Mutex
	counts []uint64 // len(bounds)+1; last is +Inf
	sum    float64
	count  uint64
	// exemplars holds, per bucket, the latest observation that carried a
	// trace ID (nil until the first ObserveExemplar), so a latency bucket
	// links to a concrete captured trace in the flight recorder.
	exemplars []exemplar
}

// exemplar is one bucket's reference observation: the trace it came
// from and its exact value.
type exemplar struct {
	traceID string
	value   float64
}

// DurationBuckets is a 1-2-5 ladder from 50 µs to 60 s suited to query,
// request and round-trip latencies, in seconds: adjacent bounds are at
// most 2.5× apart, so a quantile read off the buckets lands within one
// step of the true value.
var DurationBuckets = []float64{
	0.00005, 0.0001, 0.0002, 0.0005,
	0.001, 0.002, 0.005, 0.01, 0.02, 0.05,
	0.1, 0.2, 0.5, 1, 2, 5, 10, 20, 50, 60,
}

// NewHistogram returns the registry's histogram with the given name,
// creating it with the given bucket upper bounds (must be sorted
// ascending) if needed.
func (r *Registry) NewHistogram(name, help string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.histograms[name]; ok {
		return h
	}
	h := &Histogram{
		name:   name,
		help:   help,
		bounds: append([]float64(nil), bounds...),
		counts: make([]uint64, len(bounds)+1),
	}
	r.histograms[name] = h
	return h
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	h.observe(v, "")
}

// ObserveExemplar records one observation and remembers the trace it
// came from as the bucket's exemplar, replacing any previous one. An
// empty traceID degrades to a plain Observe.
func (h *Histogram) ObserveExemplar(v float64, traceID string) {
	h.observe(v, traceID)
}

func (h *Histogram) observe(v float64, traceID string) {
	if h == nil {
		return
	}
	h.mu.Lock()
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i]++
	h.sum += v
	h.count++
	if traceID != "" {
		if h.exemplars == nil {
			h.exemplars = make([]exemplar, len(h.counts))
		}
		h.exemplars[i] = exemplar{traceID: traceID, value: v}
	}
	h.mu.Unlock()
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the sum of observations (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// snapshot returns cumulative bucket counts, sum, count and the
// per-bucket exemplars (nil when none were ever recorded).
func (h *Histogram) snapshot() (cum []uint64, sum float64, count uint64, ex []exemplar) {
	h.mu.Lock()
	defer h.mu.Unlock()
	cum = make([]uint64, len(h.counts))
	running := uint64(0)
	for i, c := range h.counts {
		running += c
		cum[i] = running
	}
	if h.exemplars != nil {
		ex = append([]exemplar(nil), h.exemplars...)
	}
	return cum, h.sum, h.count, ex
}

// exemplarSuffix renders bucket i's exemplar in the OpenMetrics form
// (` # {trace_id="..."} value`), or "" when the bucket has none.
func exemplarSuffix(ex []exemplar, i int) string {
	if i >= len(ex) || ex[i].traceID == "" {
		return ""
	}
	return fmt.Sprintf(" # {trace_id=%q} %v", ex[i].traceID, ex[i].value)
}

// WritePrometheus renders every instrument in the Prometheus text
// exposition format: counters, then gauges, then histograms, each group
// sorted by metric name.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	histograms := make(map[string]*Histogram, len(r.histograms))
	for k, v := range r.histograms {
		histograms[k] = v
	}
	r.mu.Unlock()

	for _, name := range sortedKeys(counters) {
		c := counters[name]
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n",
			name, c.help, name, name, c.Value()); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(gauges) {
		g := gauges[name]
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %v\n",
			name, g.help, name, name, g.Value()); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(histograms) {
		h := histograms[name]
		cum, sum, count, ex := h.snapshot()
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, h.help, name); err != nil {
			return err
		}
		for i, b := range h.bounds {
			if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%v\"} %d%s\n", name, b, cum[i], exemplarSuffix(ex, i)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d%s\n%s_sum %v\n%s_count %d\n",
			name, cum[len(cum)-1], exemplarSuffix(ex, len(cum)-1), name, sum, name, count); err != nil {
			return err
		}
	}
	return nil
}
