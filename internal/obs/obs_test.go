package obs

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestSpanNesting(t *testing.T) {
	tr := NewTracer()
	root := tr.StartSpan("evaluate", nil)
	a := tr.StartSpan("compile", root)
	a.End()
	b := tr.StartSpan("execute", root)
	leaf := tr.StartSpan("node:q1", b).SetAttr("rows", 7)
	leaf.End()
	b.End()
	root.End()

	if got := tr.Root(); got != root {
		t.Fatalf("Root() = %v, want the evaluate span", got.Name())
	}
	kids := tr.Children(root)
	if len(kids) != 2 || kids[0].Name() != "compile" || kids[1].Name() != "execute" {
		t.Fatalf("root children = %v", spanNames(kids))
	}
	grand := tr.Children(b)
	if len(grand) != 1 || grand[0].Name() != "node:q1" {
		t.Fatalf("execute children = %v", spanNames(grand))
	}
	if v, ok := grand[0].Attr("rows"); !ok || v != 7 {
		t.Fatalf("rows attr = %v, %v", v, ok)
	}
	for _, s := range tr.Spans() {
		if !s.Ended() {
			t.Errorf("span %s not ended", s.Name())
		}
		if s.Duration() < 0 {
			t.Errorf("span %s has negative duration", s.Name())
		}
	}
}

func TestSpanMonotonicDuration(t *testing.T) {
	tr := NewTracer()
	s := tr.StartSpan("tick", nil)
	time.Sleep(2 * time.Millisecond)
	s.End()
	if d := s.Duration(); d < time.Millisecond {
		t.Fatalf("duration %v, want >= 1ms", d)
	}
	end := s.Duration()
	s.End() // second End must not move the end time
	if s.Duration() != end {
		t.Fatal("End is not idempotent")
	}
}

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	s := tr.StartSpan("anything", nil)
	if s != nil {
		t.Fatal("nil tracer handed out a span")
	}
	// All span methods must accept the nil span.
	s.SetAttr("k", 1)
	s.End()
	if s.Ended() || s.Duration() != 0 || s.Name() != "" {
		t.Fatal("nil span misbehaves")
	}
	if _, ok := s.Attr("k"); ok {
		t.Fatal("nil span has attrs")
	}
	var b strings.Builder
	if err := tr.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(b.String()) != "[]" {
		t.Fatalf("nil tracer JSON = %q", b.String())
	}
}

func TestTraceJSONExport(t *testing.T) {
	tr := NewTracer()
	root := tr.StartSpan("evaluate", nil)
	c := tr.StartSpan("compile", root)
	c.SetAttr("nodes", 12)
	c.End()
	root.End()

	var b strings.Builder
	if err := tr.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var out []struct {
		Name     string         `json:"name"`
		Parent   int            `json:"parent"`
		Attrs    map[string]any `json:"attrs"`
		Children []struct {
			Name  string         `json:"name"`
			Attrs map[string]any `json:"attrs"`
		} `json:"children"`
	}
	if err := json.Unmarshal([]byte(b.String()), &out); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, b.String())
	}
	if len(out) != 1 || out[0].Name != "evaluate" || out[0].Parent != -1 {
		t.Fatalf("unexpected root: %+v", out)
	}
	if len(out[0].Children) != 1 || out[0].Children[0].Name != "compile" {
		t.Fatalf("unexpected children: %+v", out[0].Children)
	}
	if got := out[0].Children[0].Attrs["nodes"]; got != float64(12) {
		t.Fatalf("nodes attr = %v", got)
	}
}

func TestPrometheusExport(t *testing.T) {
	r := NewRegistry()
	q := r.NewCounter("test_queries_total", "queries executed")
	q.Add(3)
	q.Inc()
	g := r.NewGauge("test_depth", "current unfold depth")
	g.Set(4.5)
	h := r.NewHistogram("test_latency_seconds", "round-trip latency", []float64{0.01, 0.1})
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(2)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	want := strings.Join([]string{
		"# HELP test_queries_total queries executed",
		"# TYPE test_queries_total counter",
		"test_queries_total 4",
		"# HELP test_depth current unfold depth",
		"# TYPE test_depth gauge",
		"test_depth 4.5",
		"# HELP test_latency_seconds round-trip latency",
		"# TYPE test_latency_seconds histogram",
		`test_latency_seconds_bucket{le="0.01"} 1`,
		`test_latency_seconds_bucket{le="0.1"} 2`,
		`test_latency_seconds_bucket{le="+Inf"} 3`,
		"test_latency_seconds_sum 2.055",
		"test_latency_seconds_count 3",
		"",
	}, "\n")
	if got != want {
		t.Errorf("Prometheus export mismatch:\n got:\n%s\nwant:\n%s", got, want)
	}
}

func TestNilRegistryAndInstruments(t *testing.T) {
	var r *Registry
	c := r.NewCounter("x", "")
	c.Add(5)
	c.Inc()
	if c.Value() != 0 {
		t.Fatal("nil counter counted")
	}
	g := r.NewGauge("y", "")
	g.Set(1)
	if g.Value() != 0 {
		t.Fatal("nil gauge stored")
	}
	h := r.NewHistogram("z", "", DurationBuckets)
	h.Observe(1)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil histogram observed")
	}
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
}

func TestRegistryReusesInstruments(t *testing.T) {
	r := NewRegistry()
	a := r.NewCounter("same_total", "")
	b := r.NewCounter("same_total", "")
	if a != b {
		t.Fatal("same name produced two counters")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Fatal("counter not shared")
	}
}

// TestDurationBucketsLadder pins the latency ladder: bounds ascend from
// 50 µs to 60 s with adjacent bounds at most 2.5× apart, and a histogram
// over it exports one bucket line per bound plus +Inf.
func TestDurationBucketsLadder(t *testing.T) {
	b := DurationBuckets
	if b[0] != 50e-6 || b[len(b)-1] != 60 {
		t.Fatalf("ladder spans %g..%g s, want 5e-05..60", b[0], b[len(b)-1])
	}
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] || b[i] > 2.5*b[i-1]*(1+1e-9) {
			t.Errorf("bounds %g, %g: not ascending within 2.5x", b[i-1], b[i])
		}
	}
	r := NewRegistry()
	r.NewHistogram("lat_seconds", "", b).Observe(0.003)
	var out strings.Builder
	if err := r.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(out.String(), "lat_seconds_bucket{"); n != len(b)+1 {
		t.Errorf("%d bucket lines, want %d:\n%s", n, len(b)+1, out.String())
	}
}

func spanNames(spans []*Span) []string {
	out := make([]string, len(spans))
	for i, s := range spans {
		out[i] = s.Name()
	}
	return out
}
