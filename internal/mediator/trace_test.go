package mediator

import (
	"context"
	"regexp"
	"strings"
	"testing"

	"github.com/aigrepro/aig/internal/hospital"
	"github.com/aigrepro/aig/internal/obs"
)

// TestEvaluateTraceSpans checks the span structure of a traced
// evaluation: one root "evaluate" span whose direct children are exactly
// the four Fig. 5 phases in order, with every dependency-graph node
// execution traced under "execute" carrying estimates next to actuals.
func TestEvaluateTraceSpans(t *testing.T) {
	cat := hospital.TinyCatalog()
	a, reg := prepared(t, cat, 3, true)
	tr := obs.NewTracer()
	opts := DefaultOptions()
	opts.Tracer = tr
	m := New(reg, opts)
	res, err := m.Evaluate(a, hospital.RootInh(a, "d1"))
	if err != nil {
		t.Fatal(err)
	}

	root := tr.Root()
	if root == nil || root.Name() != "evaluate" {
		t.Fatalf("root span = %q, want evaluate", root.Name())
	}
	phases := tr.Children(root)
	want := []string{"compile", "optimize", "execute", "tag"}
	if len(phases) != len(want) {
		t.Fatalf("root has %d phase spans, want %d: %v", len(phases), len(want), names(phases))
	}
	for i, name := range want {
		if phases[i].Name() != name {
			t.Errorf("phase %d = %q, want %q", i, phases[i].Name(), name)
		}
	}
	for _, s := range tr.Spans() {
		if !s.Ended() {
			t.Errorf("span %q not ended", s.Name())
		}
	}

	nodes := tr.Children(phases[2])
	if len(nodes) != res.Report.NodeCount {
		t.Fatalf("execute has %d node spans, want one per graph node (%d)", len(nodes), res.Report.NodeCount)
	}
	rows := 0
	for _, s := range nodes {
		if !strings.HasPrefix(s.Name(), "node:") {
			t.Errorf("unexpected span %q under execute", s.Name())
		}
		for _, key := range []string{"source", "est_cost_sec", "est_out_bytes", "eval_sec", "wall_sec", "out_rows", "out_bytes"} {
			if _, ok := s.Attr(key); !ok {
				t.Errorf("node span %q missing attr %q", s.Name(), key)
			}
		}
		if v, ok := s.Attr("out_rows"); ok {
			rows += v.(int)
		}
	}
	if rows == 0 {
		t.Error("no node span recorded any output rows")
	}

	// The report carries the same phase structure as wall timings.
	for _, phase := range want {
		if _, ok := res.Report.PhaseSec[phase]; !ok {
			t.Errorf("Report.PhaseSec missing phase %q", phase)
		}
	}
	if res.Report.WallSec <= 0 {
		t.Error("Report.WallSec not measured")
	}

	// The JSON export must carry the phase tree.
	var b strings.Builder
	if err := tr.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	for _, name := range append([]string{"evaluate"}, want...) {
		if !strings.Contains(b.String(), `"name": "`+name+`"`) {
			t.Errorf("trace JSON missing span %q", name)
		}
	}
}

// TestTracingDisabledByDefault ensures an untraced evaluation records
// nothing and still fills the report's wall timings.
func TestTracingDisabledByDefault(t *testing.T) {
	cat := hospital.TinyCatalog()
	a, reg := prepared(t, cat, 2, true)
	m := New(reg, DefaultOptions())
	res, err := m.Evaluate(a, hospital.RootInh(a, "d1"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Report.PhaseSec) != 4 {
		t.Errorf("PhaseSec = %v, want the four phases", res.Report.PhaseSec)
	}
}

// TestExplainAnalyze runs the runtime EXPLAIN on the hospital example and
// checks that measured actuals and estimation errors render next to the
// estimates.
func TestExplainAnalyze(t *testing.T) {
	cat := hospital.TinyCatalog()
	a, reg := prepared(t, cat, 3, true)
	m := New(reg, DefaultOptions())
	out, res, err := m.ExplainAnalyze(a, hospital.RootInh(a, "d1"))
	if err != nil {
		t.Fatal(err)
	}
	if res == nil || res.Doc == nil {
		t.Fatal("ExplainAnalyze did not return the evaluated document")
	}
	for _, want := range []string{
		"dependency graph:", "estimated response time:", "measured response time:",
		"wall time:", "compile", "optimize", "execute", "tag",
		"actual", "rows", "bytes err", "shipped",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("ExplainAnalyze output missing %q:\n%s", want, out)
		}
	}
	// Every query-node header line shows estimate and actual side by side.
	headers := 0
	for _, line := range strings.Split(out, "\n") {
		if !nodeHeaderRe.MatchString(line) {
			continue
		}
		headers++
		if !strings.Contains(line, "(est ") || !strings.Contains(line, "actual") {
			t.Errorf("plan line lacks estimate or actuals: %q", line)
		}
	}
	if headers == 0 {
		t.Fatalf("no query-node lines rendered:\n%s", out)
	}
	// The document is the same one Evaluate produces.
	ref, err := m.Evaluate(a, hospital.RootInh(a, "d1"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Doc.CountNodes() != ref.Doc.CountNodes() {
		t.Errorf("ExplainAnalyze document differs: %d vs %d nodes", res.Doc.CountNodes(), ref.Doc.CountNodes())
	}
}

// TestExplainSharedRenderer checks the unified part rendering: merged
// nodes (items) and plain nodes (parts) print each query exactly once.
func TestExplainSharedRenderer(t *testing.T) {
	cat := hospital.TinyCatalog()
	a, reg := prepared(t, cat, 3, true)
	m := New(reg, DefaultOptions())
	out, err := m.Explain(a)
	if err != nil {
		t.Fatal(err)
	}
	// Each query part renders exactly once, whether its node was merged
	// (items) or not (parts) — the old renderer had two overlapping
	// branches. Rebuild the same (deterministic) optimized graph and
	// count.
	g, err := compile(context.Background(), a, reg, m.opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	g.mergeQueries()
	wantParts := 0
	for _, n := range g.nodes {
		wantParts += len(queryParts(n))
	}
	queries := 0
	for _, l := range strings.Split(out, "\n") {
		trimmed := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(l), "part: "))
		if strings.HasPrefix(trimmed, "select ") {
			queries++
		}
	}
	if queries != wantParts {
		t.Errorf("rendered %d query lines, graph has %d parts:\n%s", queries, wantParts, out)
	}
}

// nodeHeaderRe matches the per-node plan lines ("  1. name (est ...").
var nodeHeaderRe = regexp.MustCompile(`^\s+\d+\. `)

func names(spans []*obs.Span) []string {
	out := make([]string, len(spans))
	for i, s := range spans {
		out[i] = s.Name()
	}
	return out
}
