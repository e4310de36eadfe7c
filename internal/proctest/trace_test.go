//go:build integration

package proctest_test

import (
	"encoding/json"
	"net/url"
	"sort"
	"strings"
	"testing"

	"github.com/aigrepro/aig/internal/proctest"
)

// TestTrace checks request tracing end to end in two phases.
//
//  1. Under the race detector, aigd (flight recorder on, every trace kept)
//     evaluates with DB1 behind an aigsource over TCP. A kept cache-miss
//     trace must stitch the daemon's spans (request, evaluate, node:*,
//     call:DB1.*) with the ones the source shipped back (rpc:*,
//     scan:DB1.*), and both processes must exit 0 — a race report would
//     not.
//  2. Warm-path throughput with the recorder on but sampling off must
//     stay within 5 % of the recorder-off daemon, measured back to back.
func TestTrace(t *testing.T) {
	t.Run("stitched", testTraceStitched)
	t.Run("overhead", testTraceOverhead)
}

func testTraceStitched(t *testing.T) {
	aigd, aigsource := proctest.Build(t, "aigd", true), proctest.Build(t, "aigsource", true)
	data, db1 := tinyData(t)
	srcAddr, addr := proctest.FreeAddr(t), proctest.FreeAddr(t)
	base := "http://" + addr

	src := start(t, proctest.TCPReady(srcAddr), aigsource, "-name", "DB1", "-data", db1, "-listen", srcAddr)
	d := start(t, proctest.HTTPReady(base), aigd, "-addr", addr,
		"-view", "report="+specFile(t), "-data", data, "-source", "DB1="+srcAddr,
		"-trace", "-trace-sample", "1", "-debug", "-log-format", "json")

	var urls []string
	for _, date := range []string{"d001", "d002", "d003"} {
		urls = append(urls, base+"/views/report?date="+date)
	}
	checkLoad(t, "traced load", proctest.Load{URLs: urls, Workers: 4, Requests: 200, Traceparent: true}.Run())

	var list struct {
		Traces []struct {
			ID         string  `json:"id"`
			DurationMs float64 `json:"duration_ms"`
			Cache      string  `json:"cache"`
		} `json:"traces"`
	}
	body := get(t, base+"/debug/traces?"+url.Values{"view": {"report"}, "limit": {"1000"}}.Encode()).Body
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatalf("/debug/traces: %v", err)
	}
	sort.Slice(list.Traces, func(i, j int) bool { return list.Traces[i].DurationMs > list.Traces[j].DurationMs })
	missID := ""
	for i, tr := range list.Traces {
		if i < 3 {
			t.Logf("slow kept trace %s: %.2f ms, cache %s", tr.ID, tr.DurationMs, tr.Cache)
		}
		if missID == "" && tr.Cache == "miss" {
			missID = tr.ID
		}
	}
	// Hits never reach the mediator: only a miss carries evaluation and
	// remote spans.
	if missID == "" {
		t.Fatal("no kept cache-miss trace at /debug/traces")
	}
	tree := string(get(t, base+"/debug/traces/"+missID+"?format=text").Body)
	for _, span := range []string{"request", "evaluate", "node:", "call:DB1.", "rpc:", "scan:DB1."} {
		if !strings.Contains(tree, span) {
			t.Fatalf("trace %s lacks span %q:\n%s", missID, span, tree)
		}
	}
	get(t, base+"/debug/vars")
	if !contains(get(t, base+"/metrics").Body, "trace_id=") {
		t.Fatal("no exemplar on /metrics")
	}
	stop(t, d)
	stop(t, src)
}

// testTraceOverhead boots one daemon per mode and keeps each side's best
// of five warmed-up reps: a fresh process spends its first runs growing
// the heap, and throughput on one machine drifts ±10 % run to run, more
// than the 5 % this guard is after. The two sides' reps alternate, so a
// drift in the host's load falls on both. A miss is measured once more,
// on freshly booted daemons, before it fails the test.
func testTraceOverhead(t *testing.T) {
	const (
		tolerance = 0.95
		reps      = 5
		requests  = 20000
	)
	aigd := proctest.Build(t, "aigd", false)
	boot := func(flags ...string) (*proctest.Proc, []string) {
		addr := proctest.FreeAddr(t)
		base := "http://" + addr
		d := start(t, proctest.HTTPReady(base), aigd, append([]string{"-demo", "-addr", addr}, flags...)...)
		urls := []string{base + "/views/report?date=d1"}
		checkLoad(t, "warm-up", proctest.Load{URLs: urls, Workers: 8, Requests: 2000}.Run())
		return d, urls
	}
	rep := func(urls []string) float64 {
		r := proctest.Load{URLs: urls, Workers: 8, Requests: requests}.Run()
		if !r.AllOK() {
			t.Fatalf("measured rep: statuses %v (0: no answer)", r.Statuses)
		}
		return r.Throughput()
	}
	measure := func() float64 {
		dOff, off := boot()
		dOn, on := boot("-trace", "-trace-sample", "0", "-trace-slow", "0")
		bestOff, bestOn := 0.0, 0.0
		for i := 0; i < reps; i++ {
			bestOff, bestOn = max(bestOff, rep(off)), max(bestOn, rep(on))
		}
		stop(t, dOff)
		stop(t, dOn)
		ratio := bestOn / bestOff
		t.Logf("throughput: recorder off %.0f req/s, recorder on (sampling off) %.0f req/s, ratio %.3f", bestOff, bestOn, ratio)
		return ratio
	}
	ratio := measure()
	if ratio < tolerance {
		t.Logf("ratio %.3f < %.2f; measuring once more", ratio, tolerance)
		ratio = measure()
	}
	if ratio < tolerance {
		t.Fatalf("tracing overhead too high: ratio %.3f < %.2f", ratio, tolerance)
	}
}
