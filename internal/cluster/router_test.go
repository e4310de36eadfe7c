package cluster

import (
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/aigrepro/aig/internal/obs"
)

func TestRingDeterministicAndComplete(t *testing.T) {
	members := []string{"http://a", "http://b", "http://c"}
	r1 := newRing(members)
	r2 := newRing([]string{"http://c", "http://b", "http://a", "http://a"})

	for _, key := range []string{"/views/report?date=d1", "/views/report?date=d2", "x"} {
		s1, s2 := r1.seq(key), r2.seq(key)
		if len(s1) != 3 {
			t.Fatalf("seq(%q) = %v, want all 3 members", key, s1)
		}
		if fmt.Sprint(s1) != fmt.Sprint(s2) {
			t.Fatalf("ring not a pure function of membership: %v vs %v", s1, s2)
		}
		seen := map[string]bool{}
		for _, m := range s1 {
			seen[m] = true
		}
		if len(seen) != 3 {
			t.Fatalf("seq(%q) repeats members: %v", key, s1)
		}
	}
}

func TestRingBalanceAndChurn(t *testing.T) {
	members := []string{"http://a", "http://b", "http://c", "http://d"}
	r := newRing(members)
	counts := map[string]int{}
	const keys = 4000
	for i := 0; i < keys; i++ {
		counts[r.seq(fmt.Sprintf("/views/report?date=d%d", i))[0]]++
	}
	for m, c := range counts {
		if frac := float64(c) / keys; math.Abs(frac-0.25) > 0.10 {
			t.Fatalf("member %s owns %.1f%% of keys, want 25%%±10", m, 100*frac)
		}
	}

	// Removing one member must remap only that member's keys: every key
	// whose home survives keeps it (the whole point of consistency).
	smaller := newRing(members[:3])
	moved := 0
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("/views/report?date=d%d", i)
		before := r.seq(key)[0]
		after := smaller.seq(key)[0]
		if before == "http://d" {
			moved++
			continue
		}
		if before != after {
			t.Fatalf("key %q moved from surviving member %s to %s", key, before, after)
		}
	}
	if moved == 0 {
		t.Fatal("no keys were homed on the removed member")
	}
}

func TestRouteKeyCanonicalizesQuery(t *testing.T) {
	mk := func(raw string) *http.Request {
		u, err := url.Parse(raw)
		if err != nil {
			t.Fatal(err)
		}
		return &http.Request{URL: u}
	}
	a := routeKey(mk("/views/report?a=1&b=2"))
	b := routeKey(mk("/views/report?b=2&a=1"))
	if a != b {
		t.Fatalf("query order changed the route key: %q vs %q", a, b)
	}
	if c := routeKey(mk("/views/report?a=2&b=2")); c == a {
		t.Fatal("different parameter values share a route key")
	}
}

// echoReplica is a stand-in aigd: records hits, optionally fails.
type echoReplica struct {
	name   string
	hits   atomic.Int64
	fail   atomic.Bool // 503 every request
	dead   atomic.Bool // connection-level failure (hijack+close)
	drain  atomic.Bool // healthz 503, requests fine
	server *httptest.Server
}

func newEchoReplica(t *testing.T, name string) *echoReplica {
	e := &echoReplica{name: name}
	e.server = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			if e.drain.Load() || e.fail.Load() || e.dead.Load() {
				http.Error(w, "not ready", http.StatusServiceUnavailable)
				return
			}
			fmt.Fprintln(w, "ok")
			return
		}
		if e.dead.Load() {
			c, _, err := w.(http.Hijacker).Hijack()
			if err == nil {
				c.Close()
			}
			return
		}
		if e.fail.Load() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		e.hits.Add(1)
		w.Header().Set("X-Replica", e.name)
		if tp := r.Header.Get("Traceparent"); tp != "" {
			w.Header().Set("X-Echoed-Traceparent", tp)
		}
		body, _ := io.ReadAll(r.Body)
		fmt.Fprintf(w, "%s:%s %s %s", e.name, r.Method, r.URL.RequestURI(), body)
	}))
	t.Cleanup(e.server.Close)
	return e
}

func testRouter(t *testing.T, cfg RouterConfig, reps ...*echoReplica) (*Router, *httptest.Server, *obs.Registry) {
	t.Helper()
	for _, e := range reps {
		cfg.Replicas = append(cfg.Replicas, e.server.URL)
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.DiscardHandler)
	}
	if cfg.HealthInterval == 0 {
		cfg.HealthInterval = 20 * time.Millisecond
	}
	rt, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)
	return rt, ts, cfg.Metrics
}

func get(t *testing.T, url string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(body)
}

func TestRouterAffinityAndSpread(t *testing.T) {
	a, b, c := newEchoReplica(t, "a"), newEchoReplica(t, "b"), newEchoReplica(t, "c")
	_, ts, _ := testRouter(t, RouterConfig{LoadBound: -1}, a, b, c)

	// The same key always lands on the same replica (cache affinity)...
	var home string
	for i := 0; i < 10; i++ {
		resp, _ := get(t, ts.URL+"/views/report?date=d1")
		if home == "" {
			home = resp.Header.Get("X-Replica")
		} else if got := resp.Header.Get("X-Replica"); got != home {
			t.Fatalf("key moved from %s to %s with stable membership", home, got)
		}
	}
	// ...while distinct keys spread over the fleet.
	seen := map[string]bool{}
	for i := 0; i < 60; i++ {
		resp, _ := get(t, fmt.Sprintf("%s/views/report?date=d%d", ts.URL, i))
		seen[resp.Header.Get("X-Replica")] = true
	}
	if len(seen) != 3 {
		t.Fatalf("60 distinct keys reached only %d of 3 replicas", len(seen))
	}
}

func TestRouterRetriesOnFailure(t *testing.T) {
	a, b := newEchoReplica(t, "a"), newEchoReplica(t, "b")
	_, ts, metrics := testRouter(t, RouterConfig{}, a, b)

	// Find a key homed on a, then kill a at the connection level: the
	// request must transparently fail over to b.
	var key string
	for i := 0; ; i++ {
		key = fmt.Sprintf("/views/report?date=k%d", i)
		resp, _ := get(t, ts.URL+key)
		if resp.Header.Get("X-Replica") == "a" {
			break
		}
	}
	a.dead.Store(true)
	resp, body := get(t, ts.URL+key)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Replica") != "b" {
		t.Fatalf("failover request = %d %q via %q, want 200 via b", resp.StatusCode, body, resp.Header.Get("X-Replica"))
	}
	if metrics.NewCounter("aig_router_retries_total", "").Value() == 0 {
		t.Fatal("failover did not count a retry")
	}

	// 503 from a replica (draining) is retryable the same way.
	a.dead.Store(false)
	a.fail.Store(true)
	if resp, _ := get(t, ts.URL+key); resp.StatusCode != http.StatusOK || resp.Header.Get("X-Replica") != "b" {
		t.Fatalf("503 failover went to %q with status %d", resp.Header.Get("X-Replica"), resp.StatusCode)
	}

	// Every replica answering 503: the last upstream response passes
	// through (its status and Retry-After are more useful to the client
	// than a synthetic error).
	b.fail.Store(true)
	resp, body = get(t, ts.URL+key)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("all-503 request = %d %q, want the upstream 503 passed through", resp.StatusCode, body)
	}

	// No replica reachable at all: a clean 502 naming the last error,
	// not a hang.
	a.dead.Store(true)
	b.dead.Store(true)
	resp, body = get(t, ts.URL+key)
	if resp.StatusCode != http.StatusBadGateway || !strings.Contains(body, "no replica available") {
		t.Fatalf("all-dead request = %d %q, want 502 no replica available", resp.StatusCode, body)
	}
}

func TestRouterHealthProbesSteerTraffic(t *testing.T) {
	a, b := newEchoReplica(t, "a"), newEchoReplica(t, "b")
	rt, ts, _ := testRouter(t, RouterConfig{}, a, b)

	a.drain.Store(true) // healthz 503; proxied requests would still work
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if !rt.replicas[a.server.URL].healthy.Load() {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if rt.replicas[a.server.URL].healthy.Load() {
		t.Fatal("prober never marked the draining replica unhealthy")
	}

	// All keys now route to b without burning a retry on a.
	before := a.hits.Load()
	for i := 0; i < 20; i++ {
		resp, _ := get(t, fmt.Sprintf("%s/views/report?date=h%d", ts.URL, i))
		if got := resp.Header.Get("X-Replica"); got != "b" {
			t.Fatalf("request %d served by %q while a is unhealthy", i, got)
		}
	}
	if a.hits.Load() != before {
		t.Fatal("unhealthy replica still received proxied requests")
	}

	// The fleet endpoint stays up on one healthy replica, and /replicas
	// reports the split.
	if resp, _ := get(t, ts.URL+"/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("router healthz = %d with one healthy replica", resp.StatusCode)
	}
	_, body := get(t, ts.URL+"/replicas")
	if !strings.Contains(body, `"healthy":false`) || !strings.Contains(body, `"healthy":true`) {
		t.Fatalf("/replicas does not show the health split: %s", body)
	}

	a.drain.Store(false)
	deadline = time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && !rt.replicas[a.server.URL].healthy.Load() {
		time.Sleep(5 * time.Millisecond)
	}
	if !rt.replicas[a.server.URL].healthy.Load() {
		t.Fatal("prober never recovered the replica")
	}
}

func TestRouterPassesTraceparentAndBody(t *testing.T) {
	a := newEchoReplica(t, "a")
	_, ts, _ := testRouter(t, RouterConfig{}, a)

	req, err := http.NewRequest("POST", ts.URL+"/mutate", strings.NewReader(`{"op":"insert"}`))
	if err != nil {
		t.Fatal(err)
	}
	const tp = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	req.Header.Set("Traceparent", tp)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if got := resp.Header.Get("X-Echoed-Traceparent"); got != tp {
		t.Fatalf("Traceparent did not pass through: %q", got)
	}
	if !strings.Contains(string(body), `{"op":"insert"}`) {
		t.Fatalf("request body did not pass through: %s", body)
	}
}
