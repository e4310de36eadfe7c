package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/aigrepro/aig/internal/aigspec"
	"github.com/aigrepro/aig/internal/hospital"
	"github.com/aigrepro/aig/internal/obs"
	"github.com/aigrepro/aig/internal/relstore"
	"github.com/aigrepro/aig/internal/source"
	"github.com/aigrepro/aig/internal/sqlmini"
)

// gatedSource wraps a source so that every Exec blocks until the gate
// channel is closed — the deterministic way to hold an evaluation in
// flight while a test lines up concurrent requests behind it.
type gatedSource struct {
	source.Source
	gate chan struct{}
}

func (g *gatedSource) Exec(ctx context.Context, name string, q *sqlmini.Query, params sqlmini.Params, opts sqlmini.PlanOptions) (*relstore.Table, time.Duration, error) {
	<-g.gate
	return g.Source.Exec(ctx, name, q, params, opts)
}

// TableData gates the direct-read route the partial evaluator uses, so
// fragment evaluations block on the same gate as full ones.
func (g *gatedSource) TableData(table string) (*relstore.Table, error) {
	<-g.gate
	return g.Source.(source.TableDataProvider).TableData(table)
}

// testServer builds a hospital-view server over TinyCatalog with a
// private metrics registry. gateDB1, when non-nil, gates DB1's Exec.
func testServer(t *testing.T, cfg Config, gateDB1 chan struct{}) (*Server, *httptest.Server, *relstore.Catalog, *obs.Registry) {
	t.Helper()
	cat := hospital.TinyCatalog()
	reg := source.NewRegistry()
	for _, name := range cat.DatabaseNames() {
		db, err := cat.Database(name)
		if err != nil {
			t.Fatal(err)
		}
		var src source.Source = source.NewLocal(db)
		if gateDB1 != nil && name == "DB1" {
			src = &gatedSource{Source: src, gate: gateDB1}
		}
		reg.Add(src)
	}
	metrics := obs.NewRegistry()
	cfg.Metrics = metrics
	s := NewServer(reg, cfg)
	if _, err := s.AddSpec("report", hospital.SpecText); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts, cat, metrics
}

// get fetches a URL, returning status, body and the X-Aig-Cache header.
func get(t *testing.T, url string) (int, string, string) {
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
	return resp.StatusCode, string(body), resp.Header.Get("X-Aig-Cache")
}

// counter reads a counter from the test's private registry.
func counter(reg *obs.Registry, name string) int64 {
	return reg.NewCounter(name, "").Value()
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestServeViewAndCacheHit(t *testing.T) {
	_, ts, _, metrics := testServer(t, Config{}, nil)

	code, body1, state1 := get(t, ts.URL+"/views/report?date=d1")
	if code != http.StatusOK {
		t.Fatalf("status %d, body %s", code, body1)
	}
	if state1 != "miss" {
		t.Fatalf("first request cache state %q, want miss", state1)
	}
	for _, want := range []string{"<report>", "<SSN>s1</SSN>", "alice", "<price>100</price>"} {
		if !strings.Contains(body1, want) {
			t.Fatalf("body missing %q:\n%s", want, body1)
		}
	}

	code, body2, state2 := get(t, ts.URL+"/views/report?date=d1")
	if code != http.StatusOK || state2 != "hit" {
		t.Fatalf("repeat request: status %d, cache state %q, want 200/hit", code, state2)
	}
	if body1 != body2 {
		t.Fatal("cache hit returned a different document")
	}
	if h, m := counter(metrics, "aig_serve_cache_hits_total"), counter(metrics, "aig_serve_cache_misses_total"); h != 1 || m != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", h, m)
	}
	if n := counter(metrics, "aig_serve_evaluations_total"); n != 1 {
		t.Fatalf("evaluations=%d, want 1", n)
	}

	// A different parameter binding is its own cache entry.
	code, body3, state3 := get(t, ts.URL+"/views/report?date=d2")
	if code != http.StatusOK || state3 != "miss" {
		t.Fatalf("d2 request: status %d, cache state %q", code, state3)
	}
	if body3 == body1 {
		t.Fatal("d1 and d2 reports are identical")
	}
}

func TestCacheInvalidationOnSourceMutation(t *testing.T) {
	_, ts, cat, metrics := testServer(t, Config{}, nil)

	_, body1, _ := get(t, ts.URL+"/views/report?date=d1")
	if _, _, state := get(t, ts.URL+"/views/report?date=d1"); state != "hit" {
		t.Fatalf("warm request state %q, want hit", state)
	}

	// The test hook: mutate a source the view reads. Alice (gold) gets a
	// t3 visit on d1; gold covers t3, so her treatments and bill grow.
	visit, err := cat.Table("DB1", "visitInfo")
	if err != nil {
		t.Fatal(err)
	}
	if err := visit.InsertValues("s1", "t3", "d1"); err != nil {
		t.Fatal(err)
	}

	code, body2, state := get(t, ts.URL+"/views/report?date=d1")
	if code != http.StatusOK {
		t.Fatalf("post-mutation status %d", code)
	}
	if state != "miss" {
		t.Fatalf("post-mutation cache state %q, want miss (stale entry must not be hit)", state)
	}
	if body2 == body1 {
		t.Fatal("document unchanged after source mutation")
	}
	// Bob and carol already had t3 ("cast") visits on d1; the mutation
	// adds alice's, so exactly one more cast treatment is reported.
	if got, want := strings.Count(body2, "<tname>cast</tname>"), strings.Count(body1, "<tname>cast</tname>")+1; got != want {
		t.Fatalf("mutated report has %d cast treatments, want %d:\n%s", got, want, body2)
	}
	if n := counter(metrics, "aig_serve_evaluations_total"); n != 2 {
		t.Fatalf("evaluations=%d, want 2 (one per data version)", n)
	}
}

// TestWriteDuringEvaluationSkipsCache: a write landing inside the
// evaluation moves the stamp, so cacheFill serves the result but caches
// neither the document nor the fragment, and counts each skip.
func TestWriteDuringEvaluationSkipsCache(t *testing.T) {
	s, _, cat, metrics := testServer(t, Config{}, nil)
	v := s.View("report")
	params := map[string]string{"date": "d1"}
	visit := tableOf(t, cat, "DB1", "visitInfo")
	for i, tc := range []struct{ name, path string }{{"document", ""}, {"fragment", "//patient/SSN"}} {
		tg, err := s.target(v, params, canonicalParams(params), tc.path)
		if err != nil {
			t.Fatal(err)
		}
		stamp, _, err := s.stamp(v)
		if err != nil {
			t.Fatal(err)
		}
		e, err, _ := s.cacheFill(t.Context(), tg, stamp, func() (*cacheEntry, error) {
			e, err := s.fill(t.Context(), tg, stamp, nil, true)
			// s2 gets another billed t3 visit, on a date no report asks for.
			visit.MustInsert(relstore.Tuple{relstore.String("s2"), relstore.String("t3"), relstore.String(fmt.Sprint("d9", i))})
			return e, err
		})
		if err != nil || e == nil || len(e.body) == 0 || e.stamp != stamp {
			t.Fatalf("%s: entry %v, err %v; want the evaluated result served", tc.name, e, err)
		}
		if _, ok := s.cache.Get(tg.prefix + "\x00" + stamp); ok || s.cache.Len() != 0 {
			t.Errorf("%s: %d entries cached under a stamp that moved mid-evaluation", tc.name, s.cache.Len())
		}
		if n := counter(metrics, "aig_serve_cache_stale_skips_total"); n != int64(i+1) {
			t.Errorf("%s: stale skips = %d, want %d", tc.name, n, i+1)
		}
	}
}

func TestConcurrentIdenticalRequestsCoalesce(t *testing.T) {
	gate := make(chan struct{})
	_, ts, _, metrics := testServer(t, Config{}, gate)

	const n = 6
	var wg sync.WaitGroup
	codes := make([]int, n)
	bodies := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/views/report?date=d1")
			if err != nil {
				codes[i] = -1
				return
			}
			defer resp.Body.Close()
			b, _ := io.ReadAll(resp.Body)
			codes[i], bodies[i] = resp.StatusCode, string(b)
		}(i)
	}
	// Wait until every request has registered (all either lead or wait
	// on the same flight), then let the single evaluation proceed.
	waitFor(t, "all requests in flight", func() bool {
		return counter(metrics, "aig_serve_cache_misses_total") == n
	})
	close(gate)
	wg.Wait()

	for i, code := range codes {
		if code != http.StatusOK {
			t.Fatalf("request %d: status %d", i, code)
		}
		if bodies[i] != bodies[0] {
			t.Fatalf("request %d returned a different document", i)
		}
	}
	if n := counter(metrics, "aig_serve_evaluations_total"); n != 1 {
		t.Fatalf("evaluations=%d, want exactly 1 for identical concurrent requests", n)
	}
	if c := counter(metrics, "aig_serve_coalesced_requests_total"); c != n-1 {
		t.Fatalf("coalesced=%d, want %d", c, n-1)
	}
}

func TestAdmissionControlRejectsExcessLoad(t *testing.T) {
	gate := make(chan struct{})
	cfg := Config{
		MaxConcurrent: 1,
		MaxQueue:      1,
		QueueTimeout:  150 * time.Millisecond,
		CacheEntries:  -1, // no cache: every request must evaluate
	}
	_, ts, _, metrics := testServer(t, cfg, gate)

	type result struct {
		code int
		err  error
	}
	fire := func(date string) chan result {
		ch := make(chan result, 1)
		go func() {
			resp, err := http.Get(ts.URL + "/views/report?date=" + date)
			if err != nil {
				ch <- result{0, err}
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			ch <- result{resp.StatusCode, nil}
		}()
		return ch
	}

	// First request takes the only slot and blocks inside the gated
	// evaluation.
	r1 := fire("d1")
	waitFor(t, "first evaluation holding the slot", func() bool {
		return metrics.NewGauge("aig_serve_inflight_evaluations", "").Value() == 1
	})

	// Second request (distinct params, no coalescing) waits in the
	// queue of capacity 1.
	r2 := fire("d2")
	waitFor(t, "second request queued", func() bool {
		return metrics.NewGauge("aig_serve_queue_depth", "").Value() == 1
	})

	// Third request finds slot and queue both full: immediate 429.
	res3 := <-fire("d3")
	if res3.err != nil || res3.code != http.StatusTooManyRequests {
		t.Fatalf("overflow request: code %d err %v, want 429", res3.code, res3.err)
	}

	// The queued request times out with 503 while the slot stays held.
	res2 := <-r2
	if res2.err != nil || res2.code != http.StatusServiceUnavailable {
		t.Fatalf("queued request: code %d err %v, want 503", res2.code, res2.err)
	}

	close(gate)
	res1 := <-r1
	if res1.err != nil || res1.code != http.StatusOK {
		t.Fatalf("admitted request: code %d err %v, want 200", res1.code, res1.err)
	}
	if n := counter(metrics, "aig_serve_rejected_queue_full_total"); n != 1 {
		t.Fatalf("queue-full rejections=%d, want 1", n)
	}
	if n := counter(metrics, "aig_serve_rejected_queue_timeout_total"); n != 1 {
		t.Fatalf("queue-timeout rejections=%d, want 1", n)
	}
}

func TestGracefulDrain(t *testing.T) {
	gate := make(chan struct{})
	s, ts, _, _ := testServer(t, Config{}, gate)

	// Hold one request in flight.
	inFlight := make(chan int, 1)
	go func() {
		code, _, _ := get(t, ts.URL+"/views/report?date=d1")
		inFlight <- code
	}()
	waitFor(t, "request in flight", func() bool { return s.adm.inUse() == 1 })

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(t.Context()) }()
	waitFor(t, "draining flag", func() bool { return s.draining.Load() })

	// New work is refused while draining; health reports unhealthy.
	if code, _, _ := get(t, ts.URL+"/views/report?date=d2"); code != http.StatusServiceUnavailable {
		t.Fatalf("request during drain: status %d, want 503", code)
	}
	if code, _, _ := get(t, ts.URL+"/healthz"); code != http.StatusServiceUnavailable {
		t.Fatalf("healthz during drain: status %d, want 503", code)
	}

	// The in-flight request still completes, then the drain finishes.
	close(gate)
	if code := <-inFlight; code != http.StatusOK {
		t.Fatalf("in-flight request during drain: status %d, want 200", code)
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
}

func TestBadRequests(t *testing.T) {
	_, ts, _, _ := testServer(t, Config{}, nil)

	if code, _, _ := get(t, ts.URL+"/views/nonesuch?date=d1"); code != http.StatusNotFound {
		t.Fatalf("unknown view: status %d, want 404", code)
	}
	if code, body, _ := get(t, ts.URL+"/views/report?bogus=1"); code != http.StatusBadRequest {
		t.Fatalf("unknown parameter: status %d (%s), want 400", code, body)
	}
}

// choiceJoinSpec is a choice whose first branch reads its value from a
// query joining two sources.
const choiceJoinSpec = `
dtd
  <!ELEMENT results (result*)>
  <!ELEMENT result (cheap | pricey)>
  <!ELEMENT cheap (#PCDATA)>
  <!ELEMENT pricey (#PCDATA)>
end

inh result (trId)
inh cheap (val)
inh pricey (val)

rule results
  child result from query []: select trId from DB:bands;
end

rule result
  cond query [v = inh(result)]: select band from DB:bands where trId = $v.trId;
  branch 1 child cheap from query [v = inh(result)]:
    select n.name as val from DB:bands b, DB2:names n
    where b.trId = n.trId and b.trId = $v.trId;
  branch 2 child pricey set val = inh(result).trId
end

rule cheap
  text inh(cheap).val
end

rule pricey
  text inh(pricey).val
end
`

// TestChoiceBranchSourcesListed: a view whose only DB2 query sits in a
// choice branch registers, serves, and lists DB2 among the sources its
// stamp covers.
func TestChoiceBranchSourcesListed(t *testing.T) {
	reg := source.NewRegistry()
	db := relstore.NewDatabase("DB")
	bands := db.CreateTable("bands", relstore.MustSchema("trId:string", "band:int"))
	bands.MustInsert(relstore.Tuple{relstore.String("t1"), relstore.Int(1)})
	bands.MustInsert(relstore.Tuple{relstore.String("t2"), relstore.Int(2)})
	db2 := relstore.NewDatabase("DB2")
	names := db2.CreateTable("names", relstore.MustSchema("trId:string", "name:string"))
	names.MustInsert(relstore.Tuple{relstore.String("t1"), relstore.String("one")})
	reg.Add(source.NewLocal(db))
	reg.Add(source.NewLocal(db2))
	s := NewServer(reg, Config{Metrics: obs.NewRegistry()})
	v, err := s.AddSpec("choice", choiceJoinSpec)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(v.Sources()); got != "[DB DB2]" {
		t.Errorf("view sources = %s, want [DB DB2]", got)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	if code, body, _ := get(t, ts.URL+"/views/choice"); code != http.StatusOK || !strings.Contains(body, "<cheap>one</cheap>") {
		t.Errorf("status %d, body:\n%s", code, body)
	}
}

func TestIntrospectionEndpoints(t *testing.T) {
	_, ts, _, _ := testServer(t, Config{}, nil)

	// GET /views lists the prepared view with its parameters and
	// source dependencies.
	code, body, _ := get(t, ts.URL+"/views")
	if code != http.StatusOK {
		t.Fatalf("/views: status %d", code)
	}
	var infos []viewInfo
	if err := json.Unmarshal([]byte(body), &infos); err != nil {
		t.Fatalf("/views JSON: %v", err)
	}
	if len(infos) != 1 || infos[0].Name != "report" {
		t.Fatalf("/views = %+v", infos)
	}
	if got := fmt.Sprint(infos[0].Sources); got != "[DB1 DB2 DB3 DB4]" {
		t.Fatalf("view sources = %s, want [DB1 DB2 DB3 DB4]", got)
	}
	if len(infos[0].Params) == 0 || infos[0].Params[0].Name != "date" {
		t.Fatalf("view params = %+v, want date first", infos[0].Params)
	}

	// The prepared plan is served without evaluating.
	code, plan, _ := get(t, ts.URL+"/views/report/explain")
	if code != http.StatusOK || !strings.Contains(plan, "report") {
		t.Fatalf("/explain: status %d, plan %q", code, plan)
	}

	if code, _, _ = get(t, ts.URL+"/views/report?date=d1"); code != http.StatusOK {
		t.Fatalf("evaluation: status %d", code)
	}

	// /metrics exposes the serving instruments in Prometheus format.
	code, metricsText, _ := get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: status %d", code)
	}
	for _, want := range []string{
		"# TYPE aig_serve_requests_total counter",
		"# TYPE aig_serve_request_seconds histogram",
		"aig_serve_cache_misses_total 1",
	} {
		if !strings.Contains(metricsText, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, metricsText)
		}
	}
}

func TestPOSTBindsParams(t *testing.T) {
	_, ts, _, _ := testServer(t, Config{}, nil)

	// Form-encoded POST.
	resp, err := http.Post(ts.URL+"/views/report", "application/x-www-form-urlencoded",
		strings.NewReader("date=d1"))
	if err != nil {
		t.Fatal(err)
	}
	formBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("form POST: status %d", resp.StatusCode)
	}

	// JSON POST binds the same parameters and hits the form request's
	// cache entry.
	resp, err = http.Post(ts.URL+"/views/report", "application/json",
		strings.NewReader(`{"date":"d1"}`))
	if err != nil {
		t.Fatal(err)
	}
	jsonBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("JSON POST: status %d", resp.StatusCode)
	}
	if resp.Header.Get("X-Aig-Cache") != "hit" {
		t.Fatalf("JSON POST cache state %q, want hit (same canonical key)", resp.Header.Get("X-Aig-Cache"))
	}
	if string(jsonBody) != string(formBody) {
		t.Fatal("form and JSON POST returned different documents")
	}
}

// TestServeMatchesDirectEvaluation pins the served document to the
// paper pipeline run by hand, so the daemon is a transport, not a
// different evaluator.
func TestServeMatchesDirectEvaluation(t *testing.T) {
	_, ts, _, _ := testServer(t, Config{}, nil)

	_, served, _ := get(t, ts.URL+"/views/report?date=d1")

	a, err := aigspec.Parse(hospital.SpecText)
	if err != nil {
		t.Fatal(err)
	}
	cat := hospital.TinyCatalog()
	reg := source.RegistryFromCatalog(cat)
	v, err := NewServer(reg, Config{Metrics: obs.NewRegistry()}).AddView("ref", a)
	if err != nil {
		t.Fatal(err)
	}
	rootInh, err := v.bindParams(map[string]string{"date": "d1"})
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := v.med.EvaluateRecursive(v.sa, rootInh, 4, 64)
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	if err := res.Doc.WriteIndented(&want); err != nil {
		t.Fatal(err)
	}
	if served != want.String() {
		t.Fatalf("served document differs from direct evaluation:\n--- served\n%s\n--- direct\n%s", served, want.String())
	}
}

// TestNoStoreStreamsTheCachedBytes pins the bypass path: the document is
// emitted straight into the response, after the admission slot is freed,
// with its headers at the first byte and no Content-Length, and its bytes
// are the cached path's for the same parameters. A guard abort, which
// comes before any byte, is still a clean 500.
func TestNoStoreStreamsTheCachedBytes(t *testing.T) {
	s, ts, cat, _ := testServer(t, Config{}, nil)
	noStore := func() (*http.Response, string) {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/views/report?date=d1", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Cache-Control", "no-store")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, string(body)
	}

	_, cached, _ := get(t, ts.URL+"/views/report?date=d1")
	resp, body := noStore()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Aig-Cache") != "bypass" || resp.Header.Get("X-Aig-Unfold-Depth") == "" {
		t.Fatalf("status %d, headers %v", resp.StatusCode, resp.Header)
	}
	if body != cached {
		t.Fatalf("streamed document differs from the cached one:\n--- streamed\n%s\n--- cached\n%s", body, cached)
	}
	if resp.ContentLength != -1 || resp.Header.Get("Content-Length") != "" {
		t.Errorf("streamed document sent with Content-Length %d", resp.ContentLength)
	}
	if n := s.adm.inUse(); n != 0 {
		t.Errorf("%d admission slots still held after the response", n)
	}

	// s1 visits t9 on d1, a treatment gold covers but nobody bills: the
	// guarded grammar aborts before the document exists.
	tableOf(t, cat, "DB4", "treatment").MustInsert(relstore.Tuple{relstore.String("t9"), relstore.String("laser")})
	tableOf(t, cat, "DB2", "cover").MustInsert(relstore.Tuple{relstore.String("gold"), relstore.String("t9")})
	tableOf(t, cat, "DB1", "visitInfo").MustInsert(relstore.Tuple{relstore.String("s1"), relstore.String("t9"), relstore.String("d1")})
	if resp, body := noStore(); resp.StatusCode != http.StatusInternalServerError || resp.Header.Get("X-Aig-Cache") != "" {
		t.Errorf("guard abort: status %d, X-Aig-Cache %q, body %q; want a plain 500", resp.StatusCode, resp.Header.Get("X-Aig-Cache"), body)
	}
}
