package serve

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/aigrepro/aig/internal/obs"
	"github.com/aigrepro/aig/internal/relstore"
	"github.com/aigrepro/aig/internal/xmltree"
	"github.com/aigrepro/aig/internal/xpath"
)

// fragURL builds a fragment request URL with the path properly encoded.
func fragURL(base, date, path string) string {
	q := url.Values{}
	q.Set("date", date)
	q.Set("path", path)
	return base + "/views/report?" + q.Encode()
}

// getFrag fetches a fragment, returning status, body, cache state, and
// the match count (header or trailer, whichever the response carried).
func getFrag(t *testing.T, u string) (int, string, string, string) {
	t.Helper()
	resp, err := http.Get(u)
	if err != nil {
		t.Fatalf("GET %s: %v", u, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	matches := resp.Header.Get("X-Aig-Fragment-Matches")
	if matches == "" {
		// Streamed responses ship the count as a trailer, visible only
		// after the body is fully read.
		matches = resp.Trailer.Get("X-Aig-Fragment-Matches")
	}
	return resp.StatusCode, string(body), resp.Header.Get("X-Aig-Cache"), matches
}

// oracleFragment filters a full rendered document down to the path's
// matches — the reference the served fragment must byte-equal.
func oracleFragment(t *testing.T, fullBody, path string) (string, int) {
	t.Helper()
	doc, err := xmltree.Parse(strings.NewReader(fullBody))
	if err != nil {
		t.Fatal(err)
	}
	p, err := xpath.Parse(path)
	if err != nil {
		t.Fatal(err)
	}
	sel := xpath.Select(doc, p)
	var buf bytes.Buffer
	for _, n := range sel {
		if err := n.WriteIndented(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.String(), len(sel)
}

func TestFragmentMissHitDerived(t *testing.T) {
	_, ts, _, metrics := testServer(t, Config{}, nil)

	// Cold fragment request: evaluated partially, streamed, cached.
	code, frag1, state, matches := getFrag(t, fragURL(ts.URL, "d1", "//patient"))
	if code != http.StatusOK || state != "miss" {
		t.Fatalf("first fragment: %d/%s", code, state)
	}
	if matches != "3" {
		t.Fatalf("first fragment matches %q, want 3", matches)
	}
	if !strings.Contains(frag1, "<patient>") || strings.Contains(frag1, "<report>") {
		t.Fatalf("fragment body should hold patients without the report wrapper:\n%s", frag1)
	}

	// Warm fragment request hits its own cache entry, byte-identical.
	code, frag2, state, matches := getFrag(t, fragURL(ts.URL, "d1", "//patient"))
	if code != http.StatusOK || state != "hit" {
		t.Fatalf("repeat fragment: %d/%s", code, state)
	}
	if frag2 != frag1 || matches != "3" {
		t.Fatal("cache hit returned a different fragment")
	}

	// The partial body must equal the post-hoc filter of the full doc.
	_, full, fullState := get(t, ts.URL+"/views/report?date=d1")
	if fullState != "miss" {
		t.Fatalf("full request state %q, want miss (fragment entries must not satisfy full requests)", fullState)
	}
	want, n := oracleFragment(t, full, "//patient")
	if frag1 != want || n != 3 {
		t.Fatalf("fragment differs from post-hoc filter:\n--- served\n%s\n--- oracle\n%s", frag1, want)
	}

	// With the full document now cached, a fresh path is still a miss of
	// its own: it evaluates once, reading only what the path needs, and
	// byte-equals the post-hoc filter of the cached document.
	evalsBefore := counter(metrics, "aig_serve_evaluations_total")
	code, frag3, state, _ := getFrag(t, fragURL(ts.URL, "d1", "//treatment/tname"))
	if code != http.StatusOK || state != "miss" {
		t.Fatalf("fragment beside a cached document: %d/%s, want miss", code, state)
	}
	if wantT, _ := oracleFragment(t, full, "//treatment/tname"); frag3 != wantT {
		t.Fatalf("fragment differs from oracle:\n--- served\n%s\n--- oracle\n%s", frag3, wantT)
	}
	if evals := counter(metrics, "aig_serve_evaluations_total"); evals != evalsBefore+1 {
		t.Fatalf("fragment miss beside a cached document: evaluations %d -> %d, want one", evalsBefore, evals)
	}
	if n := counter(metrics, "aig_serve_fragment_requests_total"); n != 3 {
		t.Fatalf("fragment requests counter %d, want 3", n)
	}
}

func TestFragmentMatchesOracleAcrossPaths(t *testing.T) {
	_, ts, _, _ := testServer(t, Config{}, nil)
	_, full, _ := get(t, ts.URL+"/views/report?date=d1")

	for _, path := range []string{
		"/report",
		"/report/patient",
		"/report/patient/SSN",
		"//patient[pname='alice']",
		"//patient[2]",
		"//bill/item",
		"//treatment[tname='xray']",
		"//*[trId='t2']",
	} {
		code, frag, _, _ := getFrag(t, fragURL(ts.URL, "d1", path))
		if code != http.StatusOK {
			t.Fatalf("%s: status %d", path, code)
		}
		want, _ := oracleFragment(t, full, path)
		if frag != want {
			t.Errorf("%s: served fragment differs from post-hoc filter\n--- served\n%s\n--- oracle\n%s", path, frag, want)
		}
	}
}

func TestFragmentZeroMatchesAndBadPath(t *testing.T) {
	_, ts, _, _ := testServer(t, Config{}, nil)

	code, body, _, matches := getFrag(t, fragURL(ts.URL, "d1", "/nothing"))
	if code != http.StatusOK || body != "" || matches != "0" {
		t.Fatalf("unmatchable path: %d, %d bytes, matches %q; want empty 200 with 0", code, len(body), matches)
	}

	code, body, _, _ = getFrag(t, fragURL(ts.URL, "d1", "//patient["))
	if code != http.StatusBadRequest || !strings.Contains(body, "path:") {
		t.Fatalf("malformed path: %d %q, want 400 with a positioned parse error", code, body)
	}
}

func TestFragmentSpellingVariantsShareOneEntry(t *testing.T) {
	_, ts, _, _ := testServer(t, Config{}, nil)

	if code, _, state, _ := getFrag(t, fragURL(ts.URL, "d1", `//patient[pname="alice"]`)); code != 200 || state != "miss" {
		t.Fatalf("first spelling: %d/%s", code, state)
	}
	// Same path modulo quoting canonicalizes to the same plan and key.
	if code, _, state, _ := getFrag(t, fragURL(ts.URL, "d1", "//patient[pname='alice']")); code != 200 || state != "hit" {
		t.Fatalf("canonical respelling: %d/%s, want hit", code, state)
	}
}

// TestFragmentConcurrentRequestsCoalesce: N concurrent misses of one
// fragment evaluate once — one miss streams, N-1 coalesce onto its
// entry — whether or not the full document is already cached.
func TestFragmentConcurrentRequestsCoalesce(t *testing.T) {
	for _, docCached := range []bool{false, true} {
		t.Run(fmt.Sprintf("docCached=%v", docCached), func(t *testing.T) {
			gate := make(chan struct{})
			_, ts, _, metrics := testServer(t, Config{}, gate)

			var docMisses, docEvals int64
			if docCached {
				// Let the document's evaluation through the gate, then
				// close it again for the fragment requests.
				stop, pumped := make(chan struct{}), make(chan struct{})
				go func() {
					defer close(pumped)
					for {
						select {
						case gate <- struct{}{}:
						case <-stop:
							return
						}
					}
				}()
				code, _, _ := get(t, ts.URL+"/views/report?date=d1")
				close(stop)
				<-pumped
				if code != http.StatusOK {
					t.Fatalf("full document: status %d", code)
				}
				docMisses, docEvals = 1, 1
			}

			const n = 4
			var wg sync.WaitGroup
			bodies := make([]string, n)
			codes := make([]int, n)
			states := make([]string, n)
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					codes[i], bodies[i], states[i], _ = getFrag(t, fragURL(ts.URL, "d1", "//patient"))
				}(i)
			}
			waitFor(t, "all fragment requests in flight", func() bool {
				return counter(metrics, "aig_serve_cache_misses_total") == docMisses+n
			})
			close(gate)
			wg.Wait()

			miss, coalesced := 0, 0
			for i := 0; i < n; i++ {
				if codes[i] != http.StatusOK {
					t.Fatalf("request %d: status %d", i, codes[i])
				}
				if bodies[i] != bodies[0] {
					t.Fatalf("request %d returned a different fragment", i)
				}
				switch states[i] {
				case "miss":
					miss++
				case "coalesced":
					coalesced++
				}
			}
			if miss != 1 || coalesced != n-1 {
				t.Fatalf("X-Aig-Cache states %v, want one miss and %d coalesced", states, n-1)
			}
			if evals := counter(metrics, "aig_serve_evaluations_total") - docEvals; evals != 1 {
				t.Fatalf("evaluations=%d, want exactly 1 for identical concurrent fragment requests", evals)
			}
			if c := counter(metrics, "aig_serve_coalesced_requests_total"); c != n-1 {
				t.Fatalf("coalesced=%d, want %d", c, n-1)
			}
		})
	}
}

// TestFragmentRefreshScopedInvalidation is the payoff of path-filtered
// dependency maps: a mutation that rebuilds the full document but lands
// outside the fragment's reachable scans leaves the fragment entry warm
// (restamped), while a mutation inside the fragment's scans rebuilds it.
func TestFragmentRefreshScopedInvalidation(t *testing.T) {
	s, ts, cat, metrics := testServer(t, Config{RefreshInterval: 2 * time.Millisecond}, nil)
	t.Cleanup(s.Close)

	u := fragURL(ts.URL, "d1", "/report/patient/SSN")
	code, frag1, state, _ := getFrag(t, u)
	if code != http.StatusOK || state != "miss" {
		t.Fatalf("first fragment: %d/%s", code, state)
	}

	// Procedures feed only the treatments and bill subtrees, which
	// /report/patient/SSN can never reach: the full document changes (t3
	// gains procedure t5, bills an item for it) but the fragment is
	// provably identical and must be restamped. The write keeps every
	// premise of the view's proofs: a write that broke one would send the
	// fragment through the guarded grammar instead (see
	// TestBrokenPremiseFallsBackToGuarded).
	tableOf(t, cat, "DB4", "procedure").MustInsert(relstore.Tuple{
		relstore.String("t3"), relstore.String("t5")})

	waitFor(t, "a post-mutation refresh", func() bool {
		return counter(metrics, "aig_serve_refresh_delta_total") >= 1
	})
	code, frag2, state, _ := getFrag(t, u)
	if code != http.StatusOK || state != "hit" {
		t.Fatalf("post-billing-mutation fragment: %d/%s, want a warm hit", code, state)
	}
	if frag2 != frag1 {
		t.Fatal("out-of-scope mutation changed the fragment body")
	}

	// A new patient with a d1 visit lands squarely in the fragment's
	// scans: the refresher must rebuild, and the warm hit reflects it.
	tableOf(t, cat, "DB1", "patient").MustInsert(relstore.Tuple{
		relstore.String("s9"), relstore.String("zed"), relstore.String("gold")})
	tableOf(t, cat, "DB1", "visitInfo").MustInsert(relstore.Tuple{
		relstore.String("s9"), relstore.String("t1"), relstore.String("d1")})

	waitFor(t, "a warm fragment hit reflecting the new patient", func() bool {
		code, body, state, _ := getFrag(t, u)
		return code == http.StatusOK && state == "hit" && strings.Contains(body, "s9")
	})
}

func TestFragmentNoStoreBypassStreams(t *testing.T) {
	_, ts, _, metrics := testServer(t, Config{}, nil)

	req, _ := http.NewRequest(http.MethodGet, fragURL(ts.URL, "d1", "//patient"), nil)
	req.Header.Set("Cache-Control", "no-store")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Aig-Cache") != "bypass" {
		t.Fatalf("bypass fragment: %d/%s", resp.StatusCode, resp.Header.Get("X-Aig-Cache"))
	}
	if resp.Trailer.Get("X-Aig-Fragment-Matches") != "3" {
		t.Fatalf("bypass trailer matches %q, want 3", resp.Trailer.Get("X-Aig-Fragment-Matches"))
	}
	if !strings.Contains(string(body), "<patient>") {
		t.Fatal("bypass fragment body missing patients")
	}
	// Nothing cached: the next normal fragment request still misses.
	if _, _, state, _ := getFrag(t, fragURL(ts.URL, "d1", "//patient")); state != "miss" {
		t.Fatalf("post-bypass state %q, want miss", state)
	}
	if n := counter(metrics, "aig_serve_fragment_requests_total"); n != 2 {
		t.Fatalf("fragment requests counter %d, want 2", n)
	}
}

func TestTTFBHistogramObserved(t *testing.T) {
	_, ts, _, _ := testServer(t, Config{}, nil)

	if code, _, _, _ := getFrag(t, fragURL(ts.URL, "d1", "//patient")); code != http.StatusOK {
		t.Fatal("fragment request failed")
	}
	_, metricsText, _ := get(t, ts.URL+"/metrics")
	if !strings.Contains(metricsText, "# TYPE aig_serve_ttfb_seconds histogram") {
		t.Fatal("/metrics missing the TTFB histogram")
	}
	if !strings.Contains(metricsText, `aig_serve_ttfb_seconds_count`) {
		t.Fatal("/metrics missing TTFB observations")
	}
}

// TestFragmentSingularViewAlias covers the GET /view/{name} spelling.
func TestFragmentSingularViewAlias(t *testing.T) {
	_, ts, _, _ := testServer(t, Config{}, nil)
	q := url.Values{}
	q.Set("date", "d1")
	q.Set("path", "//patient/SSN")
	code, body, _, _ := getFrag(t, ts.URL+"/view/report?"+q.Encode())
	if code != http.StatusOK || !strings.Contains(body, "<SSN>") {
		t.Fatalf("/view alias: %d\n%s", code, body)
	}
}

// TestFragmentPlansStayBounded: every distinct path a client sends
// compiles a plan, but a view keeps at most maxFragPlans of them; a plan
// evicted at the bound recompiles on its next use and serves the same
// bytes.
func TestFragmentPlansStayBounded(t *testing.T) {
	s, ts, _, _ := testServer(t, Config{CacheEntries: -1}, nil)
	_, full, _ := get(t, ts.URL+"/views/report?date=d1")
	paths := make([]string, 0, maxFragPlans+20)
	for i := 1; i <= cap(paths); i++ {
		paths = append(paths, fmt.Sprintf("/report/patient[%d]/pname", i))
	}
	for _, path := range append(paths, paths[:5]...) {
		code, frag, _, _ := getFrag(t, fragURL(ts.URL, "d1", path))
		if want, _ := oracleFragment(t, full, path); code != http.StatusOK || frag != want {
			t.Fatalf("%s: status %d, fragment differs from post-hoc filter\n--- served\n%s\n--- oracle\n%s", path, code, frag, want)
		}
	}
	v := s.View("report")
	v.fragMu.Lock()
	n := len(v.fragPlans)
	v.fragMu.Unlock()
	if n > maxFragPlans {
		t.Errorf("%d fragment plans memoized, bound %d", n, maxFragPlans)
	}
}

// TestFragmentExplain: explain?path=P renders the plan a fragment
// request for P settles — its kept contexts, its pruned ones and its
// source queries — and names the partial evaluator for a path with
// predicates.
func TestFragmentExplain(t *testing.T) {
	_, ts, _, _ := testServer(t, Config{}, nil)
	explain := func(path string) (int, string) {
		t.Helper()
		code, body, _ := get(t, ts.URL+"/views/report/explain?path="+url.QueryEscape(path))
		return code, body
	}
	code, plan := explain("/report/patient/SSN")
	for _, want := range []string{
		"fragment /report/patient/SSN at unfolding depth 4: 3 contexts kept, 3 pruned\n",
		"kept contexts:\n  report\n  report/patient\n  report/patient/SSN\n",
		"pruned contexts:\n  report/patient/pname\n  report/patient/treatments\n  report/patient/bill\n",
		"DB1: 1 queries in schedule order\n",
	} {
		if code != http.StatusOK || !strings.Contains(plan, want) {
			t.Fatalf("explain /report/patient/SSN: status %d, missing %q in\n%s", code, want, plan)
		}
	}
	if strings.Contains(plan, "DB2") || strings.Contains(plan, "DB3") || strings.Contains(plan, "DB4") {
		t.Errorf("the SSN fragment's plan queries more than DB1:\n%s", plan)
	}
	if code, plan := explain("//patient[1]/SSN"); code != http.StatusOK || !strings.Contains(plan, "served by the partial evaluator") {
		t.Errorf("explain //patient[1]/SSN: status %d\n%s", code, plan)
	}
	if code, _ := explain("/report/patient["); code != http.StatusBadRequest {
		t.Errorf("explain of a bad path: status %d, want 400", code)
	}
}

// TestFragmentPathsKeepDocumentPlan: pruned plans have a bound of their
// own in the mediator's plan cache, so a burst of more than maxPlans
// distinct paths without predicates does not push the document's plan
// out — the next document request plans nothing.
func TestFragmentPathsKeepDocumentPlan(t *testing.T) {
	_, ts, _, _ := testServer(t, Config{}, nil)
	noStore := func(u string) {
		t.Helper()
		req, _ := http.NewRequest(http.MethodGet, u, nil)
		req.Header.Set("Cache-Control", "no-store")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d", u, resp.StatusCode)
		}
	}
	misses := func() int64 { return counter(obs.Default, "aig_mediator_plan_cache_misses_total") }
	doc := ts.URL + "/views/report?date=d1"
	noStore(doc)
	paths := []string{
		"/report", "/report/patient", "/report/patient/SSN", "/report/patient/pname",
		"/report/patient/treatments", "/report/patient/bill", "/report/patient/bill/item",
		"/report/patient/bill/item/trId", "/report/patient/bill/item/price", "//SSN", "//pname",
		"//treatments", "//treatment", "//trId", "//tname", "//procedure", "//bill", "//item",
		"//price", "/report/*", "//*",
	}
	before := misses()
	for _, p := range paths {
		noStore(fragURL(ts.URL, "d1", p))
	}
	if n := misses() - before; n < 17 {
		t.Fatalf("%d distinct fragment paths planned %d times; the test needs more than 16 pruned plans", len(paths), n)
	}
	before = misses()
	noStore(doc)
	if n := misses() - before; n != 0 {
		t.Errorf("the document request after the burst planned %d times, want a plan-cache hit", n)
	}
}
