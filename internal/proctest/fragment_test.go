//go:build integration

package proctest_test

import (
	"bytes"
	"net/http"
	"net/url"
	"testing"
	"time"

	"github.com/aigrepro/aig/internal/proctest"
)

// TestFragment serves XPath fragments through aigrouter in front of aigd
// (built-in catalog, refresher every 25 ms, /mutate on).
//
//  1. path=/report byte-equals the full document, and a predicate
//     fragment selects exactly the matching patient.
//  2. A write outside the fragment's scans (a DB3 billing row for a
//     treatment nobody visits; /report/patient/SSN reads only DB1) keeps
//     the entry warm: the refresher meters a delta restamp and the next
//     request is a hit with the same bytes. The row keeps every premise
//     of the view's certification.
//  3. A write inside the scans (a new DB1 patient with a visit) shows up
//     in the fragment.
//  4. A billing row duplicating t1 breaks the premise key
//     DB3:billing(trId): the guarded grammar serves the fragment and its
//     unique guard answers 500 naming patient(item.trId -> item); deleting
//     the duplicate serves 200 again.
func TestFragment(t *testing.T) {
	const ssnPath = "/report/patient/SSN"
	aigd, aigrouter := proctest.Build(t, "aigd", false), proctest.Build(t, "aigrouter", false)
	addr, routerAddr := proctest.FreeAddr(t), proctest.FreeAddr(t)
	base, router := "http://"+addr, "http://"+routerAddr

	start(t, proctest.HTTPReady(base), aigd, "-demo", "-addr", addr, "-allow-mutate", "-refresh-interval", "25ms")
	start(t, proctest.HTTPReady(router), aigrouter, "-addr", routerAddr, "-replica", base, "-health-interval", "100ms")

	fragURL := func(path string) string {
		return router + "/views/report?" + url.Values{"date": {"d1"}, "path": {path}}.Encode()
	}
	mutate := func(query string) { post(t, base+"/mutate?"+query) }

	// Phase 1: fragments match the full document through the router.
	full := get(t, router+"/views/report?date=d1")
	if root := get(t, fragURL("/report")); !bytes.Equal(root.Body, full.Body) {
		t.Fatalf("path=/report fragment differs from the full document:\n%s\n---\n%s", root.Body, full.Body)
	}
	alice := get(t, fragURL("//patient[pname='alice']"))
	if !contains(alice.Body, "alice") {
		t.Fatalf("predicate fragment lacks its own match: %s", alice.Body)
	}
	if contains(alice.Body, "bob") {
		t.Fatalf("predicate fragment leaked a patient it does not select: %s", alice.Body)
	}

	// Phase 2: a write outside the fragment's scans keeps it warm.
	get(t, fragURL(ssnPath))
	warm := get(t, fragURL(ssnPath))
	if warm.Cache() != "hit" {
		t.Fatalf("repeat fragment request: cache %q, want hit", warm.Cache())
	}
	before := metric(t, base, "aig_serve_refresh_delta_total")
	mutate("source=DB3&table=billing&op=insert&values=t999,999")
	// Settled: a delta restamp was metered, and a later refresh cycle
	// found no stale entry.
	waitFor(t, "a delta restamp across the billing insert", 600*time.Millisecond, func() bool {
		m, err := proctest.Scrape(base)
		return err == nil && m["aig_serve_refresh_delta_total"] > before && m["aig_serve_refresh_dirty_queue"] == 0
	})
	r := get(t, fragURL(ssnPath))
	if r.Cache() != "hit" {
		t.Fatalf("fragment after an unrelated write: cache %q, want hit", r.Cache())
	}
	if !bytes.Equal(r.Body, warm.Body) {
		t.Fatal("an unrelated write changed the fragment's bytes")
	}

	// Phase 3: a write inside the fragment's scans shows up.
	mutate("source=DB1&table=patient&op=insert&values=s9,zed,gold")
	mutate("source=DB1&table=visitInfo&op=insert&values=s9,t1,d1")
	waitFor(t, "the in-scope write in the fragment", 4*time.Second, func() bool {
		return contains(get(t, fragURL(ssnPath)).Body, "s9")
	})

	// Phase 4: a broken premise serves the guarded grammar.
	mutate("source=DB3&table=billing&op=insert&values=t1,999")
	if r := want(t, http.StatusInternalServerError, "GET", fragURL(ssnPath)); !contains(r.Body, "patient(item.trId -> item)") {
		t.Fatalf("duplicate billing key: want the guard's 500, got %s", r.Body)
	}
	mutate("source=DB3&table=billing&op=delete&values=t1,999")
	if r := get(t, fragURL(ssnPath)); !contains(r.Body, "s9") {
		t.Fatalf("after deleting the duplicate: %s", r.Body)
	}
}
