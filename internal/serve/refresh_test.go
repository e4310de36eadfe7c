package serve

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/aigrepro/aig/internal/hospital"
	"github.com/aigrepro/aig/internal/obs"
	"github.com/aigrepro/aig/internal/relstore"
	"github.com/aigrepro/aig/internal/source"
)

// tableOf resolves a catalog table or fails the test.
func tableOf(t *testing.T, cat *relstore.Catalog, db, name string) *relstore.Table {
	t.Helper()
	tab, err := cat.Table(db, name)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestRefresherKeepsCacheWarmAfterRelevantMutation(t *testing.T) {
	s, ts, cat, metrics := testServer(t, Config{RefreshInterval: 2 * time.Millisecond}, nil)
	t.Cleanup(s.Close)

	code, body1, state := get(t, ts.URL+"/views/report?date=d1")
	if code != http.StatusOK || state != "miss" {
		t.Fatalf("first request: %d/%s", code, state)
	}
	if strings.Contains(body1, "zed") {
		t.Fatal("new patient present before the mutation")
	}

	// A new patient with a d1 visit genuinely changes the document; the
	// patient table has no judgeable predicates, so the refresher must
	// take the full re-evaluation path and still end with a warm hit. No
	// request is sent until it has: a client miss would refill the one
	// entry of the target first and leave the refresher nothing to do.
	tableOf(t, cat, "DB1", "patient").MustInsert(relstore.Tuple{
		relstore.String("s9"), relstore.String("zed"), relstore.String("gold")})
	tableOf(t, cat, "DB1", "visitInfo").MustInsert(relstore.Tuple{
		relstore.String("s9"), relstore.String("t1"), relstore.String("d1")})

	waitFor(t, "a full re-evaluation by the refresher", func() bool {
		return counter(metrics, "aig_serve_refresh_full_total") >= 1
	})
	waitFor(t, "a warm hit reflecting the mutation", func() bool {
		code, body, state := get(t, ts.URL+"/views/report?date=d1")
		return code == http.StatusOK && state == "hit" && strings.Contains(body, "zed")
	})
}

func TestRefresherRestampsProvablyIrrelevantMutation(t *testing.T) {
	s, ts, cat, metrics := testServer(t, Config{RefreshInterval: 2 * time.Millisecond}, nil)
	t.Cleanup(s.Close)

	_, body1, state := get(t, ts.URL+"/views/report?date=d1")
	if state != "miss" {
		t.Fatalf("first request state %q", state)
	}
	evalsBefore := counter(metrics, "aig_serve_evaluations_total")

	// A visit on another date fails the root-bound date predicate on
	// every visitInfo scan: the judge proves the d1 document unchanged
	// and the entry is restamped, not re-evaluated.
	tableOf(t, cat, "DB1", "visitInfo").MustInsert(relstore.Tuple{
		relstore.String("s2"), relstore.String("t4"), relstore.String("d9")})

	waitFor(t, "a delta restamp", func() bool {
		return counter(metrics, "aig_serve_refresh_delta_total") >= 1
	})
	code, body2, state := get(t, ts.URL+"/views/report?date=d1")
	if code != http.StatusOK || state != "hit" {
		t.Fatalf("post-restamp request: %d/%s", code, state)
	}
	if body2 != body1 {
		t.Fatal("restamped entry serves a different document")
	}
	if evals := counter(metrics, "aig_serve_evaluations_total"); evals != evalsBefore {
		t.Errorf("restamp re-evaluated: %d -> %d evaluations", evalsBefore, evals)
	}
	if full := counter(metrics, "aig_serve_refresh_full_total"); full != 0 {
		t.Errorf("irrelevant mutation took the full path %d times", full)
	}
}

func TestRefresherTruncatedLogFallsBackToFullRefresh(t *testing.T) {
	s, ts, cat, metrics := testServer(t, Config{RefreshInterval: 2 * time.Millisecond}, nil)
	t.Cleanup(s.Close)

	// With delta logging disabled every ChangesSince window comes back
	// truncated: even a provably irrelevant mutation must take the full
	// re-evaluation path.
	visit := tableOf(t, cat, "DB1", "visitInfo")
	visit.SetChangeLogLimit(-1)

	_, body1, _ := get(t, ts.URL+"/views/report?date=d1")
	visit.MustInsert(relstore.Tuple{
		relstore.String("s2"), relstore.String("t4"), relstore.String("d9")})

	waitFor(t, "a full refresh", func() bool {
		return counter(metrics, "aig_serve_refresh_full_total") >= 1
	})
	code, body2, state := get(t, ts.URL+"/views/report?date=d1")
	if code != http.StatusOK || state != "hit" {
		t.Fatalf("post-refresh request: %d/%s", code, state)
	}
	if body2 != body1 {
		t.Fatal("irrelevant mutation changed the document")
	}
	if delta := counter(metrics, "aig_serve_refresh_delta_total"); delta != 0 {
		t.Errorf("truncated window restamped %d times; must not trust unknown deltas", delta)
	}
}

// TestWriteWakesRefresher: with an interval far longer than the test, a
// write through POST /mutate alone gets the stale entry restamped or
// rebuilt. The source's change signal wakes the refresher, not its
// ticker.
func TestWriteWakesRefresher(t *testing.T) {
	_, ts, _, metrics := testServer(t, Config{RefreshInterval: time.Hour, AllowMutate: true}, nil)

	code, body1, _ := get(t, ts.URL+"/views/report?date=d1")
	if code != http.StatusOK {
		t.Fatalf("prime request failed: %d", code)
	}
	// Bob gains a d1 visit: the document changes.
	resp, err := http.Post(ts.URL+"/mutate?source=DB1&table=visitInfo&op=insert&values=s2,t1,d1", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mutate: %d", resp.StatusCode)
	}

	waitFor(t, "a refresh after the write", func() bool {
		return counter(metrics, "aig_serve_refresh_delta_total")+counter(metrics, "aig_serve_refresh_full_total") > 0
	})
	// The refreshed entry serves as a hit at the new stamp: no request
	// pays the post-write miss.
	_, body2, state := get(t, ts.URL+"/views/report?date=d1")
	if state != "hit" || body2 == body1 {
		t.Fatalf("post-write request: cache state %q, changed body %v; want a hit on the new document", state, body2 != body1)
	}
}

// TestRefresherPollsSourcesWithoutDatabase: sources that expose no
// database (like a remote client) ring nothing when they change, so the
// refresher polls them on its interval and still keeps the cache warm.
func TestRefresherPollsSourcesWithoutDatabase(t *testing.T) {
	cat := hospital.TinyCatalog()
	reg := source.NewRegistry()
	for _, name := range cat.DatabaseNames() {
		db, err := cat.Database(name)
		if err != nil {
			t.Fatal(err)
		}
		reg.Add(opaqueSource{source.NewLocal(db)})
	}
	metrics := obs.NewRegistry()
	s := NewServer(reg, Config{RefreshInterval: 2 * time.Millisecond, Metrics: metrics})
	t.Cleanup(s.Close)
	if _, err := s.AddSpec("report", hospital.SpecText); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	if code, _, _ := get(t, ts.URL+"/views/report?date=d1"); code != http.StatusOK {
		t.Fatalf("prime request failed: %d", code)
	}
	tableOf(t, cat, "DB1", "visitInfo").MustInsert(relstore.Tuple{
		relstore.String("s2"), relstore.String("t1"), relstore.String("d1")})

	waitFor(t, "a polled refresh", func() bool {
		return counter(metrics, "aig_serve_refresh_delta_total")+counter(metrics, "aig_serve_refresh_full_total") > 0
	})
	if _, _, state := get(t, ts.URL+"/views/report?date=d1"); state != "hit" {
		t.Fatalf("post-write request cache state = %q, want hit", state)
	}
}

// TestRefreshDirtyQueueDrains: after a write, the cycle it wakes
// refreshes every stale entry and then reports none left. No later
// cycle runs to clear the gauge, so it must say what the cycle left
// stale, not what it found.
func TestRefreshDirtyQueueDrains(t *testing.T) {
	_, ts, cat, metrics := testServer(t, Config{RefreshInterval: time.Hour}, nil)

	for _, date := range []string{"d1", "d2"} {
		if code, _, _ := get(t, ts.URL+"/views/report?date="+date); code != http.StatusOK {
			t.Fatalf("prime %s failed: %d", date, code)
		}
	}
	tableOf(t, cat, "DB1", "visitInfo").MustInsert(relstore.Tuple{
		relstore.String("s2"), relstore.String("t1"), relstore.String("d1")})

	waitFor(t, "both entries refreshed and the dirty queue empty", func() bool {
		refreshed := counter(metrics, "aig_serve_refresh_delta_total") + counter(metrics, "aig_serve_refresh_full_total")
		return refreshed >= 2 && metrics.NewGauge("aig_serve_refresh_dirty_queue", "").Value() == 0
	})
}

func TestMutateEndpoint(t *testing.T) {
	_, ts, cat, metrics := testServer(t, Config{AllowMutate: true}, nil)
	visit := tableOf(t, cat, "DB1", "visitInfo")
	before := visit.Len()

	post := func(query string) (int, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/mutate?"+query, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, body := post("source=DB1&table=visitInfo&op=insert&values=s9,t9,d9"); code != http.StatusOK {
		t.Fatalf("insert: %d %s", code, body)
	}
	if visit.Len() != before+1 {
		t.Fatalf("insert did not land: %d rows", visit.Len())
	}
	if code, body := post("source=DB1&table=visitInfo&op=delete&values=s9,t9,d9"); code != http.StatusOK || !strings.Contains(body, `"affected":1`) {
		t.Fatalf("delete by values: %d %s", code, body)
	}
	if visit.Len() != before {
		t.Fatalf("delete did not land: %d rows", visit.Len())
	}
	if code, body := post("source=DB1&table=visitInfo&op=delete&values=s9,t9,d9"); code != http.StatusOK || !strings.Contains(body, `"affected":0`) {
		t.Fatalf("delete of an absent row: %d %s", code, body)
	}

	for _, bad := range []struct {
		query string
		code  int
	}{
		{"source=DB1&table=visitInfo&op=frobnicate", http.StatusBadRequest},
		{"source=DB1&table=visitInfo&op=insert", http.StatusBadRequest},
		{"source=DB1&table=visitInfo&op=delete", http.StatusBadRequest},
		{"source=DB1&table=visitInfo&op=insert&values=onlyone", http.StatusBadRequest},
		{"source=DB9&table=visitInfo&op=insert&values=a,b,c", http.StatusNotFound},
		{"source=DB1&table=nope&op=insert&values=a,b,c", http.StatusNotFound},
		{"source=DB1&op=insert", http.StatusBadRequest},
	} {
		if code, body := post(bad.query); code != bad.code {
			t.Errorf("POST /mutate?%s = %d (%s), want %d", bad.query, code, body, bad.code)
		}
	}
	if n := counter(metrics, "aig_serve_mutations_total"); n != 3 {
		t.Errorf("mutations counter %d, want 3", n)
	}
}

func TestMutateDisabledByDefault(t *testing.T) {
	_, ts, _, _ := testServer(t, Config{}, nil)
	resp, err := http.Post(ts.URL+"/mutate?source=DB1&table=visitInfo&op=delete", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/mutate without AllowMutate: %d, want 404", resp.StatusCode)
	}
}

func TestNoStoreBypassesCache(t *testing.T) {
	_, ts, _, metrics := testServer(t, Config{}, nil)

	bypass := func() string {
		t.Helper()
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/views/report?date=d1", nil)
		req.Header.Set("Cache-Control", "no-store")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("bypass request: %d", resp.StatusCode)
		}
		return resp.Header.Get("X-Aig-Cache")
	}
	if st := bypass(); st != "bypass" {
		t.Fatalf("cache state %q, want bypass", st)
	}
	if st := bypass(); st != "bypass" {
		t.Fatalf("second bypass state %q", st)
	}
	// Nothing was cached: a normal request still misses and evaluates.
	_, _, state := get(t, ts.URL+"/views/report?date=d1")
	if state != "miss" {
		t.Fatalf("post-bypass request state %q, want miss", state)
	}
	if evals := counter(metrics, "aig_serve_evaluations_total"); evals != 3 {
		t.Errorf("evaluations %d, want 3 (two bypasses + one miss)", evals)
	}
}

// TestNoStaleHitUnderConcurrentMutation is the serving-correctness
// stress test: while a writer keeps mutating the sources (mixing
// relevant rows, provably irrelevant rows, and deletions) and the
// background refresher keeps the cache warm, every cache *hit* must
// carry a body byte-identical to a from-scratch evaluation at the
// stamp in its X-Aig-Stamp header. The writer journals the ground
// truth after each mutation; hammer goroutines collect hits; the final
// check replays every hit against the journal. Run under -race this
// also exercises the COW tables and the seqlock stamp protocol.
func TestNoStaleHitUnderConcurrentMutation(t *testing.T) {
	s, ts, cat, _ := testServer(t, Config{RefreshInterval: time.Millisecond}, nil)
	t.Cleanup(s.Close)
	v := s.View("report")
	params := map[string]string{"date": "d1"}

	journal := make(map[string]string)
	var jmu sync.Mutex
	record := func() {
		t.Helper()
		stamp, settled, err := s.stamp(v)
		if err != nil || !settled {
			t.Fatalf("stamp after mutation: settled=%v err=%v", settled, err)
		}
		tg, err := s.target(v, params, canonicalParams(params), "")
		if err != nil {
			t.Fatal(err)
		}
		e, err := s.fill(context.Background(), tg, stamp, nil, true)
		if err != nil {
			t.Fatalf("ground-truth evaluation: %v", err)
		}
		if again, _, _ := s.stamp(v); again != stamp {
			t.Fatal("stamp moved during ground-truth evaluation; the test must be the only writer")
		}
		jmu.Lock()
		journal[stamp] = string(e.body)
		jmu.Unlock()
	}
	record() // the initial state is also served

	type hitRec struct{ stamp, body string }
	var hmu sync.Mutex
	var hits []hitRec
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(ts.URL + "/views/report?date=d1")
				if err != nil {
					t.Error(err)
					return
				}
				body, rerr := io.ReadAll(resp.Body)
				resp.Body.Close()
				if rerr != nil || resp.StatusCode != http.StatusOK {
					t.Errorf("hammer request: status %d, err %v", resp.StatusCode, rerr)
					return
				}
				if resp.Header.Get("X-Aig-Cache") == "hit" {
					hmu.Lock()
					hits = append(hits, hitRec{resp.Header.Get("X-Aig-Stamp"), string(body)})
					hmu.Unlock()
				}
			}
		}()
	}

	visit := tableOf(t, cat, "DB1", "visitInfo")
	db1, _ := cat.Database("DB1")
	relevant := relstore.Tuple{relstore.String("s2"), relstore.String("t1"), relstore.String("d1")}
	for i := 0; i < 24; i++ {
		switch i % 3 {
		case 0: // changes the d1 document (bob gains an xray)
			visit.MustInsert(relevant.Clone())
		case 1: // changes it back
			if res, err := db1.Mutate("visitInfo", relstore.OpDelete, relevant.Texts()); err != nil || res.Affected == 0 {
				t.Fatalf("relevant row vanished: %+v, %v", res, err)
			}
		case 2: // provably irrelevant: exercises the restamp path
			visit.MustInsert(relstore.Tuple{
				relstore.String("s3"), relstore.String("t5"), relstore.String("d9")})
		}
		record()
		time.Sleep(2 * time.Millisecond)
	}
	close(stop)
	wg.Wait()

	hmu.Lock()
	defer hmu.Unlock()
	jmu.Lock()
	defer jmu.Unlock()
	if len(hits) == 0 {
		t.Fatal("the hammers never saw a cache hit; the refresher is not keeping the cache warm")
	}
	for _, h := range hits {
		want, ok := journal[h.stamp]
		if !ok {
			t.Fatalf("hit served at stamp %q, which the writer never journaled", h.stamp)
		}
		if h.body != want {
			t.Fatalf("stale render: hit at stamp %s does not match ground truth\ngot:\n%s\nwant:\n%s", h.stamp, h.body, want)
		}
	}
	t.Logf("verified %d hits across %d journaled stamps", len(hits), len(journal))
}
