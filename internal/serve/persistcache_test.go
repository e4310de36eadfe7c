package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/aigrepro/aig/internal/hospital"
	"github.com/aigrepro/aig/internal/obs"
	"github.com/aigrepro/aig/internal/relstore"
	"github.com/aigrepro/aig/internal/source"
)

// warmServer builds a server over an existing catalog (the "durable
// sources" a restarted daemon reconnects to) with its own metrics
// registry, mirroring testServer but reusing cat.
func warmServer(t *testing.T, cat *relstore.Catalog, cfg Config) (*Server, *obs.Registry) {
	t.Helper()
	reg := source.NewRegistry()
	for _, name := range cat.DatabaseNames() {
		db, err := cat.Database(name)
		if err != nil {
			t.Fatal(err)
		}
		reg.Add(source.NewLocal(db))
	}
	metrics := obs.NewRegistry()
	cfg.Metrics = metrics
	s := NewServer(reg, cfg)
	if _, err := s.AddSpec("report", hospital.SpecText); err != nil {
		t.Fatal(err)
	}
	return s, metrics
}

// serveOne runs one request through the handler directly.
func serveOne(t *testing.T, s *Server, url string) (int, string, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec.Code, rec.Body.String(), rec.Header().Get("X-Aig-Cache")
}

// TestWarmRestartServesRestoredEntries is the warm-restart story: a
// daemon drains (dumping its cache), a new instance starts against the
// unchanged sources, loads the dump, and the first request is a cache
// hit — zero evaluations — with the byte-identical body.
func TestWarmRestartServesRestoredEntries(t *testing.T) {
	cat := hospital.TinyCatalog()
	dir := t.TempDir()

	s1, _ := warmServer(t, cat, Config{CacheDir: dir})
	code, body1, state := serveOne(t, s1, "/views/report?date=d1")
	if code != http.StatusOK || state != "miss" {
		t.Fatalf("first instance: %d/%s", code, state)
	}
	if err := s1.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}

	s2, m2 := warmServer(t, cat, Config{CacheDir: dir})
	n, err := s2.LoadCache(dir)
	if err != nil {
		t.Fatalf("LoadCache: %v", err)
	}
	if n != 1 {
		t.Fatalf("installed %d entries, want 1", n)
	}
	if r := counter(m2, "aig_serve_cache_persist_restored_total"); r != 1 {
		t.Errorf("restored counter %d, want 1 (stamp should match exactly)", r)
	}
	code, body2, state := serveOne(t, s2, "/views/report?date=d1")
	if code != http.StatusOK || state != "hit" {
		t.Fatalf("restarted instance: %d/%s, want 200/hit", code, state)
	}
	if body2 != body1 {
		t.Fatal("restored entry serves a different document")
	}
	if evals := counter(m2, "aig_serve_evaluations_total"); evals != 0 {
		t.Errorf("restart re-evaluated %d times; the restored entry should have served", evals)
	}
}

// TestWarmRestartRevalidatesIrrelevantMutation: data moved while the
// daemon was down, but the delta judge proves it irrelevant for the
// cached binding, so the entry is revalidated — installed under the new
// stamp — and still serves without an evaluation.
func TestWarmRestartRevalidatesIrrelevantMutation(t *testing.T) {
	cat := hospital.TinyCatalog()
	dir := t.TempDir()

	s1, _ := warmServer(t, cat, Config{CacheDir: dir})
	_, body1, _ := serveOne(t, s1, "/views/report?date=d1")
	if err := s1.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}

	// Lands between stop and start: a visit on another date, excluded by
	// the root-bound date predicate on every visitInfo scan.
	tableOf(t, cat, "DB1", "visitInfo").MustInsert(relstore.Tuple{
		relstore.String("s2"), relstore.String("t4"), relstore.String("d9")})

	s2, m2 := warmServer(t, cat, Config{CacheDir: dir})
	if n, err := s2.LoadCache(dir); err != nil || n != 1 {
		t.Fatalf("LoadCache: n=%d err=%v", n, err)
	}
	if r := counter(m2, "aig_serve_cache_persist_revalidated_total"); r != 1 {
		t.Errorf("revalidated counter %d, want 1", r)
	}
	code, body2, state := serveOne(t, s2, "/views/report?date=d1")
	if code != http.StatusOK || state != "hit" {
		t.Fatalf("restarted instance: %d/%s, want 200/hit", code, state)
	}
	if body2 != body1 {
		t.Fatal("revalidated entry serves a different document")
	}
	if evals := counter(m2, "aig_serve_evaluations_total"); evals != 0 {
		t.Errorf("revalidation re-evaluated %d times", evals)
	}
}

// TestWarmRestartNeverServesStaleBytes: a *relevant* mutation lands
// while the daemon is down. The persisted entry's stamp no longer
// matches and the judge cannot prove the delta irrelevant, so the entry
// is dropped; the first request misses, evaluates, and reflects the
// mutation.
func TestWarmRestartNeverServesStaleBytes(t *testing.T) {
	cat := hospital.TinyCatalog()
	dir := t.TempDir()

	s1, _ := warmServer(t, cat, Config{CacheDir: dir})
	_, body1, _ := serveOne(t, s1, "/views/report?date=d1")
	if strings.Contains(body1, "zed") {
		t.Fatal("new patient present before the mutation")
	}
	if err := s1.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}

	tableOf(t, cat, "DB1", "patient").MustInsert(relstore.Tuple{
		relstore.String("s9"), relstore.String("zed"), relstore.String("gold")})
	tableOf(t, cat, "DB1", "visitInfo").MustInsert(relstore.Tuple{
		relstore.String("s9"), relstore.String("t1"), relstore.String("d1")})

	s2, m2 := warmServer(t, cat, Config{CacheDir: dir})
	if n, err := s2.LoadCache(dir); err != nil || n != 0 {
		t.Fatalf("LoadCache installed %d entries (err %v), want 0 — the entry is stale", n, err)
	}
	if d := counter(m2, "aig_serve_cache_persist_dropped_total"); d != 1 {
		t.Errorf("dropped counter %d, want 1", d)
	}
	code, body2, state := serveOne(t, s2, "/views/report?date=d1")
	if code != http.StatusOK || state != "miss" {
		t.Fatalf("restarted instance: %d/%s, want 200/miss", code, state)
	}
	if !strings.Contains(body2, "zed") {
		t.Fatal("restarted instance served stale bytes: mutation missing from the document")
	}
}

// TestLoadCacheMissingAndCorrupt: a missing dump is a cold start; a
// corrupt dump is an error, not a panic or a silent stale install.
func TestLoadCacheMissingAndCorrupt(t *testing.T) {
	cat := hospital.TinyCatalog()
	s, _ := warmServer(t, cat, Config{})
	if n, err := s.LoadCache(t.TempDir()); n != 0 || err != nil {
		t.Fatalf("missing dump: n=%d err=%v, want 0/nil", n, err)
	}
}

// editedSpec is the hospital view with pname bound to the patient's SSN:
// the same name, another grammar, another document.
var editedSpec = strings.Replace(hospital.SpecText,
	"child pname set val = inh(patient).pname", "child pname set val = inh(patient).SSN", 1)

// A view registered again under its name never serves its predecessor's
// entry: the next request is a miss that evaluates the new grammar, and
// a refresh cycle drops the predecessor's entry.
func TestReplacedViewNeverServesPredecessorEntry(t *testing.T) {
	s, _ := warmServer(t, hospital.TinyCatalog(), Config{})
	_, body1, _ := serveOne(t, s, "/views/report?date=d1")
	if _, err := s.AddSpec("report", editedSpec); err != nil {
		t.Fatal(err)
	}
	code, body2, state := serveOne(t, s, "/views/report?date=d1")
	if code != http.StatusOK || state != "miss" {
		t.Fatalf("after replacing the view: %d/%s, want 200/miss", code, state)
	}
	if body2 == body1 {
		t.Fatal("the replaced view serves its predecessor's document")
	}
	r := &refresher{s: s, stop: make(chan struct{}), dirtyAt: make(map[string]time.Time)}
	r.cycle()
	if n := s.cache.Len(); n != 1 {
		t.Errorf("%d cache entries after a refresh cycle, want only the new view's", n)
	}
}

// A dumped entry of a view whose spec was edited across the restart is
// dropped at load, not restored, and the first request evaluates the
// edited grammar.
func TestWarmRestartDropsEntriesOfEditedView(t *testing.T) {
	cat := hospital.TinyCatalog()
	dir := t.TempDir()

	s1, _ := warmServer(t, cat, Config{CacheDir: dir})
	_, body1, _ := serveOne(t, s1, "/views/report?date=d1")
	if err := s1.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}

	s2, m2 := warmServer(t, cat, Config{CacheDir: dir})
	if _, err := s2.AddSpec("report", editedSpec); err != nil {
		t.Fatal(err)
	}
	if n, err := s2.LoadCache(dir); err != nil || n != 0 {
		t.Fatalf("LoadCache: installed %d (err %v), want 0", n, err)
	}
	if d := counter(m2, "aig_serve_cache_persist_dropped_total"); d != 1 {
		t.Errorf("dropped counter %d, want 1", d)
	}
	code, body2, state := serveOne(t, s2, "/views/report?date=d1")
	if code != http.StatusOK || state != "miss" {
		t.Fatalf("restarted instance: %d/%s, want 200/miss", code, state)
	}
	if body2 == body1 {
		t.Fatal("the edited view serves the old document")
	}
}
