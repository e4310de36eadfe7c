package serve

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/aigrepro/aig/internal/hospital"
	"github.com/aigrepro/aig/internal/obs"
	"github.com/aigrepro/aig/internal/source"
)

// sickSource wraps a source with a controllable health verdict.
type sickSource struct {
	source.Source
	err error
}

func (s *sickSource) Healthy() error { return s.err }

// TestHealthzReadiness walks /healthz through its states: not ready
// before views are prepared, ok once they are, not ready again when a
// health-reporting source degrades.
func TestHealthzReadiness(t *testing.T) {
	cat := hospital.TinyCatalog()
	reg := source.NewRegistry()
	sick := make(map[string]*sickSource)
	for _, name := range cat.DatabaseNames() {
		db, err := cat.Database(name)
		if err != nil {
			t.Fatal(err)
		}
		ss := &sickSource{Source: source.NewLocal(db)}
		sick[name] = ss
		reg.Add(ss)
	}
	s := NewServer(reg, Config{Metrics: obs.NewRegistry()})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	// No prepared views: the replica cannot answer anything useful yet,
	// so a router must not send it traffic.
	code, body, _ := get(t, ts.URL+"/healthz")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "no views") {
		t.Fatalf("healthz before views = %d %q, want 503 no views", code, body)
	}

	if _, err := s.AddSpec("report", hospital.SpecText); err != nil {
		t.Fatal(err)
	}
	if code, body, _ := get(t, ts.URL+"/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("healthz ready = %d %q, want 200 ok", code, body)
	}

	// A degraded source (mirror behind, remote engine gone) makes the
	// whole replica not ready, with the reason in the body.
	sick["DB1"].err = errors.New("mirror not synced")
	code, body, _ = get(t, ts.URL+"/healthz")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "DB1") || !strings.Contains(body, "mirror not synced") {
		t.Fatalf("healthz with sick source = %d %q, want 503 naming DB1", code, body)
	}
	sick["DB1"].err = nil
	if code, _, _ := get(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz after recovery = %d, want 200", code)
	}
}

// TestHealthzDrainRetryAfter checks the drain signal: 503 plus a
// Retry-After hint, so well-behaved balancers back off but keep probing.
func TestHealthzDrainRetryAfter(t *testing.T) {
	s, ts, _, _ := testServer(t, Config{}, nil)
	go s.Drain(t.Context())
	waitFor(t, "drain to begin", func() bool { return s.draining.Load() })

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining = %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("healthz while draining lacks Retry-After")
	}
}
