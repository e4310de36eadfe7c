package serve

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/aigrepro/aig/internal/hospital"
	"github.com/aigrepro/aig/internal/obs"
	"github.com/aigrepro/aig/internal/source"
)

// BenchmarkWarmHit measures the handler's warm cache-hit path — the one
// the smoke script's overhead guard gates — with the flight recorder off
// and with it on but sampling off (every request traced, every healthy
// fast trace dropped at completion).
func BenchmarkWarmHit(b *testing.B) {
	for _, bc := range []struct {
		name string
		cfg  Config
	}{
		{"recorder-off", Config{}},
		{"recorder-on-sampling-off", Config{FlightRecorder: true, TraceSampleRate: -1, TraceSlowThreshold: -1}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			hit := warmHit(b, bc.cfg)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				hit()
			}
		})
	}
}

// warmHit serves the hospital report for one date once, so its entry is
// cached, and returns a function that requests it again: one warm hit.
func warmHit(tb testing.TB, cfg Config) func() {
	tb.Helper()
	cat := hospital.TinyCatalog()
	reg := source.NewRegistry()
	for _, name := range cat.DatabaseNames() {
		db, err := cat.Database(name)
		if err != nil {
			tb.Fatal(err)
		}
		reg.Add(source.NewLocal(db))
	}
	cfg.Metrics = obs.NewRegistry()
	s := NewServer(reg, cfg)
	if _, err := s.AddSpec("report", hospital.SpecText); err != nil {
		tb.Fatal(err)
	}
	h := s.Handler()
	req := httptest.NewRequest(http.MethodGet, "/views/report?date=d1", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		tb.Fatalf("warmup status %d", rec.Code)
	}
	return func() { h.ServeHTTP(httptest.NewRecorder(), req) }
}
