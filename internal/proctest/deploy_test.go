//go:build integration

package proctest_test

import (
	"bytes"
	"net/http"
	"path/filepath"
	"testing"
	"time"

	"github.com/aigrepro/aig/internal/datagen"
	"github.com/aigrepro/aig/internal/proctest"
)

// The deployment tests run the mediator (aigd), its sources (aigsource)
// and the router (aigrouter) as separate processes on loopback ports.
// They share the helpers below.

// specFile is the hospital view the daemons serve.
func specFile(t *testing.T) string {
	t.Helper()
	p, err := filepath.Abs("../../examples/hospital/report.aig")
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// tinyData writes the tiny catalog (seed 42) as CSV directories, one per
// source, with DB1 apart from the others, since every deployment serves
// DB1 from an aigsource. It returns the others' directory and DB1's.
func tinyData(t *testing.T) (data, db1 string) {
	t.Helper()
	dir := t.TempDir()
	data = filepath.Join(dir, "data")
	cat := datagen.Generate(datagen.Tiny, 42)
	for _, name := range cat.DatabaseNames() {
		db, err := cat.Database(name)
		if err != nil {
			t.Fatal(err)
		}
		out := filepath.Join(data, name)
		if name == "DB1" {
			out = filepath.Join(dir, name)
		}
		if err := db.SaveDir(out); err != nil {
			t.Fatal(err)
		}
	}
	return data, filepath.Join(dir, "DB1")
}

// start is proctest.Start failing the test on error.
func start(t *testing.T, ready proctest.Ready, bin string, args ...string) *proctest.Proc {
	t.Helper()
	p, err := proctest.Start(t, ready, bin, args...)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// stop stops p and fails the test on a non-zero exit.
func stop(t *testing.T, p *proctest.Proc) {
	t.Helper()
	if err := p.Stop(); err != nil {
		t.Error(err)
	}
}

// get fetches url and fails the test unless it answers 200.
func get(t *testing.T, url string) proctest.Response {
	t.Helper()
	return want(t, http.StatusOK, "GET", url)
}

// post posts url and fails the test unless it answers 200.
func post(t *testing.T, url string) proctest.Response {
	t.Helper()
	return want(t, http.StatusOK, "POST", url)
}

// want sends one request and fails the test unless it answers status.
func want(t *testing.T, status int, method, url string) proctest.Response {
	t.Helper()
	r, err := proctest.Do(method, url)
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != status {
		t.Fatalf("%s %s: status %d, want %d: %s", method, url, r.Status, status, r.Body)
	}
	return r
}

// metric reads one series from base/metrics; an absent series reads 0.
func metric(t *testing.T, base, series string) float64 {
	t.Helper()
	m, err := proctest.Scrape(base)
	if err != nil {
		t.Fatal(err)
	}
	return m[series]
}

// checkLoad fails the test unless every request of the run was answered
// 200 and at least one was a cache hit.
func checkLoad(t *testing.T, what string, r proctest.LoadResult) {
	t.Helper()
	t.Logf("%s: %d requests in %.2fs (%.1f req/s), statuses %v (0: no answer), %d cache hits",
		what, r.Requests, r.Elapsed.Seconds(), r.Throughput(), r.Statuses, r.Hits)
	if !r.AllOK() || r.Hits == 0 {
		t.Fatalf("%s: want every request answered 200 and some cache hits", what)
	}
}

// contains reports whether body holds s.
func contains(body []byte, s string) bool { return bytes.Contains(body, []byte(s)) }

// waitFor polls cond every 20 ms and fails the test, naming what it
// waited for, if cond does not hold within d.
func waitFor(t *testing.T, what string, d time.Duration, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(d); !cond(); time.Sleep(20 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}
