//go:build integration

package proctest_test

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"testing"

	"github.com/aigrepro/aig/internal/proctest"
)

// TestRestart stops and restarts the whole durable deployment — a TCP
// aigsource with -data-dir and aigd with -state-dir and -cache-dir —
// twice, each stop a SIGTERM drain that must exit 0.
//
//  1. Nothing changed while down: before any request the restarted daemon
//     reports restored cache entries, and the first request is a hit with
//     the same bytes and no evaluation.
//  2. A mutation landed while down (aigsource -apply on the source's
//     durable state): the persisted entry is dropped at load, and the
//     first request is a miss whose document shows the write.
func TestRestart(t *testing.T) {
	const probeName = "zzz-restart-probe"
	aigd, aigsource := proctest.Build(t, "aigd", false), proctest.Build(t, "aigsource", false)
	data, db1 := tinyData(t)
	dir := t.TempDir()
	state, cache := filepath.Join(dir, "state"), filepath.Join(dir, "cache")
	srcAddr, addr := proctest.FreeAddr(t), proctest.FreeAddr(t)
	base := "http://" + addr
	doc := base + "/views/report?date=d001"

	// After the first start the CSV seed is ignored: the state recovers.
	startAll := func() (src, d *proctest.Proc) {
		src = start(t, proctest.TCPReady(srcAddr), aigsource, "-name", "DB1", "-data", db1,
			"-data-dir", filepath.Join(state, "DB1"), "-fsync", "always", "-listen", srcAddr)
		d = start(t, proctest.HTTPReady(base), aigd, "-addr", addr,
			"-view", "report="+specFile(t), "-data", data, "-state-dir", state,
			"-source", "DB1="+srcAddr, "-cache-dir", cache)
		return src, d
	}
	// aigd drains (saving the cache), the source snapshots.
	stopAll := func(src, d *proctest.Proc) {
		stop(t, d)
		stop(t, src)
	}

	src, d := startAll()
	if r := get(t, doc); r.Cache() != "miss" {
		t.Fatalf("first request: cache %q, want miss", r.Cache())
	}
	warm := get(t, doc)
	if warm.Cache() != "hit" {
		t.Fatalf("repeat before the restart: cache %q, want hit", warm.Cache())
	}
	if contains(warm.Body, probeName) {
		t.Fatal("probe name present before the mutation; the test would prove nothing")
	}
	stopAll(src, d)

	// Phase 1: warm restart, nothing changed.
	src, d = startAll()
	if n := metric(t, base, "aig_serve_cache_persist_restored_total"); n < 1 {
		t.Fatalf("restored cache entries after restart = %v, want >= 1\n%s", n, d.Output())
	}
	r := get(t, doc)
	if r.Cache() != "hit" {
		t.Fatalf("first request after restart: cache %q, want hit", r.Cache())
	}
	if !bytes.Equal(r.Body, warm.Body) {
		t.Fatal("restored entry served different bytes")
	}
	if n := metric(t, base, "aig_serve_evaluations_total"); n != 0 {
		t.Fatalf("warm restart paid %v evaluations, want 0", n)
	}
	stopAll(src, d)

	// Phase 2: a mutation lands while everything is down.
	for _, m := range []string{"patient:insert:s999999," + probeName + ",p000001", "visitInfo:insert:s999999,t000001,d001"} {
		out, err := exec.Command(aigsource, "-name", "DB1", "-data-dir", filepath.Join(state, "DB1"),
			"-fsync", "always", "-apply", m).CombinedOutput()
		if err != nil {
			t.Fatalf("aigsource -apply %s: %v\n%s", m, err, out)
		}
	}
	src, d = startAll()
	if n := metric(t, base, "aig_serve_cache_persist_dropped_total"); n < 1 {
		t.Fatalf("stale entries dropped at load = %v, want >= 1", n)
	}
	r = get(t, doc)
	if r.Cache() != "miss" {
		t.Fatalf("request after the offline mutation: cache %q, want miss (stale entry served)", r.Cache())
	}
	if !contains(r.Body, probeName) {
		t.Fatal("the mutation applied while down is missing from the document")
	}
	stopAll(src, d)
}
