package main

import (
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"github.com/aigrepro/aig/internal/datagen"
)

// TestSmoke runs every workload in both modes for one second on the tiny
// catalog with the correctness gate on. runOne itself fails when a metric
// BENCHMARK.json declares is missing or one it does not declare was
// measured, so a passing run has emitted each declared name exactly once.
func TestSmoke(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	decl, err := loadDeclaration(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	daemon, err := buildDaemon(root, out)
	if err != nil {
		t.Fatal(err)
	}
	b := &bench{root: root, outDir: out, decl: decl, daemon: daemon, env: environment(root),
		size: datagen.Tiny, paperSize: datagen.Tiny, seed: 7, seconds: 1}
	if len(decl.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(decl.Workloads), len(workloadNames))
	}
	for i, w := range decl.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json says %q, the benchmark %q", i, w.Name, workloadNames[i])
		}
		for mode, decls := range [][]metricDecl{decl.EndToEnd, decl.PerLayer} {
			res, err := b.runOne(w.Name, mode)
			if err != nil {
				t.Fatalf("%s -trace %d: %v", w.Name, mode, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s -trace %d: correct=%v attempted=%d failed=%d", w.Name, mode, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(decls) {
				t.Errorf("%s -trace %d: %d metrics in the result, %d declared", w.Name, mode, len(res.Metrics), len(decls))
			}
			if mode == 0 {
				for name, v := range res.Metrics {
					if v.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %g, must never be 0", w.Name, name, v.Value)
					}
				}
			}
		}
		if _, err := os.Stat(filepath.Join(out, "trace-"+w.Name+".json")); err != nil {
			t.Errorf("no trace file for %s: %v", w.Name, err)
		}
	}
}

// TestDeclarationMeetsContract holds BENCHMARK.json to the limits the
// driver refuses a file over.
func TestDeclarationMeetsContract(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	decl, err := loadDeclaration(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if decl.RunSeconds < 1 || decl.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", decl.RunSeconds)
	}
	if n := len(decl.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if n := len(decl.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(decl.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	seen := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is outside the contract's alphabet or length", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, w := range decl.Workloads {
		check(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, m := range decl.EndToEnd {
		check(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g", m.Name, m.Bound)
		}
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			hasSetup = true
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range append(append([]metricDecl(nil), decl.EndToEnd...), decl.PerLayer...) {
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
	for _, m := range decl.PerLayer {
		check(m.Name)
	}
}
