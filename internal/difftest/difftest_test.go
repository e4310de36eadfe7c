package difftest

import (
	"strings"
	"testing"

	"github.com/aigrepro/aig/internal/randaig"
	"github.com/aigrepro/aig/internal/xmltree"
)

// oracleSeeds is the fixed deterministic seed range the main oracle test
// sweeps. CI and local runs see the exact same instances.
const oracleSeeds = 220

// TestDifferentialOracle pushes every generated instance through the
// full (non-remote) oracle matrix: conceptual vs specialized vs the
// mediator option cross-product vs runtime re-unrolling, plus the
// constraint and DTD-conformance cross-checks.
func TestDifferentialOracle(t *testing.T) {
	n := oracleSeeds
	if testing.Short() {
		n = 40
	}
	cfg := randaig.DefaultConfig()
	var evals, aborted, recursive int
	for seed := int64(0); seed < int64(n); seed++ {
		inst, err := randaig.Generate(seed, cfg)
		if err != nil {
			t.Fatalf("seed %d: generate: %v", seed, err)
		}
		out := Check(inst, Options{})
		if out.Divergence != nil {
			t.Fatalf("seed %d diverged:\n%s", seed, out.Divergence.Error())
		}
		evals += out.Evals
		if out.Aborted {
			aborted++
		}
		if inst.Recursive {
			recursive++
		}
	}
	// The sweep must exercise both the abort path and recursion legs.
	if aborted == 0 {
		t.Error("no instance aborted on a compiled guard — constraint leg untested")
	}
	if recursive == 0 {
		t.Error("no recursive instance — EvaluateRecursive leg untested")
	}
	t.Logf("%d instances, %d oracle evaluations, %d aborts, %d recursive", n, evals, aborted, recursive)
}

// TestRemoteLeg repeats a slice of the sweep with TCP-served sources.
func TestRemoteLeg(t *testing.T) {
	n := 12
	if testing.Short() {
		n = 3
	}
	cfg := randaig.DefaultConfig()
	for seed := int64(0); seed < int64(n); seed++ {
		inst, err := randaig.Generate(seed, cfg)
		if err != nil {
			t.Fatalf("seed %d: generate: %v", seed, err)
		}
		out := Check(inst, Options{Remote: true})
		if out.Divergence != nil {
			t.Fatalf("seed %d diverged:\n%s", seed, out.Divergence.Error())
		}
	}
}

// faultLeg is the mediator cell the fault-injection test corrupts.
const faultLeg = "mediator[merge=true,copyelim=false,sched=fifo]"

// breakLeg deterministically corrupts one mediator leg's document,
// simulating an evaluator bug confined to one option combination.
func breakLeg(leg string, doc *xmltree.Node) {
	if leg == faultLeg {
		doc.Children = append(doc.Children, xmltree.NewElement("injected_bug"))
	}
}

// TestFaultInjection proves the oracle catches a single-leg bug, that
// Shrink minimizes the failing instance while preserving the
// divergence, and that the {seed, config, ops} triple replays.
func TestFaultInjection(t *testing.T) {
	opts := Options{Fault: breakLeg}
	cfg := randaig.DefaultConfig()
	inst, err := randaig.Generate(0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := Check(inst, opts)
	if out.Divergence == nil {
		t.Fatal("injected fault not detected")
	}
	if out.Divergence.Leg != faultLeg {
		t.Fatalf("divergence on leg %q, want %q", out.Divergence.Leg, faultLeg)
	}

	res := Shrink(inst, opts, out.Divergence, 120)
	if res.Divergence == nil || res.Divergence.Leg != faultLeg {
		t.Fatalf("shrink lost the divergence: %+v", res.Divergence)
	}
	if res.Checks == 0 {
		t.Fatal("shrink performed no checks")
	}
	// The injected bug is instance-independent, so shrinking must strip
	// all constraints and empty at least one table.
	if len(res.Instance.AIG.Constraints) != 0 {
		t.Errorf("shrunk instance still has %d constraints", len(res.Instance.AIG.Constraints))
	}
	shrunkRows, origRows := totalRows(res.Instance), totalRows(inst)
	if shrunkRows >= origRows {
		t.Errorf("shrink did not reduce rows: %d >= %d", shrunkRows, origRows)
	}
	t.Logf("shrunk with %d ops in %d checks: rows %d -> %d", len(res.Ops), res.Checks, origRows, shrunkRows)

	// Replay from the persisted triple.
	reg := Regression{Seed: inst.Seed, Config: cfg, Ops: res.Ops, Leg: faultLeg}
	replayed, err := reg.Instance()
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	again := Check(replayed, opts)
	if again.Divergence == nil || again.Divergence.Leg != faultLeg {
		t.Fatalf("replayed instance does not reproduce: %+v", again.Divergence)
	}
	// Without the fault the shrunken instance is healthy: the divergence
	// came from the injected bug, not from the shrink ops.
	if clean := Check(replayed, Options{}); clean.Divergence != nil {
		t.Fatalf("shrunk instance diverges without the fault:\n%s", clean.Divergence.Error())
	}
}

func totalRows(inst *randaig.Instance) int {
	var n int
	for _, dbn := range inst.Catalog.DatabaseNames() {
		db, err := inst.Catalog.Database(dbn)
		if err != nil {
			continue
		}
		for _, tn := range db.TableNames() {
			if tab, err := db.Table(tn); err == nil {
				n += tab.Len()
			}
		}
	}
	return n
}

// TestRegressions replays the persisted corpus: every filed instance
// must stay divergence-free (each file records a since-fixed bug).
func TestRegressions(t *testing.T) {
	corpus, err := LoadCorpus("testdata/regressions")
	if err != nil {
		t.Fatal(err)
	}
	if len(corpus) == 0 {
		t.Skip("empty regression corpus")
	}
	for name, reg := range corpus {
		t.Run(name, func(t *testing.T) {
			div, err := reg.Replay()
			if err != nil {
				t.Fatalf("replay: %v", err)
			}
			if div != nil {
				t.Fatalf("regression resurfaced (note: %s):\n%s", reg.Note, div.Error())
			}
		})
	}
}

// TestReplayEveryMode files one clean regression per oracle mode for a
// single seed, replays each through the corpus, and requires a
// misspelt mode to fail instead of silently replaying another oracle.
func TestReplayEveryMode(t *testing.T) {
	const seed = 7
	cfg := randaig.DefaultConfig()
	inst, err := randaig.Generate(seed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	muts := GenerateMutations(inst, seed, 10)
	paths := GenerateFragmentPaths(inst, seed, 3)
	if len(muts) == 0 || len(paths) == 0 {
		t.Fatalf("seed %d: %d mutations, %d paths", seed, len(muts), len(paths))
	}
	rcfg := RecoverConfig{Mutations: 8}
	regs := map[string]Regression{
		"matrix":   {Seed: seed, Config: cfg},
		"ivm":      {Seed: seed, Config: cfg, Mode: "ivm", Mutations: muts, LogCap: 2},
		"certify":  {Seed: seed, Config: cfg, Mode: "certify", Mutations: muts},
		"fragment": {Seed: seed, Config: cfg, Mode: "fragment", Mutations: muts, Paths: paths},
		"recover":  {Seed: seed, Mode: "recover", RecoverOps: GenerateRecoverOps(seed, rcfg), RecoverCfg: &rcfg},
		"misspelt": {Seed: seed, Config: cfg, Mode: "fragments", Mutations: muts, Paths: paths},
	}
	dir := t.TempDir()
	for name, reg := range regs {
		reg.Note = name
		if _, err := SaveRegression(dir, reg); err != nil {
			t.Fatal(err)
		}
	}
	corpus, err := LoadCorpus(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(corpus) != len(regs) {
		t.Fatalf("loaded %d regressions, want %d", len(corpus), len(regs))
	}
	for file, reg := range corpus {
		div, err := reg.Replay()
		switch {
		case reg.Note == "misspelt":
			if err == nil || !strings.Contains(err.Error(), `unknown regression mode "fragments"`) {
				t.Errorf("%s: misspelt mode replayed with err=%v, div=%v", file, err, div)
			}
		case err != nil:
			t.Errorf("%s (%s): replay: %v", file, reg.Note, err)
		case div != nil:
			t.Errorf("%s (%s): diverged:\n%s", file, reg.Note, div.Error())
		}
	}
}

// TestCorpusRoundTrip checks Save/Load fidelity in a temp dir.
func TestCorpusRoundTrip(t *testing.T) {
	dir := t.TempDir()
	reg := Regression{
		Seed:   42,
		Config: randaig.DefaultConfig(),
		Ops:    []randaig.Op{{Kind: randaig.OpDropConstraint, Index: 0}},
		Leg:    "mediator[net=slow]",
		Note:   "example",
	}
	path, err := SaveRegression(dir, reg)
	if err != nil {
		t.Fatal(err)
	}
	// A second save under the same seed must not clobber the first.
	path2, err := SaveRegression(dir, reg)
	if err != nil {
		t.Fatal(err)
	}
	if path == path2 {
		t.Fatalf("second save reused path %s", path)
	}
	corpus, err := LoadCorpus(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(corpus) != 2 {
		t.Fatalf("loaded %d entries, want 2", len(corpus))
	}
	got := corpus["seed-42.json"]
	if got.Seed != reg.Seed || got.Leg != reg.Leg || len(got.Ops) != 1 {
		t.Fatalf("round-trip mismatch: %+v", got)
	}
}
