package difftest

import (
	"testing"

	"github.com/aigrepro/aig/internal/mediator"
	"github.com/aigrepro/aig/internal/randaig"
	"github.com/aigrepro/aig/internal/specialize"
	"github.com/aigrepro/aig/internal/xpath"
)

// fragSeeds is the deterministic seed range the fragment oracle sweeps.
const fragSeeds = 40

// TestFragmentOracle sweeps generated instances through the fragment
// oracle: for every generated path, after every mutation, the partial
// evaluator's fragment and the pruned plan's must byte-equal the post-hoc
// oracle, and the filtered-deps judge must never rule a fragment-changing
// delta irrelevant. The sweep must exercise both maintenance verdicts.
func TestFragmentOracle(t *testing.T) {
	n := fragSeeds
	muts := 15
	if testing.Short() {
		n, muts = 10, 8
	}
	var steps, checks, restamps, fulls, planSkips, skipped, pathless int
	cfg := randaig.DefaultConfig()
	for seed := int64(0); seed < int64(n); seed++ {
		inst, err := randaig.Generate(seed, cfg)
		if err != nil {
			t.Fatalf("seed %d: generate: %v", seed, err)
		}
		paths := GenerateFragmentPaths(inst, seed, 3)
		if len(paths) == 0 {
			pathless++
			continue
		}
		seq := GenerateMutations(inst, seed, muts)
		out := CheckFragment(inst, paths, seq, FragmentOptions{})
		if out.Divergence != nil {
			t.Fatalf("seed %d (paths %q) diverged:\n%s", seed, paths, out.Divergence.Error())
		}
		if out.Skipped {
			skipped++
			continue
		}
		steps += out.Steps
		checks += out.Checks
		restamps += out.Restamps
		fulls += out.Fulls
		planSkips += out.PlanSkips
	}
	if checks == 0 {
		t.Fatal("no path comparison ran across the whole sweep")
	}
	if steps == 0 {
		t.Fatal("no mutation applied across the whole sweep")
	}
	if restamps == 0 {
		t.Error("no delta was ever proven irrelevant for a fragment — restamp path untested")
	}
	if fulls == 0 {
		t.Error("no delta ever invalidated a fragment — rebuild path untested")
	}
	if planSkips*10 > checks {
		t.Errorf("the pruned-plan leg had no reference in %d of %d comparisons", planSkips, checks)
	}
	t.Logf("%d instances (%d skipped, %d without paths), %d steps, %d comparisons (%d without a pruned-plan reference): %d restamps, %d rebuilds",
		n, skipped, pathless, steps, checks, planSkips, restamps, fulls)
}

// TestGenerateFragmentPathsDeterministicAndValid requires the path
// generator to be deterministic per seed and every emitted expression to
// round-trip through the parser.
func TestGenerateFragmentPathsDeterministicAndValid(t *testing.T) {
	inst, err := randaig.Generate(5, randaig.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	first := GenerateFragmentPaths(inst, 5, 8)
	second := GenerateFragmentPaths(inst, 5, 8)
	if len(first) == 0 {
		t.Fatal("generator produced no paths")
	}
	if len(first) != len(second) {
		t.Fatalf("generator not deterministic: %d vs %d paths", len(first), len(second))
	}
	for i, expr := range first {
		if expr != second[i] {
			t.Fatalf("path %d differs across runs: %q vs %q", i, expr, second[i])
		}
		p, err := xpath.Parse(expr)
		if err != nil {
			t.Fatalf("generated path %q does not parse: %v", expr, err)
		}
		if rt, err := xpath.Parse(p.String()); err != nil || rt.String() != p.String() {
			t.Fatalf("canonical form of %q does not round-trip: %q (%v)", expr, p.String(), err)
		}
	}
}

// corruptChanged is a fault that corrupts every fragment differing from
// the one the partial evaluator emits for the same path on the
// unmutated instance, so only a fragment-changing mutation trips it.
func corruptChanged(inst *randaig.Instance, paths []string) FragmentOptions {
	base := make(map[string]string)
	CheckFragment(inst, paths, nil, FragmentOptions{Fault: func(path, got string) string {
		base[path] = got
		return got
	}})
	return FragmentOptions{Fault: func(path, got string) string {
		if got != base[path] {
			return got + "<corrupt/>"
		}
		return got
	}}
}

// TestFragmentFaultInjection corrupts the partial evaluator's output
// once a mutation changed it and proves the oracle reports it, ddmin
// shrinks the mutation sequence while preserving the divergence's leg,
// and the persisted regression replays under the fault but is clean
// without it.
func TestFragmentFaultInjection(t *testing.T) {
	cfg := randaig.DefaultConfig()

	var inst *randaig.Instance
	var paths []string
	var seq []Mutation
	var opts FragmentOptions
	var out FragmentOutcome
	for seed := int64(0); seed < 30; seed++ {
		cand, err := randaig.Generate(seed, cfg)
		if err != nil {
			t.Fatalf("seed %d: generate: %v", seed, err)
		}
		ps := GenerateFragmentPaths(cand, seed, 4)
		if len(ps) == 0 {
			continue
		}
		s := GenerateMutations(cand, seed, 12)
		fault := corruptChanged(cand, ps)
		o := CheckFragment(cand, ps, s, fault)
		if o.Divergence != nil {
			inst, paths, seq, opts, out = cand, ps, s, fault, o
			break
		}
	}
	if inst == nil {
		t.Fatal("no seed in range produced a matching fragment under the corrupted evaluator")
	}
	if out.Divergence.Leg != "fragment" {
		t.Fatalf("divergence on leg %q, want fragment", out.Divergence.Leg)
	}

	shrunk, div, checks := ddmin(seq, "fragment", 150, func(muts []Mutation) *Divergence {
		return CheckFragment(inst, paths, muts, opts).Divergence
	})
	if div == nil || div.Leg != "fragment" {
		t.Fatalf("shrink lost the fragment divergence: %v", div)
	}
	if len(shrunk) >= len(seq) {
		t.Errorf("shrink did not reduce the sequence: %d >= %d", len(shrunk), len(seq))
	}
	t.Logf("shrunk %d -> %d mutations in %d checks", len(seq), len(shrunk), checks)

	// Persist and replay the {seed, config, paths, mutations} quadruple.
	dir := t.TempDir()
	reg := Regression{
		Seed: inst.Seed, Config: cfg, Mode: "fragment",
		Paths: paths, Mutations: shrunk, Leg: "fragment", Note: "injected corrupt partial evaluator",
	}
	if _, err := SaveRegression(dir, reg); err != nil {
		t.Fatal(err)
	}
	corpus, err := LoadCorpus(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, loaded := range corpus {
		replayed, err := loaded.Instance()
		if err != nil {
			t.Fatalf("replay: %v", err)
		}
		again := CheckFragment(replayed, loaded.Paths, loaded.Mutations, opts)
		if again.Divergence == nil {
			t.Fatal("replayed regression does not reproduce under the fault")
		}
		// Without the fault the same run must be clean: the mismatch came
		// from the injected corruption, not the shrink.
		clean := CheckFragment(replayed, loaded.Paths, loaded.Mutations, FragmentOptions{})
		if clean.Divergence != nil {
			t.Fatalf("shrunk sequence diverges without the fault:\n%s", clean.Divergence.Error())
		}
	}
}

// TestFragmentDeterministicReplay re-runs the same {instance, paths,
// mutations} triple and requires identical outcomes — CheckFragment must
// not leak state into the instance it was handed.
func TestFragmentDeterministicReplay(t *testing.T) {
	inst, err := randaig.Generate(7, randaig.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	paths := GenerateFragmentPaths(inst, 7, 3)
	if len(paths) == 0 {
		t.Skip("seed 7 produced no paths")
	}
	seq := GenerateMutations(inst, 7, 10)
	first := CheckFragment(inst, paths, seq, FragmentOptions{})
	second := CheckFragment(inst, paths, seq, FragmentOptions{})
	if first.Divergence != nil || second.Divergence != nil {
		t.Fatalf("unexpected divergence: %+v / %+v", first.Divergence, second.Divergence)
	}
	if first.Steps != second.Steps || first.Checks != second.Checks ||
		first.Restamps != second.Restamps || first.Fulls != second.Fulls {
		t.Fatalf("outcomes differ across replays: %+v vs %+v", first, second)
	}
}

// dropMatched is a pruning fault: it drops every edge into a type the
// path's last step names, so the contexts of the matches go.
type dropMatched struct {
	mediator.Verdict
	name string
}

func (d dropMatched) Keep(parent, child string) bool {
	return specialize.ReplicaOf(child) != d.name && d.Verdict.Keep(parent, child)
}

// keepAll is a pruning fault that keeps the whole document, queries the
// path's deps do not judge included.
type keepAll struct{ mediator.Verdict }

func (keepAll) Keep(string, string) bool { return true }

// TestFragmentPlanFaultInjection: the pruned-plan leg fails when the
// verdict drops contexts the fragment reads, and when the plan queries a
// table for a rule the path-filtered deps do not judge.
func TestFragmentPlanFaultInjection(t *testing.T) {
	faults := map[string]func(path string, v mediator.Verdict) mediator.Verdict{
		"drop": func(path string, v mediator.Verdict) mediator.Verdict {
			p, _ := xpath.Parse(path)
			return dropMatched{v, p.Steps[len(p.Steps)-1].Name}
		},
		"keep-all": func(_ string, v mediator.Verdict) mediator.Verdict { return keepAll{v} },
	}
	for name, fault := range faults {
		caught := false
		for seed := int64(0); seed < 30 && !caught; seed++ {
			inst, err := randaig.Generate(seed, randaig.DefaultConfig())
			if err != nil {
				t.Fatalf("seed %d: generate: %v", seed, err)
			}
			paths := GenerateFragmentPaths(inst, seed, 4)
			if len(paths) == 0 {
				continue
			}
			out := CheckFragment(inst, paths, nil, FragmentOptions{PlanFault: fault})
			if out.Divergence != nil {
				if out.Divergence.Leg != "fragment-plan" {
					t.Fatalf("%s: divergence on leg %q, want fragment-plan:\n%s", name, out.Divergence.Leg, out.Divergence.Error())
				}
				caught = true
				t.Logf("%s: seed %d: %s", name, seed, out.Divergence.Detail)
			}
		}
		if !caught {
			t.Errorf("%s: no seed in range made the pruned-plan leg fail", name)
		}
	}
}
