package difftest

import (
	"testing"

	"github.com/aigrepro/aig/internal/ivm"
	"github.com/aigrepro/aig/internal/randaig"
)

// ivmSeeds is the deterministic seed range the IVM oracle sweeps.
const ivmSeeds = 60

// TestIVMOracle sweeps generated instances through the incremental
// maintenance oracle: after every mutation the judge-maintained document
// must match a from-scratch evaluation. The sweep must exercise both
// refresher paths — restamps (judge proved irrelevance) and full
// refreshes.
func TestIVMOracle(t *testing.T) {
	n := ivmSeeds
	muts := 25
	if testing.Short() {
		n, muts = 12, 10
	}
	var steps, restamps, fulls, skipped int
	cfg := randaig.DefaultConfig()
	for seed := int64(0); seed < int64(n); seed++ {
		inst, err := randaig.Generate(seed, cfg)
		if err != nil {
			t.Fatalf("seed %d: generate: %v", seed, err)
		}
		seq := GenerateMutations(inst, seed, muts)
		out := CheckIVM(inst, seq, IVMOptions{})
		if out.Divergence != nil {
			t.Fatalf("seed %d diverged:\n%s", seed, out.Divergence.Error())
		}
		if out.Skipped {
			skipped++
			continue
		}
		steps += out.Steps
		restamps += out.Restamps
		fulls += out.Fulls
	}
	if steps == 0 {
		t.Fatal("no mutation applied across the whole sweep")
	}
	if restamps == 0 {
		t.Error("no mutation was ever proven irrelevant — restamp path untested")
	}
	if fulls == 0 {
		t.Error("no mutation ever forced a full refresh — refresh path untested")
	}
	t.Logf("%d instances (%d skipped), %d steps: %d restamps, %d full refreshes", n, skipped, steps, restamps, fulls)
}

// TestIVMTruncationForcesFullRefresh disables delta logging, so every
// change window comes back truncated: the judge must refuse every proof
// and the maintained document must still track the oracle via full
// refreshes only.
func TestIVMTruncationForcesFullRefresh(t *testing.T) {
	cfg := randaig.DefaultConfig()
	var steps int
	for seed := int64(0); seed < 20 && steps == 0; seed++ {
		inst, err := randaig.Generate(seed, cfg)
		if err != nil {
			t.Fatalf("seed %d: generate: %v", seed, err)
		}
		seq := GenerateMutations(inst, seed, 12)
		out := CheckIVM(inst, seq, IVMOptions{LogCap: -1})
		if out.Divergence != nil {
			t.Fatalf("seed %d diverged:\n%s", seed, out.Divergence.Error())
		}
		if out.Skipped || out.Steps == 0 {
			continue
		}
		steps = out.Steps
		if out.Restamps != 0 {
			t.Fatalf("seed %d: %d restamps with delta logging disabled — judge accepted a truncated window", seed, out.Restamps)
		}
		if out.Truncated == 0 {
			t.Fatalf("seed %d: no truncated change window observed", seed)
		}
		if out.Fulls != out.Steps {
			t.Fatalf("seed %d: %d full refreshes for %d steps", seed, out.Fulls, out.Steps)
		}
	}
	if steps == 0 {
		t.Fatal("no seed produced an applicable mutation sequence")
	}
}

// TestIVMFaultInjection simulates an unsound judge (every verdict forced
// to Unaffected, so the cached document is never refreshed) and proves
// the oracle catches the resulting stale document, that ddmin
// minimizes the mutation sequence while preserving the divergence, and
// that the persisted regression replays.
func TestIVMFaultInjection(t *testing.T) {
	opts := IVMOptions{Fault: func(int, ivm.Verdict) ivm.Verdict { return ivm.Unaffected }}
	cfg := randaig.DefaultConfig()

	var inst *randaig.Instance
	var seq []Mutation
	var out IVMOutcome
	for seed := int64(0); seed < 30; seed++ {
		cand, err := randaig.Generate(seed, cfg)
		if err != nil {
			t.Fatalf("seed %d: generate: %v", seed, err)
		}
		s := GenerateMutations(cand, seed, 20)
		o := CheckIVM(cand, s, opts)
		if o.Divergence != nil {
			inst, seq, out = cand, s, o
			break
		}
	}
	if inst == nil {
		t.Fatal("no seed in range produced a document-changing mutation under the broken judge")
	}
	if out.Divergence.Leg != "ivm" {
		t.Fatalf("divergence on leg %q, want ivm", out.Divergence.Leg)
	}

	shrunk, div, checks := ddmin(seq, "ivm", 150, func(muts []Mutation) *Divergence {
		return CheckIVM(inst, muts, opts).Divergence
	})
	if div == nil || div.Leg != "ivm" {
		t.Fatalf("shrink lost the ivm divergence: %v", div)
	}
	if checks == 0 {
		t.Fatal("shrink performed no checks")
	}
	if len(shrunk) >= len(seq) {
		t.Errorf("shrink did not reduce the sequence: %d >= %d", len(shrunk), len(seq))
	}
	t.Logf("shrunk %d -> %d mutations in %d checks", len(seq), len(shrunk), checks)

	// Persist and replay the {seed, config, mutations} triple.
	dir := t.TempDir()
	reg := Regression{
		Seed: inst.Seed, Config: cfg, Mode: "ivm",
		Mutations: shrunk, Leg: "ivm", Note: "injected unsound judge",
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
		again := CheckIVM(replayed, loaded.Mutations, opts)
		if again.Divergence == nil {
			t.Fatal("replayed regression does not reproduce under the fault")
		}
		// With a sound judge the same sequence must be clean: the stale
		// document came from the injected fault, not the shrink.
		clean := CheckIVM(replayed, loaded.Mutations, IVMOptions{LogCap: loaded.LogCap})
		if clean.Divergence != nil {
			t.Fatalf("shrunk sequence diverges without the fault:\n%s", clean.Divergence.Error())
		}
	}
}

// TestIVMDeterministicReplay re-runs the same {instance, mutations} pair
// and requires identical outcomes — CheckIVM must not leak state into
// the instance it was handed.
func TestIVMDeterministicReplay(t *testing.T) {
	inst, err := randaig.Generate(3, randaig.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	seq := GenerateMutations(inst, 3, 15)
	first := CheckIVM(inst, seq, IVMOptions{})
	second := CheckIVM(inst, seq, IVMOptions{})
	if first.Divergence != nil || second.Divergence != nil {
		t.Fatalf("unexpected divergence: %+v / %+v", first.Divergence, second.Divergence)
	}
	if first.Steps != second.Steps || first.Restamps != second.Restamps || first.Fulls != second.Fulls {
		t.Fatalf("outcomes differ across replays: %+v vs %+v", first, second)
	}
	// The generator itself must be deterministic too.
	again := GenerateMutations(inst, 3, 15)
	if len(again) != len(seq) {
		t.Fatalf("generator not deterministic: %d vs %d mutations", len(again), len(seq))
	}
	for i := range seq {
		if seq[i].String() != again[i].String() {
			t.Fatalf("mutation %d differs: %s vs %s", i, seq[i], again[i])
		}
	}
}

// TestPlanCacheFaultInjection freezes the data versions the kept-alive
// mediator sees, so it never re-plans ("never invalidate"), and proves
// the plan-cache leg catches the stale plan, that ddmin keeps the
// divergence's leg while minimizing, and that the same sequence is clean
// without the fault.
func TestPlanCacheFaultInjection(t *testing.T) {
	opts := IVMOptions{StalePlans: true}
	cfg := randaig.DefaultConfig()
	for seed := int64(0); seed < 30; seed++ {
		inst, err := randaig.Generate(seed, cfg)
		if err != nil {
			t.Fatalf("seed %d: generate: %v", seed, err)
		}
		seq := GenerateMutations(inst, seed, 10)
		out := CheckIVM(inst, seq, opts)
		if out.Divergence == nil {
			continue
		}
		if out.Divergence.Leg != "plancache" {
			t.Fatalf("divergence on leg %q, want plancache:\n%s", out.Divergence.Leg, out.Divergence.Error())
		}
		shrunk, div, checks := ddmin(seq, "plancache", 60, func(muts []Mutation) *Divergence {
			return CheckIVM(inst, muts, opts).Divergence
		})
		if div == nil || div.Leg != "plancache" {
			t.Fatalf("shrink lost the plancache divergence: %v", div)
		}
		if clean := CheckIVM(inst, shrunk, IVMOptions{}); clean.Divergence != nil {
			t.Fatalf("shrunk sequence diverges without the fault:\n%s", clean.Divergence.Error())
		}
		if len(shrunk) >= len(seq) {
			t.Errorf("shrink did not reduce the sequence: %d >= %d", len(shrunk), len(seq))
		}
		t.Logf("seed %d: caught, shrunk %d -> %d mutations in %d checks: %s", seed, len(seq), len(shrunk), checks, div.Detail)
		return
	}
	t.Fatal("no seed in range exposed the never-invalidate fault")
}
