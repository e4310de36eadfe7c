package difftest

import (
	"testing"

	"strings"

	"github.com/aigrepro/aig/internal/aig"
	"github.com/aigrepro/aig/internal/propagate"
	"github.com/aigrepro/aig/internal/randaig"
	"github.com/aigrepro/aig/internal/relstore"
	"github.com/aigrepro/aig/internal/sqlmini"
)

// certifySeeds is the deterministic seed range the certification
// soundness oracle sweeps in tests (CI sweeps a larger range via
// aigdiff -certify).
const certifySeeds = 60

// TestDiscoverSourceConstraints pins the discovery semantics on a
// hand-built catalog: unique columns become keys, minimal pairs are
// kept only when no single column subsumes them, and foreign keys
// require genuine inclusion into a keyed column.
func TestDiscoverSourceConstraints(t *testing.T) {
	cat := relstore.NewCatalog()
	db := relstore.NewDatabase("DB1")
	cat.Add(db)

	ref := relstore.NewTable("ref", relstore.Schema{
		{Name: "id", Kind: relstore.KindString},
		{Name: "grp", Kind: relstore.KindString},
	})
	ref.MustInsert(relstore.Tuple{relstore.String("a"), relstore.String("g1")})
	ref.MustInsert(relstore.Tuple{relstore.String("b"), relstore.String("g1")})
	db.AddTable(ref)

	use := relstore.NewTable("use", relstore.Schema{
		{Name: "fid", Kind: relstore.KindString},
		{Name: "n", Kind: relstore.KindInt},
	})
	use.MustInsert(relstore.Tuple{relstore.String("a"), relstore.Int(1)})
	use.MustInsert(relstore.Tuple{relstore.String("a"), relstore.Int(2)})
	use.MustInsert(relstore.Tuple{relstore.String("b"), relstore.Int(1)})
	db.AddTable(use)

	keys, fks := DiscoverSourceConstraints(cat)

	wantKeys := map[string]bool{
		"DB1:ref(id)":     true, // unique column
		"DB1:use(fid, n)": true, // minimal pair: neither column unique alone
	}
	gotKeys := map[string]bool{}
	for _, k := range keys {
		gotKeys[k.String()] = true
	}
	for k := range wantKeys {
		if !gotKeys[k] {
			t.Errorf("missing discovered key %s (got %v)", k, keys)
		}
	}
	if gotKeys["DB1:ref(grp)"] {
		t.Error("grp is not unique but was discovered as a key")
	}
	if gotKeys["DB1:ref(id, grp)"] {
		t.Error("non-minimal pair (id, grp) discovered despite (id) being a key")
	}

	var found bool
	for _, fk := range fks {
		if fk.String() == "DB1:use(fid) -> DB1:ref(id)" {
			found = true
		}
		if fk.Source == "DB1" && fk.Table == "ref" && fk.Cols[0] == "grp" {
			t.Errorf("fk from non-included or non-keyed column: %s", fk)
		}
	}
	if !found {
		t.Errorf("missing fk use(fid) -> ref(id), got %v", fks)
	}

	// The premise checker must track mutations.
	a := &aig.AIG{SourceKeys: keys, SourceFKs: fks}
	k, fk := "key DB1:ref(id)", "fkey DB1:use(fid) -> DB1:ref(id)"
	data := sqlmini.CatalogData{Catalog: cat}
	if b := propagate.BrokenPremises(a, []string{k, fk}, data); len(b) != 0 {
		t.Fatalf("discovered premises %v do not hold on the data they came from", b)
	}
	ref.MustInsert(relstore.Tuple{relstore.String("a"), relstore.String("g2")})
	if b := propagate.BrokenPremises(a, []string{k}, data); len(b) != 1 {
		t.Error("key still reported held after inserting a duplicate id")
	}
	use.MustInsert(relstore.Tuple{relstore.String("zz"), relstore.Int(9)})
	if b := propagate.BrokenPremises(a, []string{fk}, data); len(b) != 1 {
		t.Error("fk still reported held after inserting a dangling reference")
	}
}

// TestCertifyOracleSweep is the soundness sweep: across seeded
// instances and mutation sequences, no constraint the certifier judged
// must-hold may ever be violated at runtime while the premises of its
// proof still hold. The sweep must be non-vacuous — some instances have
// to certify, assert, and void obligations, or the oracle tests
// nothing.
func TestCertifyOracleSweep(t *testing.T) {
	n, muts := certifySeeds, 25
	if testing.Short() {
		n, muts = 12, 10
	}
	cfg := randaig.DefaultConfig()
	var agg CertifyOutcome
	for seed := int64(0); seed < int64(n); seed++ {
		inst, err := randaig.Generate(seed, cfg)
		if err != nil {
			t.Fatalf("seed %d: generate: %v", seed, err)
		}
		seq := GenerateMutations(inst, seed, muts)
		out := CheckCertify(inst, seq, CertifyOptions{})
		if out.Divergence != nil {
			t.Fatalf("seed %d: certifier unsound:\n%s", seed, out.Divergence.Error())
		}
		agg.Keys += out.Keys
		agg.FKs += out.FKs
		agg.MustHold += out.MustHold
		agg.Unknown += out.Unknown
		agg.Violated += out.Violated
		agg.Steps += out.Steps
		agg.Asserted += out.Asserted
		agg.Voided += out.Voided
		agg.Unevaluated += out.Unevaluated
		agg.Pruned += out.Pruned
		agg.Fallbacks += out.Fallbacks
	}
	if agg.MustHold == 0 {
		t.Error("no constraint certified across the sweep — oracle is vacuous")
	}
	if agg.Asserted == 0 {
		t.Error("no must-hold obligation was ever asserted")
	}
	if agg.Voided == 0 {
		t.Error("no mutation ever falsified a used premise — premise tracking untested")
	}
	if agg.Pruned == agg.Fallbacks || agg.Fallbacks == 0 {
		t.Errorf("pruning check vacuous: %d comparisons, %d on broken premises", agg.Pruned, agg.Fallbacks)
	}
	t.Logf("%d instances: %d keys, %d fks discovered; verdicts %d must-hold / %d unknown / %d violated; %d steps, %d asserted, %d voided, %d unevaluated; %d pruned-vs-guarded comparisons, %d on broken premises",
		n, agg.Keys, agg.FKs, agg.MustHold, agg.Unknown, agg.Violated,
		agg.Steps, agg.Asserted, agg.Voided, agg.Unevaluated, agg.Pruned, agg.Fallbacks)
}

// TestCertifyFaultInjection turns off premise tracking (AssumePremises:
// verdicts are asserted even after mutations falsified the premises
// they were proved from) and requires that the oracle catches the
// resulting false assertion, that ddmin minimizes the mutation
// sequence while preserving the divergence, and that the persisted
// regression replays — and is clean again once premises are respected.
func TestCertifyFaultInjection(t *testing.T) {
	fault := CertifyOptions{AssumePremises: true}
	cfg := randaig.DefaultConfig()

	var inst *randaig.Instance
	var seq []Mutation
	var out CertifyOutcome
	for seed := int64(0); seed < 300; seed++ {
		cand, err := randaig.Generate(seed, cfg)
		if err != nil {
			t.Fatalf("seed %d: generate: %v", seed, err)
		}
		s := GenerateMutations(cand, seed, 30)
		o := CheckCertify(cand, s, fault)
		if o.Divergence != nil {
			inst, seq, out = cand, s, o
			break
		}
	}
	if inst == nil {
		t.Fatal("no seed in range broke a premise visibly enough to trip the faulted oracle")
	}
	if out.Divergence.Leg != "certify" {
		t.Fatalf("divergence on leg %q, want certify", out.Divergence.Leg)
	}
	// The pruning check runs first at every step, so it is the one that
	// catches a premise assumed past its breaking write: the pruned grammar
	// serves what the guarded one rejects.
	if !strings.Contains(out.Divergence.Detail, "pruned grammar differs") {
		t.Errorf("fault caught by the wrong check: %s", out.Divergence.Detail)
	}

	shrunk, div, checks := ddmin(seq, "certify", 150, func(muts []Mutation) *Divergence {
		return CheckCertify(inst, muts, fault).Divergence
	})
	if div == nil || div.Leg != "certify" {
		t.Fatalf("shrink lost the certify divergence: %v", div)
	}
	if len(shrunk) >= len(seq) {
		t.Errorf("shrink did not reduce the sequence: %d >= %d", len(shrunk), len(seq))
	}
	t.Logf("shrunk %d -> %d mutations in %d checks", len(seq), len(shrunk), checks)

	dir := t.TempDir()
	reg := Regression{
		Seed: inst.Seed, Config: cfg, Mode: "certify",
		Mutations: shrunk, Leg: "certify", Note: "injected premise-blind assertion",
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
		if again := CheckCertify(replayed, loaded.Mutations, fault); again.Divergence == nil {
			t.Fatal("replayed regression does not reproduce under the fault")
		}
		// With premise tracking on, the same sequence must be clean: the
		// violation is licensed by the broken premise, not a certifier bug.
		if clean := CheckCertify(replayed, loaded.Mutations, CertifyOptions{}); clean.Divergence != nil {
			t.Fatalf("shrunk sequence diverges without the fault:\n%s", clean.Divergence.Error())
		}
	}
}

// TestCertifyDeterministicReplay re-runs the same {instance, mutations}
// pair and requires identical outcomes — CheckCertify must not leak
// state into the instance it was handed.
func TestCertifyDeterministicReplay(t *testing.T) {
	inst, err := randaig.Generate(5, randaig.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	seq := GenerateMutations(inst, 5, 15)
	first := CheckCertify(inst, seq, CertifyOptions{})
	second := CheckCertify(inst, seq, CertifyOptions{})
	if first.Divergence != nil || second.Divergence != nil {
		t.Fatalf("unexpected divergence: %+v / %+v", first.Divergence, second.Divergence)
	}
	if first != second {
		t.Fatalf("outcomes differ across replays:\n%+v\n%+v", first, second)
	}
}
