package difftest

import (
	"fmt"
	"math/rand"

	"github.com/aigrepro/aig/internal/ivm"
	"github.com/aigrepro/aig/internal/randaig"
	"github.com/aigrepro/aig/internal/relstore"
	"github.com/aigrepro/aig/internal/xmltree"
)

// Mutation is one replayable row-level write against an instance's
// catalog. Values are carried as schema-parsed texts so a mutation
// sequence round-trips through regression JSON.
type Mutation struct {
	Source string   `json:"source"`
	Table  string   `json:"table"`
	Op     string   `json:"op"` // "insert" or "delete"
	Row    []string `json:"row"`
}

func (m Mutation) String() string {
	return fmt.Sprintf("%s %s:%s %v", m.Op, m.Source, m.Table, m.Row)
}

// apply performs the mutation, reporting whether it changed anything
// (a delete of an absent row is a no-op).
func (m Mutation) apply(cat *relstore.Catalog) (bool, error) {
	db, err := cat.Database(m.Source)
	if err != nil {
		return false, err
	}
	res, err := db.Mutate(m.Table, m.Op, m.Row)
	return res.Affected > 0, err
}

// GenerateMutations derives a deterministic mutation sequence for an
// instance: inserts that mostly recombine existing column values (so
// joins keep matching and the document actually changes) and deletes of
// currently present rows. Generation tracks the evolving state on a
// catalog clone, so deletes always name rows that exist at their point
// in the sequence.
func GenerateMutations(inst *randaig.Instance, seed int64, n int) []Mutation {
	rng := rand.New(rand.NewSource(seed))
	cat := cloneCatalog(inst.Catalog)

	type target struct {
		source string
		table  *relstore.Table
	}
	var targets []target
	forEachTable(cat, func(source string, t *relstore.Table) {
		targets = append(targets, target{source, t})
	})
	if len(targets) == 0 {
		return nil
	}

	var out []Mutation
	for attempts := 0; len(out) < n && attempts < n*50; attempts++ {
		tg := targets[rng.Intn(len(targets))]
		t := tg.table
		if t.Len() > 0 && rng.Intn(10) < 3 { // ~30% deletes
			row := t.Row(rng.Intn(t.Len()))
			m := Mutation{Source: tg.source, Table: t.Name(), Op: "delete", Row: row.Texts()}
			if ok, err := m.apply(cat); err == nil && ok {
				out = append(out, m)
			}
			continue
		}
		row := make(relstore.Tuple, len(t.Schema()))
		for c := range t.Schema() {
			if t.Len() > 0 && rng.Intn(10) < 7 {
				// Reuse a value already present in this column.
				row[c] = t.Row(rng.Intn(t.Len()))[c]
				continue
			}
			switch t.Schema()[c].Kind {
			case relstore.KindInt:
				row[c] = relstore.Int(int64(rng.Intn(20)))
			default:
				row[c] = relstore.String(fmt.Sprintf("z%d", rng.Intn(40)))
			}
		}
		m := Mutation{Source: tg.source, Table: t.Name(), Op: "insert", Row: row.Texts()}
		if ok, err := m.apply(cat); err == nil && ok {
			out = append(out, m)
		}
	}
	return out
}

func cloneCatalog(cat *relstore.Catalog) *relstore.Catalog {
	out := relstore.NewCatalog()
	for _, name := range cat.DatabaseNames() {
		if db, err := cat.Database(name); err == nil {
			out.Add(db.Clone())
		}
	}
	return out
}

// IVMOptions configures one incremental-maintenance oracle run.
type IVMOptions struct {
	// LogCap overrides every base table's change-log limit before the
	// run: 0 keeps the default, a small positive value forces frequent
	// truncation (exercising the full-refresh fallback), negative
	// disables delta logging entirely.
	LogCap int
	// Fault, when set, rewrites the judge's verdict at each step —
	// fault-injection hook for testing the oracle itself (forcing
	// Unaffected simulates an unsound judge keeping stale documents).
	Fault func(step int, v ivm.Verdict) ivm.Verdict
	// StalePlans injects the "never invalidate" fault into the plan-cache
	// leg: the kept-alive mediator's sources report a frozen data version,
	// so it keeps evaluating with the plan of the initial catalog.
	StalePlans bool
}

// IVMOutcome summarizes one incremental-maintenance oracle run.
type IVMOutcome struct {
	// Divergence is nil when incremental maintenance matched the oracle
	// at every step.
	Divergence *Divergence
	// Steps counts applied mutations; Restamps how many the judge proved
	// irrelevant (cached document kept); Fulls how many forced a
	// re-evaluation; Truncated how many judgements hit a truncated
	// change-log window.
	Steps, Restamps, Fulls, Truncated int
	// Skipped reports the instance was unusable for the IVM oracle (its
	// initial evaluation aborts on a guard, so there is no document to
	// maintain).
	Skipped bool
}

// CheckIVM is the incremental-view-maintenance differential oracle: it
// evaluates the instance's specialized grammar once, then replays the
// mutation sequence the way the serving layer's refresher would —
// judging each step's change-log deltas with ivm.Deps and either
// keeping the cached document (judge says provably unaffected) or
// re-evaluating — and after every step compares the maintained document
// byte-for-byte against a from-scratch evaluation. Any mismatch is a
// soundness bug in change capture, dependency extraction, or the judge,
// and is reported on leg "ivm".
//
// The run mutates a clone of the instance's catalog, never the instance
// itself, so CheckIVM can be re-run (shrinking, corpus replay) on the
// same instance.
func CheckIVM(inst *randaig.Instance, muts []Mutation, opts IVMOptions) IVMOutcome {
	mkDiv := func(detail, want, got string) *Divergence {
		return &Divergence{Seed: inst.Seed, Leg: "ivm", Detail: detail, Want: want, Got: got}
	}
	inst = isolated(inst)

	dec, decU, err := servedGrammar(inst.AIG, inst)
	if err != nil {
		return IVMOutcome{Divergence: mkDiv("specialization failed: "+err.Error(), "", "")}
	}
	deps, err := ivm.Extract(dec, inst.Schemas())
	if err != nil {
		return IVMOutcome{Divergence: mkDiv("dependency extraction failed: "+err.Error(), "", "")}
	}
	params, err := deps.ParamsFromInh(inst.RootInh)
	if err != nil {
		return IVMOutcome{Divergence: mkDiv("root parameter binding failed: "+err.Error(), "", "")}
	}

	if opts.LogCap != 0 {
		forEachTable(inst.Catalog, func(_ string, t *relstore.Table) {
			t.SetChangeLogLimit(opts.LogCap)
		})
	}

	// Mutations can push the data into states the generator never
	// produces (e.g. a choice-condition query matching zero rows), so
	// evaluation errors are part of the judged outcome, not harness
	// failures: the maintained state and the oracle must agree on them.
	evaluate := func() (*xmltree.Node, error) {
		return decU.Eval(inst.Env(), inst.RootInh)
	}

	cachedDoc, cachedErr := evaluate()
	if cachedErr != nil {
		if isAbort(cachedErr) {
			return IVMOutcome{Skipped: true}
		}
		return IVMOutcome{Divergence: mkDiv("initial evaluation failed: "+cachedErr.Error(), "", "")}
	}
	baseline := snapshotVersions(inst.Catalog)
	kept, err := newKeptMediator(inst, dec, decU, opts.StalePlans)
	if err != nil {
		return IVMOutcome{Divergence: mkDiv("plan-cache leg: "+err.Error(), "", "")}
	}
	if d := kept.check("initial state", cachedDoc, nil); d != nil {
		return IVMOutcome{Divergence: d}
	}

	var out IVMOutcome
	out.Steps, out.Divergence = replaySteps(inst, "ivm", muts, func(i int, m *Mutation) *Divergence {
		// The refresher's decision: replay each moved table's deltas
		// through the judge.
		now := snapshotVersions(inst.Catalog)
		verdict, truncated, err := judgeWindow(inst.Catalog, deps, params, baseline, now)
		if err != nil {
			return mkDiv(fmt.Sprintf("step %d: %v", i, err), "", "")
		}
		out.Truncated += truncated
		baseline = now
		if opts.Fault != nil {
			verdict = opts.Fault(i, verdict)
		}

		if verdict == ivm.Unaffected {
			out.Restamps++
		} else {
			out.Fulls++
			cachedDoc, cachedErr = evaluate()
		}

		truthDoc, truthErr := evaluate()
		if d := kept.check(fmt.Sprintf("step %d (%s)", i, m), truthDoc, truthErr); d != nil {
			return d
		}
		if isAbort(truthErr) && isAbort(cachedErr) {
			return nil // both abort on a guard: equal outcome, as in compare()
		}
		if want, got := render(truthDoc, truthErr), render(cachedDoc, cachedErr); want != got {
			return mkDiv(
				fmt.Sprintf("step %d (%s, verdict %v): maintained document differs from oracle", i, m, verdict),
				want, got)
		}
		return nil
	})
	return out
}

// isolated returns inst over a clone of its catalog, so an oracle can
// mutate the data and still be re-run (shrinking, corpus replay) on the
// instance it was handed.
func isolated(inst *randaig.Instance) *randaig.Instance {
	return &randaig.Instance{
		Seed: inst.Seed, Cfg: inst.Cfg, AIG: inst.AIG,
		Catalog: cloneCatalog(inst.Catalog), RootInh: inst.RootInh,
		Recursive: inst.Recursive, UnfoldDepth: inst.UnfoldDepth,
	}
}

// replaySteps is the mutation loop the sequence oracles share: it
// applies muts in order to inst's catalog and calls step after each one
// that changed the data, stopping at the first divergence (a mutation
// that fails to apply diverges on leg). It returns the number of
// mutations that changed the data.
func replaySteps(inst *randaig.Instance, leg string, muts []Mutation, step func(i int, m *Mutation) *Divergence) (int, *Divergence) {
	steps := 0
	for i := range muts {
		m := &muts[i]
		changed, err := m.apply(inst.Catalog)
		if err != nil {
			return steps, &Divergence{Seed: inst.Seed, Leg: leg, Detail: fmt.Sprintf("step %d: applying %s: %v", i, m, err)}
		}
		if !changed {
			continue
		}
		steps++
		if d := step(i, m); d != nil {
			return steps, d
		}
	}
	return steps, nil
}

// judgeWindow replays the refresher's judgement for a view with deps
// cached at the table versions in baseline: every dependency whose
// version moved by now has its change-log window judged. It returns
// Unaffected only when every window is provably irrelevant, plus the
// number of windows that came back truncated.
func judgeWindow(cat *relstore.Catalog, deps *ivm.Deps, params map[string]relstore.Value, baseline, now map[tableKey]uint64) (ivm.Verdict, int, error) {
	verdict, truncated := ivm.Unaffected, 0
	for key, cur := range now {
		old, ok := baseline[key]
		if !ok || cur == old {
			if !ok && deps.DependsOn(key.source, key.table) {
				verdict = ivm.MaybeAffected
			}
			continue
		}
		if !deps.DependsOn(key.source, key.table) {
			continue
		}
		t, err := cat.Table(key.source, key.table)
		if err != nil {
			return ivm.MaybeAffected, truncated, fmt.Errorf("deltas for %s:%s: %v", key.source, key.table, err)
		}
		cs := t.ChangesSince(old)
		if cs.Truncated {
			truncated++
		}
		if deps.Judge(key.source, key.table, cs, params) != ivm.Unaffected {
			verdict = ivm.MaybeAffected
		}
	}
	return verdict, truncated, nil
}

type tableKey struct{ source, table string }

func forEachTable(cat *relstore.Catalog, fn func(source string, t *relstore.Table)) {
	for _, dbName := range cat.DatabaseNames() {
		db, err := cat.Database(dbName)
		if err != nil {
			continue
		}
		for _, tn := range db.TableNames() {
			if t, err := db.Table(tn); err == nil {
				fn(dbName, t)
			}
		}
	}
}

func snapshotVersions(cat *relstore.Catalog) map[tableKey]uint64 {
	out := make(map[tableKey]uint64)
	forEachTable(cat, func(source string, t *relstore.Table) {
		out[tableKey{source, t.Name()}] = t.Version()
	})
	return out
}
