package difftest

import (
	"fmt"
	"slices"
	"sort"

	"github.com/aigrepro/aig/internal/aig"
	"github.com/aigrepro/aig/internal/mediator"
	"github.com/aigrepro/aig/internal/propagate"
	"github.com/aigrepro/aig/internal/randaig"
	"github.com/aigrepro/aig/internal/relstore"
	"github.com/aigrepro/aig/internal/source"
	"github.com/aigrepro/aig/internal/specialize"
	"github.com/aigrepro/aig/internal/sqlmini"
	"github.com/aigrepro/aig/internal/xconstraint"
	"github.com/aigrepro/aig/internal/xmltree"
)

// DiscoverSourceConstraints scans a populated catalog for relational
// constraints that are true of its current data: single-column keys
// (plus minimal two-column keys no single column subsumes) and
// single-column foreign keys whose referenced column is itself a
// discovered key. The result is what a spec author who knew the data
// could honestly declare in the sources section — the premises the
// certification soundness oracle hands to propagate.Certify.
//
// Discovered constraints are facts about one database state, not
// invariants: after a mutation they must be re-checked
// (propagate.BrokenPremises) before any verdict proved from them may be
// asserted.
func DiscoverSourceConstraints(cat *relstore.Catalog) ([]aig.SourceKey, []aig.SourceFK) {
	type col struct {
		source string
		table  *relstore.Table
		idx    int
	}
	var keys []aig.SourceKey
	var cols []col
	keyed := make(map[string]bool) // "source:table:col" with a single-column key

	forEachTable(cat, func(source string, t *relstore.Table) {
		schema := t.Schema()
		single := make([]bool, len(schema))
		for i := range schema {
			cols = append(cols, col{source, t, i})
			if t.Index([]int{i}).Unique() {
				single[i] = true
				keys = append(keys, aig.SourceKey{
					Source: source, Table: t.Name(), Cols: []string{schema[i].Name},
				})
				keyed[source+":"+t.Name()+":"+schema[i].Name] = true
			}
		}
		// Minimal pairs only: a pair containing a key column adds nothing.
		for i := range schema {
			for j := i + 1; j < len(schema); j++ {
				if single[i] || single[j] || !t.Index([]int{i, j}).Unique() {
					continue
				}
				keys = append(keys, aig.SourceKey{
					Source: source, Table: t.Name(),
					Cols: []string{schema[i].Name, schema[j].Name},
				})
			}
		}
	})

	var fks []aig.SourceFK
	for _, from := range cols {
		if from.table.Len() == 0 {
			continue // vacuous inclusions are pure noise
		}
		fromName := from.table.Schema()[from.idx].Name
		for _, to := range cols {
			toName := to.table.Schema()[to.idx].Name
			if from.source == to.source && from.table.Name() == to.table.Name() && fromName == toName {
				continue
			}
			if from.table.Schema()[from.idx].Kind != to.table.Schema()[to.idx].Kind {
				continue
			}
			if !keyed[to.source+":"+to.table.Name()+":"+toName] {
				continue
			}
			if !from.table.Index([]int{from.idx}).SubsetOf(to.table.Index([]int{to.idx})) {
				continue
			}
			fks = append(fks, aig.SourceFK{
				Source: from.source, Table: from.table.Name(), Cols: []string{fromName},
				RefSource: to.source, RefTable: to.table.Name(), RefCols: []string{toName},
			})
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
	sort.Slice(fks, func(i, j int) bool { return fks[i].String() < fks[j].String() })
	return keys, fks
}

// CertifyOptions configures one certification-soundness oracle run.
type CertifyOptions struct {
	// AssumePremises, when set, skips the per-step premise re-check and
	// asserts every must-hold verdict even after a mutation falsified a
	// premise its proof depends on — fault injection for testing the
	// oracle itself (a verdict is only a proof under its premises, so
	// assuming them unconditionally is exactly the unsoundness the
	// premise tracking exists to prevent).
	AssumePremises bool
}

// CertifyOutcome summarizes one certification-soundness oracle run.
type CertifyOutcome struct {
	// Divergence is nil when no must-hold verdict was contradicted by a
	// runtime violation — a non-nil value is a soundness bug in the
	// certifier.
	Divergence *Divergence
	// Keys and FKs count the source constraints discovered on the
	// instance's data; MustHold, Unknown and Violated the verdicts the
	// certifier reached from them.
	Keys, FKs                   int
	MustHold, Unknown, Violated int
	// Steps counts applied mutations; Asserted the per-step must-hold
	// checks actually executed; Voided the checks skipped because a
	// mutation broke a premise the proof depends on; Unevaluated the
	// steps where the mutated data no longer evaluates to a document.
	Steps, Asserted, Voided, Unevaluated int
	// Pruned counts the comparisons of the pruned grammar (guards only
	// for unproven constraints, as aigd serves it) with the fully guarded
	// one; Fallbacks those made while a used premise was broken, where
	// the post-hoc constraint check stands in for the pruned guards.
	Pruned, Fallbacks int
	// Evals counts document evaluations (oracle throughput metric).
	Evals int
}

// CheckCertify is the soundness oracle for the static certifier
// (internal/propagate): it discovers the relational constraints that
// genuinely hold on the instance's data, declares them as source
// premises, certifies the instance's XML constraints from them, and
// then — initially and after every mutation — checks two things, each
// reported on leg "certify":
//
//   - pruning: the grammar compiled with guards only for the unproven
//     constraints (propagate.Prune) and the fully guarded grammar,
//     both through the mediator, produce the same document or both
//     abort while every used premise holds; once one is broken, the
//     pruned document fails xconstraint.CheckAll exactly when the
//     guarded grammar aborts;
//   - proofs: no constraint the certifier judged MustHold is violated
//     on the constraint-free document while the premises of its proof
//     still hold. A mutation that falsifies a used premise voids the
//     obligation rather than asserting it.
//
// The run mutates a clone of the instance's catalog, never the
// instance itself, so CheckCertify can be re-run (shrinking, corpus
// replay) on the same instance.
func CheckCertify(inst *randaig.Instance, muts []Mutation, opts CertifyOptions) CertifyOutcome {
	mkDiv := func(detail, want, got string) *Divergence {
		return &Divergence{Seed: inst.Seed, Leg: "certify", Detail: detail, Want: want, Got: got}
	}
	inst = isolated(inst)

	keys, fks := DiscoverSourceConstraints(inst.Catalog)
	a := inst.AIG.Clone()
	a.SourceKeys, a.SourceFKs = keys, fks
	cert := propagate.Certify(a)

	out := CertifyOutcome{Keys: len(keys), FKs: len(fks)}
	var proved []propagate.Result
	for _, r := range cert.Results {
		switch r.Verdict {
		case propagate.MustHold:
			out.MustHold++
			proved = append(proved, r)
		case propagate.Violated:
			out.Violated++
		default:
			out.Unknown++
		}
	}
	if len(proved) == 0 {
		return out
	}

	// The document under test is the constraint-free evaluation: guards
	// would abort on the very violations the oracle wants to observe.
	plain := inst.AIG.Clone()
	plain.Constraints = nil
	plainU, err := specialize.Unfold(plain, inst.UnfoldDepth)
	if err != nil {
		out.Divergence = mkDiv("unfold of plain grammar failed: "+err.Error(), "", "")
		return out
	}
	evaluate := func() (*xmltree.Node, error) {
		out.Evals++
		return plainU.Eval(inst.Env(), inst.RootInh)
	}

	_, prunedU, err := servedGrammar(propagate.Prune(a, cert), inst)
	if err != nil {
		out.Divergence = mkDiv("pruned grammar: "+err.Error(), "", "")
		return out
	}
	_, guardedU, err := servedGrammar(a, inst)
	if err != nil {
		out.Divergence = mkDiv("guarded grammar: "+err.Error(), "", "")
		return out
	}
	// Every mutation moves the plan epoch, so both grammars are planned
	// again at every step; greedy merging (the matrix covers it) would
	// dominate the oracle's run time.
	mopts := mediator.DefaultOptions()
	mopts.Merge = false
	med := mediator.New(source.RegistryFromCatalog(inst.Catalog), mopts)

	// prune compares the pruned and the guarded grammar on the current
	// data; held says whether every premise a pruned guard rests on holds.
	prune := func(where string, held bool) *Divergence {
		out.Evals += 2
		pRes, pErr := med.Evaluate(prunedU, inst.RootInh)
		gRes, gErr := med.Evaluate(guardedU, inst.RootInh)
		if (pErr != nil && !isAbort(pErr)) || (gErr != nil && !isAbort(gErr)) {
			return nil // outside the generator's states: counted by the proofs check
		}
		out.Pruned++
		guarded := abortOrDoc(gRes, gErr)
		if held {
			if pruned := abortOrDoc(pRes, pErr); pruned != guarded {
				return mkDiv(where+": pruned grammar differs from the guarded one while every used premise holds", guarded, pruned)
			}
			return nil
		}
		out.Fallbacks++
		rejects := pErr != nil || len(xconstraint.CheckAll(a.Constraints, pRes.Doc)) > 0
		if rejects != (gErr != nil) {
			return mkDiv(fmt.Sprintf("%s: premise broken: pruned grammar + post-hoc check rejects=%v, guarded grammar aborts=%v",
				where, rejects, gErr != nil), guarded, abortOrDoc(pRes, pErr))
		}
		return nil
	}

	// check runs both checks on the current data, after mutation m of
	// step i (m is nil for the initial data, on which every discovered
	// premise holds by construction).
	data := sqlmini.CatalogData{Catalog: inst.Catalog}
	check := func(i int, m *Mutation) *Divergence {
		var broken []string
		if !opts.AssumePremises {
			broken = propagate.BrokenPremises(a, cert.Premises, data)
		}
		where := "initial data"
		if m != nil {
			where = fmt.Sprintf("step %d (%s)", i, m)
		}
		if d := prune(where, len(broken) == 0); d != nil {
			return d
		}
		doc, err := evaluate()
		switch {
		case err != nil && m == nil:
			return mkDiv("initial evaluation failed: "+err.Error(), "", "")
		case err != nil && isAbort(err):
			return mkDiv(fmt.Sprintf("%s: guard abort in constraint-free grammar: %v", where, err), "", "")
		case err != nil:
			// Mutations can push the data into states the generator never
			// produces (a choice condition matching zero rows); with no
			// document there is nothing the certifier's claim ranges over.
			out.Unevaluated++
			return nil
		}
		for _, r := range proved {
			if slices.ContainsFunc(r.Uses, func(u string) bool { return slices.Contains(broken, u) }) {
				out.Voided++
				continue
			}
			out.Asserted++
			if vs := r.Constraint.Check(doc); len(vs) > 0 {
				detail := fmt.Sprintf("certified constraint %s violated at runtime (proof: %s)", r.Constraint, r.Reason)
				if m != nil {
					detail = where + ": " + detail
				}
				return mkDiv(detail, "no violations", vs[0].Error())
			}
		}
		return nil
	}

	if out.Divergence = check(0, nil); out.Divergence != nil {
		return out
	}
	out.Steps, out.Divergence = replaySteps(inst, "certify", muts, check)
	return out
}

// servedGrammar compiles a's constraints to guards, decomposes its
// multi-source queries and unfolds it to the instance's depth: the
// grammar a server evaluates for a (decU), and the one before unfolding.
func servedGrammar(a *aig.AIG, inst *randaig.Instance) (dec, decU *aig.AIG, err error) {
	if dec, err = specialize.CompileConstraints(a); err != nil {
		return nil, nil, err
	}
	if dec, err = specialize.DecomposeQueries(dec, inst.Schemas(), inst.Stats(), sqlmini.PlanOptions{}); err != nil {
		return nil, nil, err
	}
	decU, err = specialize.Unfold(dec, inst.UnfoldDepth)
	return dec, decU, err
}

// abortOrDoc renders an evaluation outcome for comparison: the document,
// or "guard abort" (which guard fires first may differ between grammars).
func abortOrDoc(res *mediator.Result, err error) string {
	if err != nil {
		return "guard abort"
	}
	return res.Doc.Canonical()
}
