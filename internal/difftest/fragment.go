package difftest

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"github.com/aigrepro/aig/internal/dtd"
	"github.com/aigrepro/aig/internal/ivm"
	"github.com/aigrepro/aig/internal/mediator"
	"github.com/aigrepro/aig/internal/randaig"
	"github.com/aigrepro/aig/internal/relstore"
	"github.com/aigrepro/aig/internal/source"
	"github.com/aigrepro/aig/internal/specialize"
	"github.com/aigrepro/aig/internal/sqlmini"
	"github.com/aigrepro/aig/internal/xmltree"
	"github.com/aigrepro/aig/internal/xpath"
)

// GenerateFragmentPaths derives a deterministic set of syntactically
// valid path expressions from the instance's DTD: random walks down the
// production graph rendered as child/descendant steps, sprinkled with
// wildcards, positional predicates, and child-text equality tests whose
// values mix plausible instance data with misses. Duplicates are
// dropped, so the result may be shorter than n.
func GenerateFragmentPaths(inst *randaig.Instance, seed int64, n int) []string {
	rng := rand.New(rand.NewSource(seed))
	a := inst.AIG

	// Text values seen in the catalog seed the equality predicates, so
	// some of them actually select something.
	var values []string
	forEachTable(inst.Catalog, func(_ string, t *relstore.Table) {
		for i := 0; i < t.Len() && len(values) < 64; i++ {
			row := t.Row(i)
			if len(row) > 0 {
				values = append(values, row[rng.Intn(len(row))].Text())
			}
		}
	})
	values = append(values, "", "z1", "nope")

	textChildren := func(t string) []string {
		prod, ok := a.DTD.Production(t)
		if !ok {
			return nil
		}
		var out []string
		for _, c := range prod.Children {
			if cp, ok := a.DTD.Production(c); ok && cp.Kind == dtd.ProdText {
				out = append(out, a.Label(c))
			}
		}
		return out
	}

	step := func(t string) string {
		var sb strings.Builder
		if rng.Intn(10) < 3 {
			sb.WriteString("//")
		} else {
			sb.WriteString("/")
		}
		if rng.Intn(10) == 0 {
			sb.WriteString("*")
		} else {
			sb.WriteString(a.Label(t))
		}
		if tc := textChildren(t); len(tc) > 0 && rng.Intn(10) < 3 {
			fmt.Fprintf(&sb, "[%s='%s']", tc[rng.Intn(len(tc))],
				strings.ReplaceAll(values[rng.Intn(len(values))], "'", ""))
		}
		if rng.Intn(10) < 2 {
			fmt.Fprintf(&sb, "[%d]", 1+rng.Intn(3))
		}
		return sb.String()
	}

	seen := make(map[string]bool)
	var out []string
	for attempts := 0; len(out) < n && attempts < n*20; attempts++ {
		t := a.DTD.Root
		var sb strings.Builder
		depth := 1 + rng.Intn(4)
		for d := 0; d < depth; d++ {
			// Deep walks usually skip the root and dive somewhere below it.
			if d > 0 || rng.Intn(10) < 7 {
				sb.WriteString(step(t))
			}
			prod, ok := a.DTD.Production(t)
			if !ok || len(prod.Children) == 0 {
				break
			}
			t = prod.Children[rng.Intn(len(prod.Children))]
		}
		p := sb.String()
		if p == "" || seen[p] {
			continue
		}
		if _, err := xpath.Parse(p); err != nil {
			continue
		}
		seen[p] = true
		out = append(out, p)
	}
	return out
}

// FragmentOutcome summarizes one fragment oracle run.
type FragmentOutcome struct {
	// Divergence is nil when the partial evaluator and the pruned plan
	// matched the post-hoc oracle at every step for every path.
	Divergence *Divergence
	// Steps counts applied mutations, Checks individual path comparisons,
	// Restamps how many (path, step) pairs the filtered-deps judge proved
	// irrelevant (cached fragment kept and byte-verified), Fulls the rest.
	Steps, Checks, Restamps, Fulls int
	// EvalFailures counts the catalog states (baseline included) where
	// the full evaluation failed, so no path was compared; the unpruned
	// plan failed there too.
	EvalFailures int
	// Skipped reports the instance was unusable (its constraint-free
	// evaluation fails even before mutations).
	Skipped bool
}

// FragmentOptions tunes one fragment oracle run.
type FragmentOptions struct {
	// Fault, when set, corrupts the partial evaluator's emitted fragment
	// before comparison — a test hook simulating an unsound partial
	// evaluation that the oracle must catch.
	Fault func(path, fragment string) string
	// PlanFault, when set, replaces the verdict the mediator leg prunes a
	// path's plan to — a test hook simulating a pruning analysis that
	// drops a context the fragment reads, which the leg must catch.
	PlanFault func(path string, v mediator.Verdict) mediator.Verdict
}

// fragState is one path's compiled plan plus the incremental-maintenance
// bookkeeping the oracle replays alongside the byte comparison.
type fragState struct {
	expr     string
	path     *xpath.Path
	compiled *xpath.Compiled
	verdict  mediator.Verdict
	deps     *ivm.Deps
	params   map[string]relstore.Value
	// cached is the fragment at the last step the path was (re)built;
	// baseline the table versions it was built at.
	cached   string
	baseline map[tableKey]uint64
}

// CheckFragment is the fragment serving differential oracle. For each
// generated path it asserts, after every mutation, that both fragment
// evaluators byte-equal the post-hoc oracle (full constraint-free render,
// then xpath.Select over the tree): the partial evaluator (leg
// "fragment"), and the mediator's plan pruned to the path's verdict and
// streamed through the path sink (leg "fragment-plan"), which also must
// query no table the path-filtered dependency map does not judge for the
// same rule. Both legs run for every path, predicates included, though
// serving routes only paths without predicates to the pruned plan. And —
// the refresher's soundness property — whenever the path-filtered
// dependency judge rules a step's deltas irrelevant, the previously
// cached fragment bytes must in fact be unchanged. Mutations run against
// a catalog clone, so the instance can be reused (shrinking, replay).
//
// States where the full evaluation itself fails are skipped for the byte
// comparison: partial evaluation legitimately avoids errors raised in
// subtrees it never enters, so only a fragment failure while the oracle
// succeeds is a divergence. The mediator's unpruned plan must fail at
// such a state too (leg "fragment-eval"): both evaluators apply one rule
// to the same document, so a plan that succeeds where aig.Eval fails has
// settled a document the reference rejects.
func CheckFragment(inst *randaig.Instance, paths []string, muts []Mutation, opts FragmentOptions) FragmentOutcome {
	mkLegDiv := func(leg, detail, want, got string) *Divergence {
		return &Divergence{Seed: inst.Seed, Leg: leg, Detail: detail, Want: want, Got: got}
	}
	mkDiv := func(detail, want, got string) *Divergence { return mkLegDiv("fragment", detail, want, got) }
	inst = isolated(inst)
	med := mediator.New(source.RegistryFromCatalog(inst.Catalog), mediator.DefaultOptions())

	// The fragment grammar: constraint-free (partial evaluation must be
	// guard-free), decomposed and unfolded like the serving layer's.
	plain := inst.AIG.Clone()
	plain.Constraints = nil
	dec, err := specialize.DecomposeQueries(plain, inst.Schemas(), inst.Stats(), sqlmini.PlanOptions{})
	if err != nil {
		return FragmentOutcome{Divergence: mkDiv("query decomposition failed: "+err.Error(), "", "")}
	}
	decU, err := specialize.Unfold(dec, inst.UnfoldDepth)
	if err != nil {
		return FragmentOutcome{Divergence: mkDiv("unfold failed: "+err.Error(), "", "")}
	}

	var states []*fragState
	for _, expr := range paths {
		p, err := xpath.Parse(expr)
		if err != nil {
			return FragmentOutcome{Divergence: mkDiv(fmt.Sprintf("path %q does not parse: %v", expr, err), "", "")}
		}
		c, err := xpath.Compile(decU, p)
		if err != nil {
			return FragmentOutcome{Divergence: mkDiv(fmt.Sprintf("path %q does not compile: %v", expr, err), "", "")}
		}
		verdict := c.Verdict(decU)
		deps, err := ivm.ExtractFiltered(decU, inst.Schemas(), verdict.Keep)
		if err != nil {
			return FragmentOutcome{Divergence: mkDiv(fmt.Sprintf("path %q: dependency extraction failed: %v", expr, err), "", "")}
		}
		params, err := deps.ParamsFromInh(inst.RootInh)
		if err != nil {
			return FragmentOutcome{Divergence: mkDiv("root parameter binding failed: "+err.Error(), "", "")}
		}
		fs := &fragState{expr: expr, path: p, compiled: c, verdict: verdict, deps: deps, params: params}
		if opts.PlanFault != nil {
			fs.verdict = opts.PlanFault(expr, verdict)
		}
		states = append(states, fs)
	}

	renderNodes := func(nodes []*xmltree.Node) (string, error) {
		var sb strings.Builder
		for _, n := range nodes {
			if err := n.WriteIndented(&sb); err != nil {
				return "", err
			}
		}
		return sb.String(), nil
	}
	partialFragment := func(fs *fragState) (string, error) {
		var sb strings.Builder
		err := decU.EvalPartial(inst.Env(), inst.RootInh, fs.compiled.NewCursor(), func(n *xmltree.Node) error {
			return n.WriteIndented(&sb)
		})
		return sb.String(), err
	}

	// planFragment settles the plan pruned to the path's verdict and
	// streams the path's matches, reporting the tables the plan queried.
	planFragment := func(fs *fragState) (string, []mediator.Scan, error) {
		run, _, err := med.Settle(context.Background(), decU, inst.RootInh, 0, 0, fs.verdict)
		if err != nil {
			return "", nil, err
		}
		var sb strings.Builder
		m := xpath.NewStream(fs.path, &sb)
		if err := run.Tag(m); err != nil {
			return "", nil, err
		}
		return sb.String(), run.Scans(), m.Err()
	}

	var out FragmentOutcome

	// planLeg compares the pruned plan's fragment with the oracle's want
	// and its queries with the path's deps.
	planLeg := func(fs *fragState, want, stepDesc string) *Divergence {
		got, scans, err := planFragment(fs)
		if err != nil {
			return mkLegDiv("fragment-plan", fmt.Sprintf("%s: path %q: the pruned plan failed while the oracle succeeded: %v", stepDesc, fs.expr, err), want, "")
		}
		if got != want {
			return mkLegDiv("fragment-plan", fmt.Sprintf("%s: path %q: the pruned plan's fragment differs from post-hoc oracle", stepDesc, fs.expr), want, got)
		}
		for _, sc := range scans {
			if !fs.deps.Judges(sc.Elem, sc.Child, sc.Source, sc.Table) {
				return mkLegDiv("fragment-plan", fmt.Sprintf("%s: path %q: the pruned plan queries %s:%s for rule (%s, %s), which the path-filtered deps do not judge",
					stepDesc, fs.expr, sc.Source, sc.Table, sc.Elem, sc.Child), "", "")
			}
		}
		return nil
	}

	// checkAll compares every path at the current catalog state, after
	// mutation m of step i (m is nil for the pre-mutation baseline).
	checkAll := func(i int, m *Mutation) *Divergence {
		stepDesc := "baseline"
		if m != nil {
			stepDesc = fmt.Sprintf("step %d (%s)", i, m)
		}
		doc, err := decU.Eval(inst.Env(), inst.RootInh)
		if err != nil {
			// No oracle to compare against at this state.
			out.EvalFailures++
			if m == nil {
				out.Skipped = true
			}
			if _, _, perr := med.Settle(context.Background(), decU, inst.RootInh, 0, 0, nil); perr == nil {
				return mkLegDiv("fragment-eval", fmt.Sprintf("%s: the full evaluation failed but the unpruned plan settled: %v", stepDesc, err), "", "")
			}
			return nil
		}
		now := snapshotVersions(inst.Catalog)
		for _, fs := range states {
			out.Checks++
			want, rerr := renderNodes(xpath.Select(doc, fs.path))
			if rerr != nil {
				return mkDiv(fmt.Sprintf("%s: path %q: rendering oracle fragment: %v", stepDesc, fs.expr, rerr), "", "")
			}
			got, perr := partialFragment(fs)
			if perr != nil {
				return mkDiv(fmt.Sprintf("%s: path %q: partial evaluation failed while the oracle succeeded: %v", stepDesc, fs.expr, perr), want, "")
			}
			if opts.Fault != nil {
				got = opts.Fault(fs.expr, got)
			}
			if got != want {
				return mkDiv(fmt.Sprintf("%s: path %q: partial fragment differs from post-hoc oracle", stepDesc, fs.expr), want, got)
			}
			if d := planLeg(fs, want, stepDesc); d != nil {
				return d
			}

			// The refresher's judgement, replayed: an Unaffected verdict
			// from the path-filtered deps must imply unchanged bytes.
			if fs.baseline != nil {
				verdict, _, jerr := judgeWindow(inst.Catalog, fs.deps, fs.params, fs.baseline, now)
				if jerr != nil {
					return mkDiv(fmt.Sprintf("%s: path %q: %v", stepDesc, fs.expr, jerr), "", "")
				}
				if verdict == ivm.Unaffected {
					out.Restamps++
					if fs.cached != want {
						return mkDiv(fmt.Sprintf("%s: path %q: filtered deps judged the deltas irrelevant but the fragment changed", stepDesc, fs.expr),
							want, fs.cached)
					}
				} else {
					out.Fulls++
				}
			}
			fs.cached, fs.baseline = want, now
		}
		return nil
	}

	if out.Divergence = checkAll(0, nil); out.Divergence != nil || out.Skipped {
		return out
	}
	out.Steps, out.Divergence = replaySteps(inst, "fragment", muts, checkAll)
	return out
}
