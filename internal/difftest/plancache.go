package difftest

import (
	"bytes"
	"context"
	"fmt"

	"github.com/aigrepro/aig/internal/aig"
	"github.com/aigrepro/aig/internal/mediator"
	"github.com/aigrepro/aig/internal/randaig"
	"github.com/aigrepro/aig/internal/source"
	"github.com/aigrepro/aig/internal/xmltree"
)

// keptMediator is the plan-cache leg of the mutation-sequence oracle:
// one mediator stays alive across the whole sequence (as aigd's per-view
// mediator does) and after every mutation must be indistinguishable from
// one constructed on the spot — same document, same plan — and agree
// with the conceptual evaluation. A prepared plan that outlives the
// statistics it was costed with, or run state leaking from one
// evaluation into the next, shows up here on leg "plancache".
type keptMediator struct {
	inst      *randaig.Instance
	dec, decU *aig.AIG // specialized grammar, and its unfolding
	reg       *source.Registry
	kept      *mediator.Mediator
}

// frozenSource reports the data version it was wrapped at forever — the
// "never invalidate" fault: a mediator over it never sees an epoch move.
type frozenSource struct {
	source.Source
	version uint64
}

func (f frozenSource) DataVersion() (uint64, error) { return f.version, nil }

func newKeptMediator(inst *randaig.Instance, dec, decU *aig.AIG, stale bool) (*keptMediator, error) {
	reg := source.RegistryFromCatalog(inst.Catalog)
	keptReg := reg
	if stale {
		keptReg = source.NewRegistry()
		for _, name := range reg.Names() {
			src, err := reg.Get(name)
			if err != nil {
				return nil, err
			}
			v, err := src.DataVersion()
			if err != nil {
				return nil, err
			}
			keptReg.Add(frozenSource{src, v})
		}
	}
	return &keptMediator{inst: inst, dec: dec, decU: decU, reg: reg,
		kept: mediator.New(keptReg, mediator.DefaultOptions())}, nil
}

// sameOutcome is the agreement rule of the evaluation matrix: equal
// canonical documents, or errors of the same kind (guard abort or not).
func sameOutcome(wantDoc *xmltree.Node, wantErr error, gotDoc *xmltree.Node, gotErr error) bool {
	if wantErr != nil || gotErr != nil {
		return wantErr != nil && gotErr != nil && isAbort(wantErr) == isAbort(gotErr)
	}
	return wantDoc.Canonical() == gotDoc.Canonical()
}

// check compares the kept-alive mediator with a fresh one and with the
// conceptual outcome (truthDoc, truthErr) of the current catalog state.
func (k *keptMediator) check(step string, truthDoc *xmltree.Node, truthErr error) *Divergence {
	mkDiv := func(detail, want, got string) *Divergence {
		return &Divergence{Seed: k.inst.Seed, Leg: "plancache", Detail: step + ": " + detail, Want: want, Got: got}
	}
	fresh := mediator.New(k.reg, mediator.DefaultOptions())

	eval := func(m *mediator.Mediator) (*xmltree.Node, error) {
		res, err := m.Evaluate(k.decU, k.inst.RootInh)
		return resultDoc(res, err), err
	}
	keptDoc, keptErr := eval(k.kept)
	freshDoc, freshErr := eval(fresh)
	if !sameOutcome(freshDoc, freshErr, keptDoc, keptErr) {
		return mkDiv("kept-alive mediator's document differs from a fresh mediator's",
			render(freshDoc, freshErr), render(keptDoc, keptErr))
	}
	if !sameOutcome(truthDoc, truthErr, keptDoc, keptErr) {
		return mkDiv("kept-alive mediator's document differs from the conceptual evaluation",
			render(truthDoc, truthErr), render(keptDoc, keptErr))
	}

	// A run released to the kept-alive mediator's plan must leave nothing
	// behind: the next run, which recycles its memory, emits equal bytes.
	first, ferr := k.emitReleased()
	second, serr := k.emitReleased()
	if (ferr == nil) != (serr == nil) || !bytes.Equal(first, second) {
		return mkDiv("kept-alive mediator's run over a released run's memory differs from the run before it",
			fmt.Sprint(string(first), ferr), fmt.Sprint(string(second), serr))
	}

	// The plan the kept-alive mediator holds must be the plan a fresh
	// compile produces: same graph, grouping, order and estimates.
	if keptErr == nil {
		want, werr := fresh.Explain(k.decU, 0, nil)
		got, gerr := k.kept.Explain(k.decU, 0, nil)
		if werr != nil || gerr != nil {
			return mkDiv(fmt.Sprintf("explain failed: fresh %v, kept %v", werr, gerr), "", "")
		}
		if want != got {
			return mkDiv("kept-alive mediator's plan differs from a fresh compile", want, got)
		}
	}

	// Recursive grammars also go through runtime re-unrolling, whose
	// plans are cached per depth and whose probes read the run's store.
	if k.inst.Recursive {
		evalRec := func(m *mediator.Mediator) (string, error) {
			res, depth, err := m.EvaluateRecursive(k.dec, k.inst.RootInh, 1, k.inst.UnfoldDepth+2)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("depth %d: %s", depth, res.Doc.Canonical()), nil
		}
		want, werr := evalRec(fresh)
		got, gerr := evalRec(k.kept)
		if (werr == nil) != (gerr == nil) || want != got {
			return mkDiv("kept-alive mediator's re-unrolled evaluation differs from a fresh mediator's",
				fmt.Sprint(want, werr), fmt.Sprint(got, gerr))
		}
	}
	return nil
}

// emitReleased settles the grammar on the kept-alive mediator, writes its
// document and releases the run to the plan.
func (k *keptMediator) emitReleased() ([]byte, error) {
	run, _, err := k.kept.Settle(context.Background(), k.decU, k.inst.RootInh, 0, 0, nil)
	if err != nil {
		return nil, err
	}
	defer run.Release()
	var buf bytes.Buffer
	_, err = run.WriteTo(&buf)
	return buf.Bytes(), err
}
