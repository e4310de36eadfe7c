// Package difftest is the differential oracle for AIG evaluation: it
// runs one randaig instance through every evaluation path the system
// has and asserts that they all agree — the paper's central claim that
// specialization (constraint compilation §3.3, multi-source
// decomposition §3.4, copy elimination §4, merging and scheduling §5,
// recursion unfolding §5.5) preserves the conceptual semantics of §3.2.
//
// The oracle matrix for one instance:
//
//	plain        conceptual Eval of the constraint-free unfolded grammar
//	             (must always succeed — the ground-truth document)
//	recursion    conceptual Eval of the raw recursive grammar (data-bounded)
//	             == plain, when the instance is recursive
//	conceptual   conceptual Eval of the fully specialized grammar
//	             (compiled + decomposed + unfolded) — the reference outcome
//	decompose    conceptual Eval of compiled + unfolded (no decomposition)
//	             == conceptual
//	constraints  xconstraint.CheckAll on the plain document agrees with
//	             whether the reference aborted on a compiled guard
//	conform      both documents conform to the DTD
//	mediator[…]  mediator.Evaluate across merge × copy-elim × scheduler,
//	             plus one degenerate-network cell == conceptual
//	…/stream     each succeeding cell's run, emitted as bytes ==
//	             conceptual's WriteIndented, byte for byte
//	recursive[…] mediator.EvaluateRecursive at several estimated depths
//	             == conceptual, when the instance is recursive
//	remote       mediator.Evaluate against TCP-served sources == conceptual
//
// Document agreement is canonical-serialization equality (the stream
// legs alone compare the indented bytes, so the tagger's two sinks
// cannot drift); error
// agreement means both sides abort with *aig.AbortError (guard order may
// differ, so the specific guard is not compared).
package difftest

import (
	"bytes"
	"context"
	"errors"
	"fmt"

	"github.com/aigrepro/aig/internal/aig"
	"github.com/aigrepro/aig/internal/dtd"
	"github.com/aigrepro/aig/internal/mediator"
	"github.com/aigrepro/aig/internal/randaig"
	"github.com/aigrepro/aig/internal/remote"
	"github.com/aigrepro/aig/internal/source"
	"github.com/aigrepro/aig/internal/specialize"
	"github.com/aigrepro/aig/internal/sqlmini"
	"github.com/aigrepro/aig/internal/xconstraint"
	"github.com/aigrepro/aig/internal/xmltree"
)

// Options configures one oracle run.
type Options struct {
	// Remote includes the TCP remote-source leg (slower: starts one server
	// per database).
	Remote bool
	// Fault, when non-nil, is called with each mediator leg's document
	// before comparison. Tests use it to corrupt a leg and verify the
	// oracle catches and shrinks the divergence; production runs leave it
	// nil.
	Fault func(leg string, doc *xmltree.Node)
}

// Divergence describes one disagreement between evaluation paths.
type Divergence struct {
	Seed   int64  `json:"seed"`
	Leg    string `json:"leg"`
	Detail string `json:"detail"`
	// Want/Got carry the reference and divergent outcomes (canonical
	// serializations, or error strings prefixed with "error: ").
	Want string `json:"want,omitempty"`
	Got  string `json:"got,omitempty"`
}

// Error renders the divergence compactly.
func (d *Divergence) Error() string {
	msg := fmt.Sprintf("difftest: seed %d: leg %s: %s", d.Seed, d.Leg, d.Detail)
	if d.Want != "" || d.Got != "" {
		msg += fmt.Sprintf("\n  want: %s\n  got:  %s", clip(d.Want, 400), clip(d.Got, 400))
	}
	return msg
}

func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + fmt.Sprintf("… (%d bytes)", len(s))
}

// Outcome summarizes one oracle run.
type Outcome struct {
	// Divergence is nil when every path agreed.
	Divergence *Divergence
	// Evals counts the evaluations performed (oracle throughput metric).
	Evals int
	// Aborted reports whether the reference outcome was a guard abort.
	Aborted bool
}

// Check runs the instance through the oracle matrix and returns the
// first divergence found (legs run in a fixed order, so the result is
// deterministic).
func Check(inst *randaig.Instance, opts Options) Outcome {
	o := &oracle{inst: inst, opts: opts}
	div := o.run()
	return Outcome{Divergence: div, Evals: o.evals, Aborted: o.refAborted}
}

type oracle struct {
	inst  *randaig.Instance
	opts  Options
	evals int

	refDoc     *xmltree.Node // reference document (nil when aborted)
	refErr     error
	refAborted bool
}

func (o *oracle) diverge(leg, detail, want, got string) *Divergence {
	return &Divergence{Seed: o.inst.Seed, Leg: leg, Detail: detail, Want: want, Got: got}
}

func isAbort(err error) bool {
	var ab *aig.AbortError
	return errors.As(err, &ab)
}

// compare checks one leg's outcome against the reference.
func (o *oracle) compare(leg string, doc *xmltree.Node, err error) *Divergence {
	switch {
	case o.refErr == nil && err == nil:
		want, got := o.refDoc.Canonical(), doc.Canonical()
		if want != got {
			return o.diverge(leg, "documents differ", want, got)
		}
	case o.refErr != nil && err != nil:
		if isAbort(o.refErr) != isAbort(err) {
			return o.diverge(leg, "error kinds differ", render(o.refDoc, o.refErr), "error: "+err.Error())
		}
	default:
		return o.diverge(leg, "success/failure mismatch", render(o.refDoc, o.refErr), render(doc, err))
	}
	return nil
}

func render(doc *xmltree.Node, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	return doc.Canonical()
}

func (o *oracle) run() *Divergence {
	inst := o.inst
	env := inst.Env()
	schemas := inst.Schemas()
	stats := inst.Stats()

	// Ground truth: the constraint-free grammar, unfolded, conceptually.
	plain := inst.AIG.Clone()
	plain.Constraints = nil
	plainU, err := specialize.Unfold(plain, inst.UnfoldDepth)
	if err != nil {
		return o.diverge("setup", "unfold of plain grammar failed: "+err.Error(), "", "")
	}
	o.evals++
	plainDoc, err := plainU.Eval(env, inst.RootInh)
	if err != nil {
		return o.diverge("plain", "constraint-free evaluation failed: "+err.Error(), "", "")
	}

	// The raw recursive grammar terminates on the DAG data and must
	// produce the same document as its unfolding.
	if inst.Recursive {
		o.evals++
		recDoc, err := plain.Eval(env, inst.RootInh)
		if err != nil {
			return o.diverge("recursion", "raw recursive evaluation failed: "+err.Error(), "", "")
		}
		if recDoc.Canonical() != plainDoc.Canonical() {
			return o.diverge("recursion", "unfolded and raw recursive documents differ",
				plainDoc.Canonical(), recDoc.Canonical())
		}
	}

	// Reference: the fully specialized grammar, conceptually.
	comp, err := specialize.CompileConstraints(inst.AIG)
	if err != nil {
		return o.diverge("setup", "constraint compilation failed: "+err.Error(), "", "")
	}
	dec, err := specialize.DecomposeQueries(comp, schemas, stats, sqlmini.PlanOptions{})
	if err != nil {
		return o.diverge("setup", "query decomposition failed: "+err.Error(), "", "")
	}
	decU, err := specialize.Unfold(dec, inst.UnfoldDepth)
	if err != nil {
		return o.diverge("setup", "unfold of specialized grammar failed: "+err.Error(), "", "")
	}
	o.evals++
	o.refDoc, o.refErr = decU.Eval(env, inst.RootInh)
	if o.refErr != nil {
		if !isAbort(o.refErr) {
			return o.diverge("conceptual", "specialized evaluation failed with a non-abort error: "+o.refErr.Error(), "", "")
		}
		o.refAborted = true
		o.refDoc = nil
	}

	// Specialization must not change the document (when no guard fires).
	if o.refErr == nil && o.refDoc.Canonical() != plainDoc.Canonical() {
		return o.diverge("conceptual", "specialized document differs from plain document",
			plainDoc.Canonical(), o.refDoc.Canonical())
	}

	// Decomposition alone must agree with the full pipeline.
	compU, err := specialize.Unfold(comp, inst.UnfoldDepth)
	if err != nil {
		return o.diverge("setup", "unfold of compiled grammar failed: "+err.Error(), "", "")
	}
	o.evals++
	doc2, err2 := compU.Eval(env, inst.RootInh)
	if d := o.compare("decompose", doc2, err2); d != nil {
		return d
	}

	// The compiled guards must agree with the declarative tree checker.
	violations := xconstraint.CheckAll(inst.AIG.Constraints, plainDoc)
	if o.refAborted != (len(violations) > 0) {
		detail := fmt.Sprintf("guards aborted=%v but tree checker found %d violations", o.refAborted, len(violations))
		for _, v := range violations {
			detail += "\n  " + v.Error()
		}
		return o.diverge("constraints", detail, "", "")
	}

	// Both documents conform to the DTD.
	checker := dtd.NewChecker(inst.AIG.DTD)
	if err := checker.Check(plainDoc); err != nil {
		return o.diverge("conform", "plain document does not conform: "+err.Error(), "", "")
	}
	if o.refDoc != nil {
		if err := checker.Check(o.refDoc); err != nil {
			return o.diverge("conform", "specialized document does not conform: "+err.Error(), "", "")
		}
	}

	// Mediator across the option matrix.
	reg := source.RegistryFromCatalog(inst.Catalog)
	for _, cell := range matrix() {
		o.evals++
		leg := cell.leg
		med := mediator.New(reg, cell.opts)
		run, _, err := med.Settle(context.Background(), decU, inst.RootInh, 0, 0, nil)
		var doc *xmltree.Node
		if err == nil {
			doc, err = run.Tree()
		}
		if doc != nil && o.opts.Fault != nil {
			o.opts.Fault(leg, doc)
		}
		if d := o.compare(leg, doc, err); d != nil {
			return d
		}
		if err == nil {
			if d := o.compareStream(leg+"/stream", run); d != nil {
				return d
			}
		}
	}

	// Runtime re-unrolling at several (under)estimated depths.
	if inst.Recursive {
		for _, est := range []int{1, 2} {
			o.evals++
			leg := fmt.Sprintf("recursive[est=%d]", est)
			med := mediator.New(reg, mediator.DefaultOptions())
			res, _, err := med.EvaluateRecursive(dec, inst.RootInh, est, inst.UnfoldDepth+2)
			if d := o.compare(leg, resultDoc(res, err), err); d != nil {
				return d
			}
		}
	}

	// TCP remote sources.
	if o.opts.Remote {
		if d := o.remoteLeg(decU); d != nil {
			return d
		}
	}
	return nil
}

// matrixCell is one mediator option combination.
type matrixCell struct {
	leg  string
	opts mediator.Options
}

// matrix enumerates the mediator option cross-product: merge × copy
// elimination × scheduler, plus one degenerate-network cell.
func matrix() []matrixCell {
	scheds := []struct {
		name string
		algo mediator.ScheduleAlgo
	}{
		{"level", mediator.ScheduleLevel},
		{"fifo", mediator.ScheduleFIFO},
	}
	var cells []matrixCell
	for _, merge := range []bool{true, false} {
		for _, copyElim := range []bool{true, false} {
			for _, s := range scheds {
				cells = append(cells, matrixCell{
					leg: fmt.Sprintf("mediator[merge=%v,copyelim=%v,sched=%s]", merge, copyElim, s.name),
					opts: mediator.Options{
						Merge: merge, CopyElim: copyElim,
						Schedule: s.algo, Net: mediator.DefaultNet(),
					},
				})
			}
		}
	}
	// A pathological network model must change cost, never semantics.
	slow := mediator.NetModel{
		BandwidthBytesPerSec: 1000,
		LatencySec:           0.5,
		QueryOverheadSec:     0.25,
		MediatorRowCostSec:   0.01,
	}
	cells = append(cells, matrixCell{
		leg:  "mediator[net=slow]",
		opts: mediator.Options{Merge: true, CopyElim: true, Schedule: mediator.ScheduleLevel, Net: slow},
	})
	return cells
}

// remoteLeg serves every database over loopback TCP and evaluates the
// specialized grammar through remote clients.
func (o *oracle) remoteLeg(decU *aig.AIG) *Divergence {
	var sources []source.Source
	var cleanup []func()
	defer func() {
		for _, f := range cleanup {
			f()
		}
	}()
	for _, name := range o.inst.Catalog.DatabaseNames() {
		db, err := o.inst.Catalog.Database(name)
		if err != nil {
			return o.diverge("remote", "catalog: "+err.Error(), "", "")
		}
		srv := remote.NewServer(db)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			return o.diverge("remote", "listen: "+err.Error(), "", "")
		}
		cleanup = append(cleanup, func() { srv.Close() })
		client, err := remote.Dial(name, addr)
		if err != nil {
			return o.diverge("remote", "dial: "+err.Error(), "", "")
		}
		cleanup = append(cleanup, func() { client.Close() })
		sources = append(sources, client)
	}
	o.evals++
	med := mediator.New(source.NewRegistry(sources...), mediator.DefaultOptions())
	res, err := med.Evaluate(decU, o.inst.RootInh)
	return o.compare("remote", resultDoc(res, err), err)
}

// compareStream checks a settled run's emitted bytes against the
// reference document's indented serialization, byte for byte: the
// tagger's encoder sink against the tree serializer.
func (o *oracle) compareStream(leg string, run *mediator.Run) *Divergence {
	var want, got bytes.Buffer
	if err := o.refDoc.WriteIndented(&want); err != nil {
		return o.diverge(leg, "serializing the reference: "+err.Error(), "", "")
	}
	if _, err := run.WriteTo(&got); err != nil {
		return o.diverge(leg, "emission failed", want.String(), "error: "+err.Error())
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		return o.diverge(leg, "emitted bytes differ from the reference serialization", want.String(), got.String())
	}
	return nil
}

// resultDoc is a mediator result's document, nil when evaluation failed.
func resultDoc(res *mediator.Result, err error) *xmltree.Node {
	if err != nil {
		return nil
	}
	return res.Doc
}
