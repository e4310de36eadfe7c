package mediator

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"github.com/aigrepro/aig/internal/aig"
	"github.com/aigrepro/aig/internal/obs"
	"github.com/aigrepro/aig/internal/relstore"
	"github.com/aigrepro/aig/internal/source"
	"github.com/aigrepro/aig/internal/sqlmini"
	"github.com/aigrepro/aig/internal/xmltree"
)

// Mediator evaluates specialized AIGs against a registry of data sources.
// It keeps the prepared plans of the grammars it has evaluated, so a
// long-lived mediator plans once per (grammar, unfolding depth, source
// statistics epoch) and every further evaluation only executes and tags.
// A Mediator is safe for concurrent use and must not be copied.
type Mediator struct {
	reg   *source.Registry
	opts  Options
	plans planCache
}

// New creates a mediator over the given sources.
func New(reg *source.Registry, opts Options) *Mediator {
	return &Mediator{reg: reg, opts: opts}
}

// exec is the run state of one evaluation over a prepared plan: the
// instance store, and per graph node, edge and query part what this run
// measured or produced. Everything else an evaluation reads belongs to
// the shared plan.
type exec struct {
	*preparedPlan                 // shared and immutable
	ctx           context.Context // carries the execute-phase span for node parenting
	rootInh       *aig.AttrValue

	st        store
	nodes     []nodeRun         // by node.idx
	edgeBytes []int             // by edge.idx: measured shipped volume
	partOut   []*relstore.Table // by part.idx

	mu       sync.Mutex
	firstErr error
	// abort is the first guard that failed. Unlike firstErr it does not
	// stop the run: the unfolding loop trusts an abort only after probing
	// the complete run's truncated contexts.
	abort *aig.AbortError
	// tr/execSpan, when tracing, parent one span per node execution under
	// the "execute" phase span.
	tr       *obs.Tracer
	execSpan *obs.Span
}

// nodeRun is one node's share of the run state.
type nodeRun struct {
	done     chan struct{}
	err      error
	evalSec  float64
	outRows  int
	outBytes int
}

func newExec(p *preparedPlan, rootInh *aig.AttrValue) *exec {
	x := &exec{
		preparedPlan: p, rootInh: rootInh,
		st:        make(store, p.g.nctx),
		nodes:     make([]nodeRun, len(p.g.nodes)),
		edgeBytes: make([]int, len(p.g.edges)),
		partOut:   make([]*relstore.Table, p.g.nparts),
	}
	for i := range x.nodes {
		x.nodes[i].done = make(chan struct{})
	}
	return x
}

func (x *exec) fail(err error) {
	x.mu.Lock()
	if x.firstErr == nil {
		x.firstErr = err
	}
	x.mu.Unlock()
}

func (x *exec) noteAbort(a *aig.AbortError) {
	x.mu.Lock()
	if x.abort == nil {
		x.abort = a
	}
	x.mu.Unlock()
}

// Evaluate runs the four phases of Fig. 5 — the AIG is assumed
// pre-processed (constraints compiled, multi-source queries decomposed,
// recursion unfolded): compile the dependency graph, optimize it (Merge +
// Schedule), execute the plan with one worker per source, and tag the
// cached tables into the document. The first two phases are skipped when
// the mediator holds a plan for the grammar that is still current.
func (m *Mediator) Evaluate(a *aig.AIG, rootInh *aig.AttrValue) (*Result, error) {
	return m.EvaluateContext(context.Background(), a, rootInh)
}

// EvaluateContext is Evaluate with a caller-supplied context. A tracer
// carried by ctx (obs.ContextWithSpan) takes precedence over
// Options.Tracer, so one mediator instance serves many traced requests
// without per-request reconfiguration; ctx also flows into every source
// call for cancellation.
func (m *Mediator) EvaluateContext(ctx context.Context, a *aig.AIG, rootInh *aig.AttrValue) (*Result, error) {
	r, _, err := m.Settle(ctx, a, rootInh, 0, 0, nil)
	if err != nil {
		return nil, err
	}
	return r.result()
}

// Run is a settled evaluation: its unfolding depth is final, its
// truncation probes have run and its guards have passed, and nothing of
// the document exists yet. WriteTo streams the document, Tree builds it
// and Tag hands it to any Sink, each in one walk over the instance
// tables (the tagging phase). A run settled under a Verdict holds only
// the contexts the verdict kept, and its walk skips the rest.
type Run struct {
	// Report describes the evaluation; PhaseSec has no "tag" phase, as
	// the run has not been tagged, and ResponseTimeSec is zero.
	Report Report

	x    *exec
	tr   *obs.Tracer
	root *obs.Span // the evaluation's span, which a tree build is timed under
}

// WriteTo streams the run's document to w, indented as
// xmltree.Node.WriteIndented indents it, in writes of at least
// xmltree.ChunkSize bytes but the last. It returns the bytes written;
// a tagging error stops it before its buffered bytes are written.
func (r *Run) WriteTo(w io.Writer) (int64, error) {
	e := xmltree.Encoder{W: w}
	if err := r.x.tag(&e); err != nil {
		return 0, err
	}
	return e.Flush()
}

// Tag hands the run's document to s as events in document order.
func (r *Run) Tag(s Sink) error {
	return r.x.tag(s)
}

// Scan is one base table a plan's query reads, keyed by the rule that
// owns the query as specialize.TableScans keys it: the element type and
// the child whose inherited attribute the query computes ("" for a
// choice's condition), named as in the grammar the plan compiled.
type Scan struct {
	Elem, Child   string
	Source, Table string
}

// Scans lists the base tables the run's plan queries, truncation probes
// included, in plan order.
func (r *Run) Scans() []Scan {
	var out []Scan
	add := func(pt *part) {
		for _, ref := range pt.rw.query.From {
			if ref.Source != "" {
				out = append(out, Scan{Elem: pt.parentCtx.elem, Child: pt.child, Source: ref.Source, Table: ref.Table})
			}
		}
	}
	for _, n := range r.x.g.nodes {
		for _, pt := range queryParts(n) {
			add(pt)
		}
	}
	for _, pr := range r.x.g.probes {
		for _, pt := range pr.steps {
			add(pt)
		}
	}
	return out
}

// Tree builds the run's document.
func (r *Run) Tree() (*xmltree.Node, error) {
	var b xmltree.Builder
	if err := r.x.tag(&b); err != nil {
		return nil, err
	}
	return b.Root(), nil
}

// result builds the run's tree as the "tag" phase of its evaluation:
// timed into the report, and traced as the last child of its span. It
// also computes the report's simulated response time, which only a
// Result carries: the executed order is the prepared schedule, so
// cost(P) follows from the plan and the run's measurements.
func (r *Run) result() (*Result, error) {
	sp, t0 := r.tr.StartSpan("tag", r.root), time.Now()
	doc, err := r.Tree()
	sec := time.Since(t0).Seconds()
	sp.End()
	if err != nil {
		return nil, err
	}
	rep := r.Report
	rep.PhaseSec["tag"] = sec
	rep.WallSec += sec
	g := r.x.g
	rep.ResponseTimeSec = costOf(g.nodes, r.x.sched, g.opts.Net, r.x.measuredInputs())
	r.root.SetAttr("response_time_sec", rep.ResponseTimeSec)
	return &Result{Doc: doc, Report: rep}, nil
}

// evaluate runs grammar a unfolded to the given depth (0: as it is),
// pruned to keep's verdict when it is set, through every phase but
// tagging. A guard abort returns the run next to the error, for the
// truncation probes.
func (m *Mediator) evaluate(ctx context.Context, a *aig.AIG, depth int, rootInh *aig.AttrValue, keep Verdict) (*Run, error) {
	tr, parent := obs.SpanFromContext(ctx)
	if tr == nil {
		tr = m.opts.Tracer
	}
	start := time.Now()
	root := tr.StartSpan("evaluate", parent)
	r, err := m.evaluatePhases(ctx, a, depth, rootInh, keep, tr, root)
	if err != nil {
		root.SetAttr("error", err.Error())
	} else {
		r.Report.WallSec = time.Since(start).Seconds()
	}
	root.End()
	return r, err
}

// evaluatePhases runs the first three Fig. 5 phases under the given root
// span, recording one child span and one wall-clock timing per phase. A
// pruned evaluation's root span carries the verdict's path and the number
// of contexts it pruned.
func (m *Mediator) evaluatePhases(ctx context.Context, a *aig.AIG, depth int, rootInh *aig.AttrValue, keep Verdict, tr *obs.Tracer, root *obs.Span) (*Run, error) {
	p, compileSec, optimizeSec, err := m.prepare(ctx, a, depth, keep, tr, root)
	if err != nil {
		return nil, err
	}
	if keep != nil {
		root.SetAttr("path", keep.Key()).SetAttr("pruned_contexts", p.g.pruned)
	}
	phaseSec := map[string]float64{"compile": compileSec, "optimize": optimizeSec}
	g := p.g

	sp, t0 := tr.StartSpan("execute", root), time.Now()
	x := newExec(p, rootInh)
	x.ctx, x.tr, x.execSpan = obs.ContextWithSpan(ctx, tr, sp), tr, sp
	err = x.run()
	phaseSec["execute"] = time.Since(t0).Seconds()
	sp.End()
	if err != nil {
		return nil, err
	}
	if x.abort != nil {
		return &Run{x: x}, x.abort
	}

	rep := Report{
		MergedGroups:     p.merged,
		NodeCount:        len(g.nodes),
		EdgeCount:        len(g.edges),
		PerSourceBusySec: make(map[string]float64),
		PhaseSec:         phaseSec,
	}
	for _, n := range g.nodes {
		rep.PerSourceBusySec[n.source] += x.nodes[n.idx].evalSec
		if n.kind == nodeQuery && n.source != MediatorSource {
			rep.SourceQueryCount++
		}
	}
	for _, e := range g.edges {
		if e.from.source != e.to.source {
			rep.ShippedBytes += x.edgeBytes[e.idx]
		}
	}
	return &Run{Report: rep, x: x, tr: tr, root: root}, nil
}

// run executes the prepared schedule: one worker goroutine per source
// walks its sequence in order, each node waiting for its inputs.
func (x *exec) run() error {
	var wg sync.WaitGroup
	for _, seq := range x.sched.order {
		wg.Add(1)
		go func(seq []*node) {
			defer wg.Done()
			for _, n := range seq {
				x.waitDeps(n)
				x.runNode(n)
			}
		}(seq)
	}
	wg.Wait()
	return x.firstErr
}

func (x *exec) waitDeps(n *node) {
	for _, e := range n.in {
		<-x.nodes[e.from.idx].done
	}
}

// runNode executes one node whose dependencies are satisfied.
func (x *exec) runNode(n *node) {
	nr := &x.nodes[n.idx]
	sp := x.tr.StartSpan("node:"+n.name, x.execSpan)
	start := time.Now()
	defer func() {
		if sp != nil {
			// Estimates next to actuals: the span is the unit of
			// estimate-vs-actual feedback for cost-model calibration.
			sp.SetAttr("source", n.source).
				SetAttr("est_cost_sec", n.estCost).
				SetAttr("est_out_bytes", n.estOutBytes).
				SetAttr("eval_sec", nr.evalSec).
				SetAttr("wall_sec", time.Since(start).Seconds()).
				SetAttr("out_rows", nr.outRows).
				SetAttr("out_bytes", nr.outBytes)
			if nr.err != nil {
				sp.SetAttr("error", nr.err.Error())
			}
			sp.End()
		}
		close(nr.done)
	}()
	x.mu.Lock()
	failed := x.firstErr != nil
	x.mu.Unlock()
	if failed {
		sp.SetAttr("skipped", true)
		return
	}
	var err error
	switch n.kind {
	case nodeQuery:
		// Source calls made for this node parent under its span.
		err = x.runQueryNode(obs.ContextWithSpan(x.ctx, x.tr, sp), n)
	default:
		rows := 0
		if n.runLocal != nil {
			rows, err = n.runLocal(x)
		}
		// Local work is charged on the virtual clock at the mediator's
		// application-code rate, not wall time, for determinism.
		nr.evalSec = float64(rows) * x.g.opts.Net.MediatorRowCostSec
		nr.outRows = rows
	}
	if err != nil {
		nr.err = err
		x.fail(err)
	}
}

// runQueryNode executes every part of a (possibly merged) query node at
// its source, in dependency order. Merged nodes interleave absorbed local
// tasks (the inlined key-path combination) between their query parts.
func (x *exec) runQueryNode(ctx context.Context, n *node) error {
	nr := &x.nodes[n.idx]
	if n.items != nil {
		for _, item := range n.items {
			if item.local != nil {
				rows, err := item.local(x)
				if err != nil {
					return err
				}
				nr.evalSec += float64(rows) * x.g.opts.Net.MediatorRowCostSec
				continue
			}
			if item.pt == nil {
				continue // absorbed barrier: nothing to execute
			}
			if err := x.runPart(ctx, n, item.pt); err != nil {
				return err
			}
		}
		// Ship to each consumer only the parts it actually consumes.
		byOrigin := make(map[*node]int)
		for _, item := range n.items {
			if item.pt != nil && item.pt.origin != nil {
				if out := x.partOut[item.pt.idx]; out != nil {
					byOrigin[item.pt.origin] += out.ByteSize()
				}
			}
		}
		for _, e := range n.out {
			if x.edgeBytes[e.idx] != 0 {
				continue
			}
			if len(e.producers) == 0 {
				x.edgeBytes[e.idx] = nr.outBytes
				continue
			}
			for _, p := range e.producers {
				x.edgeBytes[e.idx] += byOrigin[p]
			}
		}
		return nil
	}
	for _, pt := range n.parts {
		if err := x.runPart(ctx, n, pt); err != nil {
			return err
		}
	}
	for _, e := range n.out {
		if x.edgeBytes[e.idx] == 0 {
			x.edgeBytes[e.idx] = nr.outBytes
		}
	}
	return nil
}

// runPart executes one query part of node n and accounts its output and
// its parameter-table shipment.
func (x *exec) runPart(ctx context.Context, n *node, pt *part) error {
	var prev *relstore.Table
	if pt.prev != nil {
		prev = x.partOut[pt.prev.idx]
	}
	out, dur, paramBytes, err := x.execPart(ctx, pt, prev)
	if err != nil {
		return err
	}
	x.recordInputBytes(n, paramBytes)
	x.partOut[pt.idx] = out
	nr := &x.nodes[n.idx]
	nr.evalSec += dur.Seconds()
	nr.outRows += out.Len()
	nr.outBytes += out.ByteSize()
	return nil
}

// execPart binds one part's parameter tables from the store (prev is the
// chain predecessor's output) and runs its query at the part's source,
// returning the result, the engine time and the volume of the
// store-derived parameter tables.
func (x *exec) execPart(ctx context.Context, pt *part, prev *relstore.Table) (*relstore.Table, time.Duration, int, error) {
	params, paramBytes, err := x.bindParams(pt, prev)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("mediator: %s: %v", pt.name, err)
	}
	opts := x.g.opts.PlanOpts
	opts.ParamCards = make(map[string]int, len(params))
	for name, b := range params {
		opts.ParamCards[name] = len(b.Rows) + 1
	}

	var out *relstore.Table
	var dur time.Duration
	if pt.source == MediatorSource {
		start := time.Now()
		out, err = sqlmini.Run(pt.name, pt.rw.query, x.g.reg, x.g.reg, x.g.reg, params, opts)
		dur = time.Since(start)
	} else {
		src, gerr := x.g.reg.Get(pt.source)
		if gerr != nil {
			return nil, 0, 0, gerr
		}
		out, dur, err = src.Exec(ctx, pt.name, pt.rw.query, params, opts)
	}
	if err != nil {
		return nil, 0, 0, fmt.Errorf("mediator: %s: %v", pt.name, err)
	}
	return out, dur, paramBytes, nil
}

// recordInputBytes attributes the parameter-table volume (shipped
// Mediator -> source as temporary tables) to the incoming edges from
// mediator-local producers, split evenly among them.
func (x *exec) recordInputBytes(n *node, paramBytes int) {
	if paramBytes == 0 {
		return
	}
	var locals []*edge
	for _, e := range n.in {
		if e.from.source == MediatorSource {
			locals = append(locals, e)
		}
	}
	if len(locals) == 0 {
		return
	}
	share := paramBytes / len(locals)
	for _, e := range locals {
		x.edgeBytes[e.idx] += share
	}
}

// bindParams builds the runtime bindings of one part's parameter tables
// from the store and the chain predecessor's output, returning the total
// volume of the store-derived tables for communication accounting.
func (x *exec) bindParams(pt *part, prev *relstore.Table) (sqlmini.Params, int, error) {
	params := make(sqlmini.Params, len(pt.rw.specs))
	for k, spec := range pt.rw.specs {
		if spec.kind == paramPrev {
			if prev == nil {
				return nil, 0, fmt.Errorf("chain step has no predecessor output")
			}
			params[spec.name] = sqlmini.TableBinding(prev)
			continue
		}
		// A parent binds one row — its id, then its values — carved out of
		// one array, or one such row per row of a collection.
		r := pt.refs[k]
		var parents []instance
		var inh *attrTable
		if t := x.st.table(pt.parentCtx); t != nil {
			parents, inh = t.rows, &t.inh
		}
		vals := make([]relstore.Value, 0, len(parents)*len(spec.schema))
		rows := make([]relstore.Tuple, 0, len(parents))
		for id := range parents {
			if !parents[id].on(pt.branch) {
				continue
			}
			if r != nil && r.kind != aig.Scalar {
				crows, err := x.rows(r, inh, id)
				if err != nil {
					return nil, 0, err
				}
				for _, row := range crows {
					lo := len(vals)
					vals = append(append(vals, relstore.Int(int64(id))), row...)
					rows = append(rows, vals[lo:len(vals):len(vals)])
				}
				continue
			}
			lo := len(vals)
			vals = append(vals, relstore.Int(int64(id)))
			if r != nil {
				var err error
				if vals, err = x.appendTuple(vals, r, inh, id); err != nil {
					return nil, 0, err
				}
			}
			rows = append(rows, vals[lo:len(vals):len(vals)])
		}
		params[spec.name] = sqlmini.Binding{Schema: spec.schema, Rows: rows}
	}
	total := 0
	for name, b := range params {
		if name == aig.PrevParam {
			continue
		}
		for _, r := range b.Rows {
			total += r.ByteSize()
		}
	}
	return params, total, nil
}
