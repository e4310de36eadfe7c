package mediator

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"github.com/aigrepro/aig/internal/aig"
)

// Explain compiles the AIG into its query dependency graph, applies the
// configured optimizations, and renders the resulting plan as text — the
// counterpart of a relational EXPLAIN for AIG evaluation. Nothing is
// executed; costs shown are the compile-time estimates the optimizer used
// (§5.2).
func (m *Mediator) Explain(a *aig.AIG) (string, error) {
	p, _, _, err := m.prepare(context.Background(), a, 0, nil, nil, nil)
	if err != nil {
		return "", err
	}
	return renderPlan(p, nil, nil), nil
}

// ExplainFragment is Explain for the plan of grammar a at the given
// unfolding depth pruned to keep's verdict, as Settle would run it: the
// contexts the verdict keeps and the pruned ones (each with everything
// below it), then the plan's nodes and source queries.
func (m *Mediator) ExplainFragment(a *aig.AIG, depth int, keep Verdict) (string, error) {
	p, _, _, err := m.prepare(context.Background(), a, depth, keep, nil, nil)
	if err != nil {
		return "", err
	}
	var kept, pruned strings.Builder
	var walk func(c *ctxNode)
	walk = func(c *ctxNode) {
		if c.pruned {
			fmt.Fprintf(&pruned, "  %s\n", c.path)
			return
		}
		fmt.Fprintf(&kept, "  %s\n", c.path)
		for _, ch := range c.children {
			walk(ch)
		}
	}
	walk(p.g.root)
	return fmt.Sprintf("fragment %s at unfolding depth %d: %d contexts kept, %d pruned\nkept contexts:\n%spruned contexts:\n%s\n%s",
		keep.Key(), depth, p.g.nctx, p.g.pruned, kept.String(), pruned.String(), renderPlan(p, nil, nil)), nil
}

// ExplainAnalyze is the runtime counterpart of Explain: it evaluates the
// AIG and renders the executed plan annotated with the measured actuals —
// engine time, result rows and bytes per query node — next to the
// optimizer's compile-time estimates, plus the per-node estimation error.
// The evaluation result (document and report) is returned alongside the
// rendering so callers can still use or verify the output.
func (m *Mediator) ExplainAnalyze(a *aig.AIG, rootInh *aig.AttrValue) (string, *Result, error) {
	r, err := m.evaluate(context.Background(), a, 0, rootInh, nil)
	if err != nil {
		return "", nil, err
	}
	res, err := r.result()
	if err != nil {
		return "", nil, err
	}
	return renderPlan(r.x.preparedPlan, res, r.x), res, nil
}

// renderPlan is the shared renderer behind Explain (x == nil: the
// prepared plan, estimates only) and ExplainAnalyze (the same plan as run
// x executed it, estimates next to the actuals x measured and the
// estimation error).
func renderPlan(pp *preparedPlan, res *Result, x *exec) string {
	g, p := pp.g, pp.sched
	analyze := x != nil
	var b strings.Builder
	fmt.Fprintf(&b, "dependency graph: %d nodes, %d edges", len(g.nodes), len(g.edges))
	if g.opts.Merge {
		fmt.Fprintf(&b, " (%d merged groups)", pp.merged)
	}
	est := costOf(g.nodes, p, g.opts.Net, estimatedInputs(g.opts.Net))
	fmt.Fprintf(&b, "\nestimated response time: %.3fs\n", est)
	if analyze {
		fmt.Fprintf(&b, "measured response time:  %.3fs (virtual clock, error %s)\n",
			res.Report.ResponseTimeSec, pctError(res.Report.ResponseTimeSec, est))
		fmt.Fprintf(&b, "wall time: %.3fs (compile %.3fs, optimize %.3fs, execute %.3fs, tag %.3fs)\n",
			res.Report.WallSec, res.Report.PhaseSec["compile"], res.Report.PhaseSec["optimize"],
			res.Report.PhaseSec["execute"], res.Report.PhaseSec["tag"])
	}

	sources := make([]string, 0, len(p.order))
	for s := range p.order {
		sources = append(sources, s)
	}
	sort.Strings(sources)
	for _, src := range sources {
		var queries []*node
		localEst, localActual := 0.0, 0.0
		for _, n := range p.order[src] {
			if n.kind == nodeQuery {
				queries = append(queries, n)
			} else {
				localEst += n.estCost
				if analyze {
					localActual += x.nodes[n.idx].evalSec
				}
			}
		}
		if src == MediatorSource {
			fmt.Fprintf(&b, "\n%s: %d local tasks (est %.3fs application time", src, len(p.order[src])-len(queries), localEst)
			if analyze {
				fmt.Fprintf(&b, ", actual %.3fs", localActual)
			}
			b.WriteString(")\n")
		} else {
			fmt.Fprintf(&b, "\n%s: %d queries in %s order\n", src, len(queries), orderName(analyze))
		}
		for i, n := range queries {
			renderNode(&b, i+1, n, x)
		}
	}
	return b.String()
}

func orderName(analyze bool) string {
	if analyze {
		return "execution"
	}
	return "schedule"
}

// renderNode prints one query node: its estimate line (and, when
// analyzing, the actuals and estimation error), its query parts in
// execution order, and its incoming shipments.
func renderNode(b *strings.Builder, pos int, n *node, x *exec) {
	analyze := x != nil
	fmt.Fprintf(b, "  %2d. %s (est %.3fs, ~%s out", pos, n.name, n.estCost, byteCount(n.estOutBytes))
	if analyze {
		nr := x.nodes[n.idx]
		fmt.Fprintf(b, "; actual %.3fs, %d rows, %s out; bytes err %s",
			nr.evalSec, nr.outRows, byteCount(float64(nr.outBytes)), pctError(float64(nr.outBytes), n.estOutBytes))
	}
	b.WriteString(")\n")
	parts := queryParts(n)
	for _, pt := range parts {
		prefix := ""
		if len(parts) > 1 {
			prefix = "part: "
		}
		fmt.Fprintf(b, "        %s%s\n", prefix, pt.rw.query)
		if analyze && x.partOut[pt.idx] != nil {
			out := x.partOut[pt.idx]
			fmt.Fprintf(b, "          -> %d rows, %s (est %.0f rows, ~%s; rows err %s)\n",
				out.Len(), byteCount(float64(out.ByteSize())),
				pt.estRows, byteCount(pt.estBytes), pctError(float64(out.Len()), pt.estRows))
		}
	}
	for _, e := range n.in {
		bytes := 0
		if analyze {
			bytes = x.edgeBytes[e.idx]
		}
		if e.from.kind != nodeQuery && e.estBytes <= 0 && bytes == 0 {
			continue
		}
		fmt.Fprintf(b, "        <- %s (~%s shipped", e.from.name, byteCount(e.estBytes))
		if analyze {
			fmt.Fprintf(b, ", actual %s", byteCount(float64(bytes)))
		}
		b.WriteString(")\n")
	}
}

// queryParts returns the node's query parts in execution order,
// regardless of whether the node was merged (items, interleaving absorbed
// local tasks that are skipped here) or not (parts). This is the single
// source of truth for plan rendering; Explain and ExplainAnalyze share
// it.
func queryParts(n *node) []*part {
	if n.items == nil {
		return n.parts
	}
	var ps []*part
	for _, item := range n.items {
		if item.pt != nil {
			ps = append(ps, item.pt)
		}
	}
	return ps
}

// pctError formats the relative estimation error of actual vs est
// ("+12%", "-31%"); when the estimate is zero there is nothing to
// compare against.
func pctError(actual, est float64) string {
	if est == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%+.0f%%", 100*(actual-est)/est)
}

func byteCount(bytes float64) string {
	switch {
	case bytes >= 1<<20:
		return fmt.Sprintf("%.1fMB", bytes/(1<<20))
	case bytes >= 1<<10:
		return fmt.Sprintf("%.1fKB", bytes/(1<<10))
	default:
		return fmt.Sprintf("%.0fB", bytes)
	}
}
