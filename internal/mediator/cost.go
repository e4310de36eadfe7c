package mediator

// This file implements the cost model of §5.2: the completion time of a
// query is its evaluation cost plus the later of (a) the completion of
// its predecessor in the source's schedule and (b) the arrival of its
// inputs, each paying the communication cost of shipping the producer's
// output between the producers' and consumer's sites. The response time
// cost(P) of a plan is the maximum completion time over all nodes.

// costInputs abstracts over estimated (compile-time, used by Merge) and
// measured (run-time, used for reporting) quantities.
type costInputs struct {
	eval     func(*node) float64 // seconds inside the node's engine
	bytes    func(*edge) float64 // shipped volume of one dependency edge
	overhead func(*node) float64 // fixed per-request cost
}

func estimatedInputs(net NetModel) costInputs {
	return costInputs{
		eval:  func(n *node) float64 { return n.estCost },
		bytes: func(e *edge) float64 { return e.estBytes },
		overhead: func(n *node) float64 {
			if n.kind == nodeQuery && n.source != MediatorSource {
				return net.QueryOverheadSec
			}
			return 0
		},
	}
}

// measuredInputs reads what this run measured; the per-request overhead
// is the model's either way.
func (x *exec) measuredInputs() costInputs {
	in := estimatedInputs(x.g.opts.Net)
	in.eval = func(n *node) float64 { return x.nodes[n.idx].evalSec }
	in.bytes = func(e *edge) float64 { return float64(x.edgeBytes[e.idx]) }
	return in
}

// costOf computes cost(P) in one pass over a plan's global order
// (plan.topo): each source runs its nodes in that order, so a node's
// schedule predecessor is the last node of its source before it, and its
// producers all come before it.
func costOf(topo []*node, net NetModel, in costInputs) float64 {
	comp := make([]float64, len(topo))
	last := make(map[string]float64) // completion of each source's latest node
	maxComp := 0.0
	for _, n := range topo {
		start := last[n.source]
		for _, e := range n.in {
			arrive := comp[e.from.idx] + net.TransCost(e.from.source, n.source, int(in.bytes(e)))
			if arrive > start {
				start = arrive
			}
		}
		c := start + in.overhead(n) + in.eval(n)
		comp[n.idx], last[n.source] = c, c
		if c > maxComp {
			maxComp = c
		}
	}
	return maxComp
}
