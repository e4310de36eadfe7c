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

// costOf computes cost(P) for the plan under the given inputs. Completion
// times are computed in one pass over a topological order of the
// dependency edges augmented with schedule-predecessor edges; schedules
// produced by this package are always consistent with the dependency
// partial order, so the combined relation is acyclic.
func costOf(nodes []*node, p *plan, net NetModel, in costInputs) float64 {
	comp := make(map[*node]float64, len(nodes))
	prev := make(map[*node]*node)
	for _, seq := range p.order {
		for i := 1; i < len(seq); i++ {
			prev[seq[i]] = seq[i-1]
		}
	}
	// Combined topological order: process dependency topo order repeatedly
	// until schedule constraints settle. Because schedule order is
	// consistent with dependencies, a single pass over a combined order
	// suffices; build it by inserting schedule edges into the in-degree
	// counts.
	combinedIn := func(n *node) []*node {
		var deps []*node
		for _, e := range n.in {
			deps = append(deps, e.from)
		}
		if pn := prev[n]; pn != nil {
			deps = append(deps, pn)
		}
		return deps
	}
	indeg := make(map[*node]int, len(nodes))
	dependents := make(map[*node][]*node, len(nodes))
	inSet := make(map[*node]bool, len(nodes))
	for _, n := range nodes {
		inSet[n] = true
	}
	for _, n := range nodes {
		for _, d := range combinedIn(n) {
			if inSet[d] {
				indeg[n]++
				dependents[d] = append(dependents[d], n)
			}
		}
	}
	var ready []*node
	for _, n := range nodes {
		if indeg[n] == 0 {
			ready = append(ready, n)
		}
	}
	maxComp := 0.0
	processed := 0
	for len(ready) > 0 {
		n := ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		processed++

		start := 0.0
		if pn := prev[n]; pn != nil {
			start = comp[pn]
		}
		for _, e := range n.in {
			if !inSet[e.from] {
				continue
			}
			arrive := comp[e.from] + net.TransCost(e.from.source, n.source, int(in.bytes(e)))
			if arrive > start {
				start = arrive
			}
		}
		comp[n] = start + in.overhead(n) + in.eval(n)
		if comp[n] > maxComp {
			maxComp = comp[n]
		}
		for _, d := range dependents[n] {
			indeg[d]--
			if indeg[d] == 0 {
				ready = append(ready, d)
			}
		}
	}
	if processed != len(nodes) {
		// Inconsistent schedule (should not happen); signal with +inf so
		// Merge rejects the configuration.
		return 1e18
	}
	return maxComp
}
