package mediator

import (
	"slices"
	"sort"
)

// plan is an execution plan P: one global topological order of the
// dependency graph and its projection onto each source (the mediator's
// local tasks included), the sequence that source runs.
type plan struct {
	topo  []*node
	order map[string][]*node
}

// schedule computes an execution plan for the given nodes. ScheduleLevel
// is Algorithm Schedule of §5.3: each node's priority ℓevel(Q) is its
// estimated evaluation cost plus the maximum downstream path cost
// (including communication), and the plan runs nodes in decreasing
// priority, then by construction index. ScheduleFIFO, the ablation
// baseline, runs them in topological order by construction index. Every
// source's sequence is a projection of one topological order, so no
// source waits on a node it runs later.
func schedule(nodes []*node, net NetModel, algo ScheduleAlgo) *plan {
	p := &plan{topo: scheduleOrder(nodes, net, algo), order: make(map[string][]*node)}
	for _, n := range p.topo {
		p.order[n.source] = append(p.order[n.source], n)
	}
	return p
}

// scheduleOrder is the global order of schedule's plan. It is shorter
// than nodes when their dependency edges have a cycle.
func scheduleOrder(nodes []*node, net NetModel, algo ScheduleAlgo) []*node {
	topo := topoOrder(nodes, byIdx)
	if algo == ScheduleFIFO || len(topo) < len(nodes) {
		return topo
	}
	level := levels(topo, net)
	return topoOrder(nodes, func(a, b *node) bool {
		if la, lb := level[a.idx], level[b.idx]; la != lb {
			return la > lb
		}
		return a.idx < b.idx
	})
}

// levels computes ℓevel(Q), indexed by node, over a topological order in
// reverse (steps 1-6 of Fig. 8).
func levels(topo []*node, net NetModel) []float64 {
	level := make([]float64, len(topo))
	for i := len(topo) - 1; i >= 0; i-- {
		n := topo[i]
		l := 0.0
		for _, e := range n.out {
			t := net.TransCost(n.source, e.to.source, int(e.estBytes)) + level[e.to.idx]
			if t > l {
				l = t
			}
		}
		// Force a strictly positive cost so priorities strictly decrease
		// along edges: the level order is then itself topological.
		c := n.estCost
		if c <= 0 {
			c = 1e-9
		}
		level[n.idx] = l + c
	}
	return level
}

func byIdx(a, b *node) bool { return a.idx < b.idx }

// topoOrder returns the nodes in a topological order of their dependency
// edges (Kahn's algorithm), taking the first ready node by before at each
// step. The nodes' indexes are 0..len(nodes)-1 and their edges stay
// among them. The order is shorter than nodes when the edges have a
// cycle.
func topoOrder(nodes []*node, before func(a, b *node) bool) []*node {
	indeg := make([]int, len(nodes))
	// ready runs from the last node by before to the first.
	ready := make([]*node, 0, len(nodes))
	push := func(n *node) {
		i := sort.Search(len(ready), func(k int) bool { return before(ready[k], n) })
		ready = slices.Insert(ready, i, n)
	}
	for _, n := range nodes {
		if indeg[n.idx] = len(n.in); indeg[n.idx] == 0 {
			push(n)
		}
	}
	out := make([]*node, 0, len(nodes))
	for len(ready) > 0 {
		n := ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		out = append(out, n)
		for _, e := range n.out {
			if indeg[e.to.idx]--; indeg[e.to.idx] == 0 {
				push(e.to)
			}
		}
	}
	return out
}

// isAcyclic reports whether the node set's dependency edges form a DAG.
func isAcyclic(nodes []*node) bool {
	return len(topoOrder(nodes, byIdx)) == len(nodes)
}
