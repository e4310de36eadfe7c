package mediator

import (
	"math"
	"slices"
	"sort"
)

// mergeQueries applies Algorithm Merge (§5.4): iteratively pick the pair
// of same-source query nodes whose fusion most reduces the estimated plan
// cost (estimated via Schedule + the §5.2 cost model), subject to the
// merged dependency graph staying acyclic, until no beneficial pair
// remains. It returns the number of merged groups and the estimated
// cost of the plan it chose.
//
// Merging independent queries stands in for the outer union of §5.4: the
// merged node runs their parts one after another, and the cost model
// charges it one request's overhead. Merging dependent queries
// corresponds to inlining: the mediator-local nodes on the paths between
// the two queries (the key-path combination) are absorbed into the
// merged node and executed inline between its parts, so a single
// request to the source covers the whole pipeline and the intermediate
// shipments disappear. A pair whose connecting paths
// pass through a third query node cannot be merged (it would make the
// graph cyclic), matching the acyclicity test of Fig. 9. Nor can a pair
// whose contraction closes a cycle through a third, merged, group, which
// only the contracted graph shows: Schedule's topological sort of the
// trial view rejects it.
func (g *graph) mergeQueries() (int, float64) {
	n := len(g.nodes)
	reach := reachability(g.nodes)

	groupOf := make([]int, n)
	for i := range groupOf {
		groupOf[i] = i
	}

	v := &view{nodes: make([]node, n), edges: make([]edge, 0, len(g.edges)), at: make([]*node, n)}
	in := estimatedInputs(g.opts.Net)
	cost := func(groupOf []int) float64 {
		nodes := v.build(g, groupOf)
		order := scheduleOrder(nodes, g.opts.Net, g.opts.Schedule)
		if len(order) < len(nodes) {
			return math.Inf(1)
		}
		return costOf(order, g.opts.Net, in)
	}

	// interiors returns the nodes strictly between the two groups'
	// members (either direction), in index order, and whether they are
	// all local (merge legality).
	interiors := func(ga, gb int) ([]int, bool) {
		var out []int
		for k, gk := range groupOf {
			if gk == ga || gk == gb {
				continue
			}
			var fromA, toA, fromB, toB bool
			for i, gi := range groupOf {
				switch gi {
				case ga:
					fromA, toA = fromA || reach[i][k], toA || reach[k][i]
				case gb:
					fromB, toB = fromB || reach[i][k], toB || reach[k][i]
				}
			}
			if !(fromA && toB || fromB && toA) {
				continue
			}
			if g.nodes[k].kind != nodeLocal {
				return nil, false
			}
			out = append(out, k)
		}
		return out, true
	}
	// fold merges group gb and the interiors into group ga.
	fold := func(groupOf []int, ga, gb int, extra []int) {
		for k, gid := range groupOf {
			if gid == gb {
				groupOf[k] = ga
			}
		}
		for _, k := range extra {
			groupOf[k] = ga
		}
	}

	// The source query nodes, by source.
	queries := make(map[string][]int)
	for i, node := range g.nodes {
		if node.kind == nodeQuery && node.source != MediatorSource {
			queries[node.source] = append(queries[node.source], i)
		}
	}
	sources := make([]string, 0, len(queries))
	for s := range queries {
		sources = append(sources, s)
	}
	sort.Strings(sources)

	var gids []int
	trial := make([]int, n)
	best := cost(groupOf)
	for {
		type cand struct {
			ga, gb int
			extra  []int
			cost   float64
		}
		var bestCand *cand
		for _, s := range sources {
			gids = gids[:0]
			for _, i := range queries[s] {
				gids = append(gids, groupOf[i])
			}
			slices.Sort(gids)
			gids = slices.Compact(gids)
			for i := 0; i < len(gids); i++ {
				for j := i + 1; j < len(gids); j++ {
					ga, gb := gids[i], gids[j]
					extra, ok := interiors(ga, gb)
					if !ok {
						continue
					}
					copy(trial, groupOf)
					fold(trial, ga, gb, extra)
					if c := cost(trial); c < best-1e-12 && (bestCand == nil || c < bestCand.cost) {
						bestCand = &cand{ga: ga, gb: gb, extra: extra, cost: c}
					}
				}
			}
		}
		if bestCand == nil {
			break
		}
		fold(groupOf, bestCand.ga, bestCand.gb, bestCand.extra)
		best = bestCand.cost
	}

	return g.applyPartition(groupOf), best
}

// reachability computes the transitive closure of the dependency edges.
func reachability(nodes []*node) [][]bool {
	n := len(nodes)
	reach := make([][]bool, n)
	for i := range reach {
		reach[i] = make([]bool, n)
	}
	// DFS from each node; graphs here are small (hundreds of nodes).
	var dfs func(start, cur int)
	dfs = func(start, cur int) {
		for _, e := range nodes[cur].out {
			if t := e.to.idx; !reach[start][t] {
				reach[start][t] = true
				dfs(start, t)
			}
		}
	}
	for i := range nodes {
		dfs(i, i)
	}
	return reach
}

// view is Merge's trial graph: the dependency graph contracted by a
// grouping, one node per group in the order of the groups' first members
// (the order applyPartition gives the plan), its estimates summed over
// the members in index order, and one edge per ordered pair of groups,
// its estimate summed over the pair's edges in edge order. Its node and
// edge blocks are allocated once and rebuilt in place for every trial.
type view struct {
	nodes []node
	ptrs  []*node
	edges []edge
	at    []*node // group id -> view node
}

func (v *view) build(g *graph, groupOf []int) []*node {
	clear(v.at)
	v.ptrs, v.edges = v.ptrs[:0], v.edges[:0]
	for i, n := range g.nodes {
		vn := v.at[groupOf[i]]
		if vn == nil {
			k := len(v.ptrs)
			vn = &v.nodes[k]
			*vn = node{idx: k, kind: n.kind, source: n.source, in: vn.in[:0], out: vn.out[:0]}
			v.at[groupOf[i]], v.ptrs = vn, append(v.ptrs, vn)
		}
		// A group containing any query node behaves as a query at that
		// source.
		if n.kind == nodeQuery {
			vn.kind, vn.source = nodeQuery, n.source
		}
		vn.estCost += n.estCost
		vn.estOutBytes += n.estOutBytes
	}
	for _, e := range g.edges {
		// Within its capacity, so the edges linked so far stay put.
		link(v.at[groupOf[e.from.idx]], v.at[groupOf[e.to.idx]], e.estBytes, func() *edge {
			v.edges = append(v.edges, edge{})
			return &v.edges[len(v.edges)-1]
		})
	}
	return v.ptrs
}

// applyPartition rebuilds the real graph according to the final merge
// partition, returning the number of merged (multi-member) groups. The
// groups are ordered by their first members, as Merge's trial views
// order them, so the plan costs what Merge estimated. Merged nodes
// execute their members — query parts and absorbed local tasks — in
// topological order.
func (g *graph) applyPartition(groupOf []int) int {
	members := make([][]*node, len(g.nodes)) // by group id
	var gids []int                           // in order of first member
	for i, n := range g.nodes {
		gid := groupOf[i]
		if members[gid] == nil {
			gids = append(gids, gid)
		}
		members[gid] = append(members[gid], n)
	}
	pos := make([]int, len(g.nodes))
	for i, n := range topoOrder(g.nodes, byIdx) {
		pos[n.idx] = i
	}

	merged := 0
	final := make([]*node, len(g.nodes)) // by group id
	newNodes := make([]*node, 0, len(gids))
	for _, gid := range gids {
		ms := members[gid]
		if len(ms) == 1 {
			n := ms[0]
			n.in, n.out = nil, nil
			final[gid] = n
			newNodes = append(newNodes, n)
			continue
		}
		merged++
		slices.SortFunc(ms, func(a, b *node) int { return pos[a.idx] - pos[b.idx] })
		m := &node{kind: nodeQuery, name: "merged"}
		for _, n := range ms {
			if n.kind == nodeQuery && n.source != MediatorSource {
				m.source = n.source
			}
			m.items = append(m.items, mergedItem{pt: partOf(n), local: n.runLocal, name: n.name})
			m.estCost += n.estCost
			m.estOutBytes += n.estOutBytes
			m.name += "+" + n.name
		}
		if m.source == "" {
			m.source = ms[0].source
		}
		final[gid] = m
		newNodes = append(newNodes, m)
	}

	// Each rewired edge records which original producers it stands for,
	// so the runtime ships only the relevant parts.
	var newEdges []*edge
	for _, e := range g.edges {
		fe := link(final[groupOf[e.from.idx]], final[groupOf[e.to.idx]], e.estBytes, func() *edge {
			fe := &edge{idx: len(newEdges)}
			newEdges = append(newEdges, fe)
			return fe
		})
		if fe != nil {
			fe.producers = append(fe.producers, e.from)
		}
	}
	for i, n := range newNodes {
		n.idx = i
	}
	g.nodes = newNodes
	g.edges = newEdges
	return merged
}

// mergedItem is one execution step of a merged node: a query part or an
// absorbed local task.
type mergedItem struct {
	pt    *part
	local func(x *exec) (int, error)
	name  string
}

func partOf(n *node) *part {
	if len(n.parts) == 1 {
		return n.parts[0]
	}
	return nil
}
