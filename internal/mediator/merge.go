package mediator

import (
	"sort"
)

// mergeQueries applies Algorithm Merge (§5.4): iteratively pick the pair
// of same-source query nodes whose fusion most reduces the estimated plan
// cost (estimated via Schedule + the §5.2 cost model), subject to the
// merged dependency graph staying acyclic, until no beneficial pair
// remains.
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
// graph cyclic), matching the acyclicity test of Fig. 9.
func (g *graph) mergeQueries() int {
	n := len(g.nodes)
	reach := reachability(g.nodes)

	groupOf := make([]int, n)
	for i := range groupOf {
		groupOf[i] = i
	}

	cost := func() float64 {
		view := g.buildView(groupOf)
		if len(topoOrder(view)) != len(view) {
			return 1e18
		}
		p := schedule(view, g.opts.Net, g.opts.Schedule)
		return costOf(view, p, g.opts.Net, estimatedInputs(g.opts.Net))
	}

	// interiors returns the nodes strictly between the two groups'
	// members (either direction) and whether they are all local (merge
	// legality).
	interiors := func(ga, gb int) ([]int, bool) {
		var inA, inB []int
		for i := range groupOf {
			switch groupOf[i] {
			case ga:
				inA = append(inA, i)
			case gb:
				inB = append(inB, i)
			}
		}
		between := make(map[int]bool)
		for _, a := range inA {
			for _, b := range inB {
				for k := 0; k < n; k++ {
					if groupOf[k] == ga || groupOf[k] == gb {
						continue
					}
					if (reach[a][k] && reach[k][b]) || (reach[b][k] && reach[k][a]) {
						between[k] = true
					}
				}
			}
		}
		out := make([]int, 0, len(between))
		for k := range between {
			if g.nodes[k].kind != nodeLocal {
				return nil, false
			}
			out = append(out, k)
		}
		sort.Ints(out)
		return out, true
	}

	best := cost()
	for {
		type cand struct {
			ga, gb int
			extra  []int
			cost   float64
		}
		var bestCand *cand

		bySource := make(map[string][]int) // source -> group ids with query nodes
		seenGroup := make(map[int]bool)
		for i, node := range g.nodes {
			if node.kind == nodeQuery && node.source != MediatorSource {
				gid := groupOf[i]
				if !seenGroup[gid] {
					seenGroup[gid] = true
					bySource[node.source] = append(bySource[node.source], gid)
				}
			}
		}
		var sources []string
		for s := range bySource {
			sources = append(sources, s)
		}
		sort.Strings(sources)
		for _, s := range sources {
			gids := bySource[s]
			sort.Ints(gids)
			for i := 0; i < len(gids); i++ {
				for j := i + 1; j < len(gids); j++ {
					ga, gb := gids[i], gids[j]
					extra, ok := interiors(ga, gb)
					if !ok {
						continue
					}
					// Trial: fold gb and the interiors into ga.
					saved := make(map[int]int)
					fold := func(idx int) {
						saved[idx] = groupOf[idx]
						groupOf[idx] = ga
					}
					for k := range groupOf {
						if groupOf[k] == gb {
							fold(k)
						}
					}
					for _, k := range extra {
						if groupOf[k] != ga {
							fold(k)
						}
					}
					c := cost()
					for k, old := range saved {
						groupOf[k] = old
					}
					if c < best-1e-12 && (bestCand == nil || c < bestCand.cost) {
						bestCand = &cand{ga: ga, gb: gb, extra: extra, cost: c}
					}
				}
			}
		}
		if bestCand == nil {
			break
		}
		for k := range groupOf {
			if groupOf[k] == bestCand.gb {
				groupOf[k] = bestCand.ga
			}
		}
		for _, k := range bestCand.extra {
			groupOf[k] = bestCand.ga
		}
		best = bestCand.cost
	}

	return g.applyPartition(groupOf)
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
	var visitMark []bool
	dfs = func(start, cur int) {
		for _, e := range nodes[cur].out {
			t := e.to.idx
			if !visitMark[t] {
				visitMark[t] = true
				reach[start][t] = true
				dfs(start, t)
			}
		}
	}
	for i := range nodes {
		visitMark = make([]bool, n)
		dfs(i, i)
	}
	return reach
}

// buildView constructs a throwaway contracted graph for cost evaluation:
// each group becomes one node whose estimates aggregate its members.
func (g *graph) buildView(groupOf []int) []*node {
	rep := make(map[int]*node)
	var view []*node
	for i, n := range g.nodes {
		gid := groupOf[i]
		v, ok := rep[gid]
		if !ok {
			v = &node{idx: len(view), kind: n.kind, source: n.source}
			rep[gid] = v
			view = append(view, v)
		}
		// A group containing any query node behaves as a query at that
		// source.
		if n.kind == nodeQuery {
			v.kind = nodeQuery
			v.source = n.source
		}
		v.estCost += n.estCost
		v.estOutBytes += n.estOutBytes
	}
	type pair struct{ f, t *node }
	seen := make(map[pair]*edge)
	for _, e := range g.edges {
		vf, vt := rep[groupOf[e.from.idx]], rep[groupOf[e.to.idx]]
		if vf == vt {
			continue
		}
		if ve, ok := seen[pair{vf, vt}]; ok {
			ve.estBytes += e.estBytes
			continue
		}
		ve := &edge{from: vf, to: vt, estBytes: e.estBytes}
		seen[pair{vf, vt}] = ve
		vf.out = append(vf.out, ve)
		vt.in = append(vt.in, ve)
	}
	return view
}

// applyPartition rebuilds the real graph according to the final merge
// partition, returning the number of merged (multi-member) groups. Merged
// nodes execute their members — query parts and absorbed local tasks — in
// topological order.
func (g *graph) applyPartition(groupOf []int) int {
	members := make(map[int][]*node)
	groupByNode := make(map[*node]int, len(g.nodes))
	for i, n := range g.nodes {
		members[groupOf[i]] = append(members[groupOf[i]], n)
		groupByNode[n] = groupOf[i]
	}
	merged := 0

	pos := make(map[*node]int, len(g.nodes))
	for i, n := range topoOrder(g.nodes) {
		pos[n] = i
	}

	final := make(map[int]*node, len(members))
	var newNodes []*node
	gids := make([]int, 0, len(members))
	for gid := range members {
		gids = append(gids, gid)
	}
	sort.Ints(gids)
	for _, gid := range gids {
		ms := members[gid]
		if len(ms) == 1 {
			n := ms[0]
			n.in, n.out = nil, nil
			n.idx = len(newNodes)
			final[gid] = n
			newNodes = append(newNodes, n)
			continue
		}
		merged++
		sort.SliceStable(ms, func(i, j int) bool { return pos[ms[i]] < pos[ms[j]] })
		m := &node{idx: len(newNodes), kind: nodeQuery, name: "merged"}
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

	type pair struct{ f, t *node }
	seen := make(map[pair]*edge)
	var newEdges []*edge
	for _, e := range g.edges {
		nf, nt := final[groupByNode[e.from]], final[groupByNode[e.to]]
		if nf == nt {
			continue
		}
		if fe, ok := seen[pair{nf, nt}]; ok {
			fe.estBytes += e.estBytes
			continue
		}
		fe := &edge{idx: len(newEdges), from: nf, to: nt, estBytes: e.estBytes}
		seen[pair{nf, nt}] = fe
		nf.out = append(nf.out, fe)
		nt.in = append(nt.in, fe)
		newEdges = append(newEdges, fe)
	}
	// Record, per rewired edge, which original producers it stands for,
	// so the runtime ships only the relevant parts.
	for _, e := range g.edges {
		nf, nt := final[groupByNode[e.from]], final[groupByNode[e.to]]
		if nf == nt {
			continue
		}
		fe := seen[pair{nf, nt}]
		fe.producers = append(fe.producers, e.from)
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
