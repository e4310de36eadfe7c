package mediator

import (
	"context"
	"fmt"
	"math"
	"testing"

	"github.com/aigrepro/aig/internal/hospital"
)

// chainGraph builds A(DB1) -> B(DB2) -> C(DB1) with known costs.
func chainGraph() []*node {
	a := &node{idx: 0, kind: nodeQuery, source: "DB1", estCost: 1}
	b := &node{idx: 1, kind: nodeQuery, source: "DB2", estCost: 2}
	c := &node{idx: 2, kind: nodeQuery, source: "DB1", estCost: 3}
	link := func(f, t *node, bytes float64) {
		e := &edge{from: f, to: t, estBytes: bytes}
		f.out = append(f.out, e)
		t.in = append(t.in, e)
	}
	link(a, b, 125000) // 1s at 1 Mbps, doubled via the mediator hop
	link(b, c, 0)
	return []*node{a, b, c}
}

func TestCostOfSerialChain(t *testing.T) {
	nodes := chainGraph()
	net := NetModel{BandwidthBytesPerSec: 125000, LatencySec: 0, QueryOverheadSec: 0}
	p := schedule(nodes, net, ScheduleLevel)
	got := costOf(p.topo, net, estimatedInputs(net))
	// comp(A)=1; arrival at B: 1 + 2*(125000/125000) = 3; comp(B)=5;
	// comp(C)=5+3=8.
	if math.Abs(got-8) > 1e-9 {
		t.Errorf("cost = %v, want 8", got)
	}
}

func TestCostOfChargesOverheadPerQuery(t *testing.T) {
	nodes := chainGraph()
	net := NetModel{BandwidthBytesPerSec: 125000, LatencySec: 0, QueryOverheadSec: 0.5}
	p := schedule(nodes, net, ScheduleLevel)
	got := costOf(p.topo, net, estimatedInputs(net))
	if math.Abs(got-9.5) > 1e-9 { // three queries, +0.5 each
		t.Errorf("cost = %v, want 9.5", got)
	}
}

func TestCostOfSameSourceSerialization(t *testing.T) {
	// Two independent queries on one source serialize on its schedule.
	a := &node{idx: 0, kind: nodeQuery, source: "DB1", estCost: 2}
	b := &node{idx: 1, kind: nodeQuery, source: "DB1", estCost: 3}
	nodes := []*node{a, b}
	net := NetModel{BandwidthBytesPerSec: 1, LatencySec: 0}
	p := schedule(nodes, net, ScheduleFIFO)
	got := costOf(p.topo, net, estimatedInputs(net))
	if math.Abs(got-5) > 1e-9 {
		t.Errorf("cost = %v, want 5 (serialized)", got)
	}
	// On different sources they run in parallel.
	b.source = "DB2"
	p = schedule(nodes, net, ScheduleFIFO)
	got = costOf(p.topo, net, estimatedInputs(net))
	if math.Abs(got-3) > 1e-9 {
		t.Errorf("cost = %v, want 3 (parallel)", got)
	}
}

func TestTopoOrderAndAcyclicity(t *testing.T) {
	nodes := chainGraph()
	order := topoOrder(nodes, byIdx)
	if len(order) != 3 || order[0].idx != 0 || order[2].idx != 2 {
		t.Errorf("topoOrder = %v", order)
	}
	if !isAcyclic(nodes) {
		t.Error("chain reported cyclic")
	}
	// Close the cycle.
	e := &edge{from: nodes[2], to: nodes[0]}
	nodes[2].out = append(nodes[2].out, e)
	nodes[0].in = append(nodes[0].in, e)
	if isAcyclic(nodes) {
		t.Error("cycle not detected")
	}
}

func TestLevelsPrioritizeLongPaths(t *testing.T) {
	// Two roots on the same source: one feeds a long expensive chain,
	// the other is a leaf. The chain head must get the higher level.
	head := &node{idx: 0, kind: nodeQuery, source: "DB1", estCost: 1}
	mid := &node{idx: 1, kind: nodeQuery, source: "DB2", estCost: 10}
	leaf := &node{idx: 2, kind: nodeQuery, source: "DB1", estCost: 1}
	e := &edge{from: head, to: mid}
	head.out = append(head.out, e)
	mid.in = append(mid.in, e)
	nodes := []*node{head, mid, leaf}
	level := levels(topoOrder(nodes, byIdx), DefaultNet())
	if level[head.idx] <= level[leaf.idx] {
		t.Errorf("head level %v not above leaf level %v", level[head.idx], level[leaf.idx])
	}
	p := schedule(nodes, DefaultNet(), ScheduleLevel)
	if p.order["DB1"][0] != head {
		t.Errorf("schedule did not prioritize the chain head: %v", p.order["DB1"])
	}
}

// TestMergeCostsTheAppliedPlan checks that the plan Merge applies is the
// plan it costed: the estimate it accepted equals cost(P) of the merged
// graph under the same schedule. It covers the random grammars and the
// hospital example at levels 2-6 and, on the benchmark's catalog, at
// depth 8, each under both schedules.
func TestMergeCostsTheAppliedPlan(t *testing.T) {
	ctx := context.Background()
	check := func(name string, g *graph, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		_, accepted := g.mergeQueries()
		p := schedule(g.nodes, g.opts.Net, g.opts.Schedule)
		if got := costOf(p.topo, g.opts.Net, estimatedInputs(g.opts.Net)); math.Abs(got-accepted) > 1e-9*accepted {
			t.Errorf("%s: Merge accepted a plan estimated at %.6gs, the applied plan estimates %.6gs", name, accepted, got)
		}
	}
	cat := hospital.TinyCatalog()
	reg250, sa := bench250View(t, false)
	for _, s := range schedules {
		opts := DefaultOptions()
		opts.Schedule = s.algo
		for seed := int64(1); seed <= randomSeeds; seed++ {
			a, reg := randomGrammar(t, seed)
			g, err := compile(ctx, a, reg, opts, nil, nil)
			check(fmt.Sprintf("randaig seed %d, %s", seed, s.name), g, err)
		}
		for level := 2; level <= 6; level++ {
			a, reg := prepared(t, cat, level, true)
			g, err := compile(ctx, a, reg, opts, nil, nil)
			check(fmt.Sprintf("hospital tiny level %d, %s", level, s.name), g, err)
		}
		g, err := New(reg250, opts).compileAt(ctx, sa, 8, nil)
		check("bench250 depth 8, "+s.name, g, err)
	}
}
