package mediator

import (
	"math"
	"testing"
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
	got := costOf(nodes, p, net, estimatedInputs(net))
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
	got := costOf(nodes, p, net, estimatedInputs(net))
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
	got := costOf(nodes, p, net, estimatedInputs(net))
	if math.Abs(got-5) > 1e-9 {
		t.Errorf("cost = %v, want 5 (serialized)", got)
	}
	// On different sources they run in parallel.
	b.source = "DB2"
	p = schedule(nodes, net, ScheduleFIFO)
	got = costOf(nodes, p, net, estimatedInputs(net))
	if math.Abs(got-3) > 1e-9 {
		t.Errorf("cost = %v, want 3 (parallel)", got)
	}
}

func TestTopoOrderAndAcyclicity(t *testing.T) {
	nodes := chainGraph()
	order := topoOrder(nodes)
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
	level := levels(nodes, DefaultNet())
	if level[head] <= level[leaf] {
		t.Errorf("head level %v not above leaf level %v", level[head], level[leaf])
	}
	p := schedule(nodes, DefaultNet(), ScheduleLevel)
	if p.order["DB1"][0] != head {
		t.Errorf("schedule did not prioritize the chain head: %v", p.order["DB1"])
	}
}
