package main

import (
	"testing"
	"time"
)

func mkSpan(id, parent, request int, name string, d time.Duration) span {
	return span{ID: id, Parent: parent, Request: request, Name: name, StartNs: 0, EndNs: int64(d)}
}

func TestSelfTimeArithmetic(t *testing.T) {
	msd := time.Millisecond
	spans := []span{
		mkSpan(1, 0, 0, "serve.handler", 10*msd),
		mkSpan(2, 1, 0, "mediator.evaluate", 6*msd),
		mkSpan(3, 2, 0, "mediator.execute", 4*msd), // grandchild: charged to evaluate only
		mkSpan(4, 1, 0, "xmltree.serialize", 1*msd),
		// A noisy request: the separately timed children add up to more
		// than the handler took; self time stops at zero.
		mkSpan(5, 0, 1, "serve.handler", 5*msd),
		mkSpan(6, 5, 1, "mediator.evaluate", 7*msd),
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{1: 3 * msd, 2: 2 * msd, 3: 4 * msd, 4: 1 * msd, 5: 0, 6: 7 * msd} {
		if self[id] != want {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], want)
		}
	}
	// Per request the self times add up to the root's duration when the
	// children fit inside it (request 0: 10 ms), and to the children's
	// when they do not (request 1: 7 ms); the median of the two is 8.5.
	all := func(int) bool { return true }
	if got := attributedMs(spans, all); got != 8.5 {
		t.Errorf("attributedMs = %g, want 8.5", got)
	}
	if got := attributedMs(spans, func(r int) bool { return r == 0 }); got != 10 {
		t.Errorf("attributedMs of request 0 = %g, want 10", got)
	}
}

func TestLayerTable(t *testing.T) {
	msd := time.Millisecond
	spans := []span{
		mkSpan(1, 0, 0, "serve.handler", 10*msd),
		mkSpan(2, 1, 0, "mediator.evaluate", 6*msd),
		mkSpan(3, 0, 1, "serve.handler", 20*msd),
		mkSpan(4, 3, 1, "mediator.evaluate", 10*msd),
		mkSpan(5, 0, 2, "serve.handler", 99*msd), // filtered out
	}
	rows := layerTable(spans, func(r int) bool { return r < 2 })
	if len(rows) != 2 || rows[0].Name != "serve.handler" || rows[1].Name != "mediator.evaluate" {
		t.Fatalf("rows = %+v, want serve.handler then mediator.evaluate", rows)
	}
	if r := rows[0]; r.Depth != 0 || r.Count != 2 || r.TotalMs != 15 || r.SelfMs != 7 {
		t.Errorf("serve.handler row = %+v, want depth 0, count 2, total 15, self 7", r)
	}
	if r := rows[1]; r.Depth != 1 || r.Count != 2 || r.TotalMs != 8 || r.SelfMs != 8 {
		t.Errorf("mediator.evaluate row = %+v, want depth 1, count 2, total 8, self 8", r)
	}
}

func TestNilRecorderRecordsNothing(t *testing.T) {
	var none *recorder
	ran := false
	id, d := none.run("x", 0, 0, func() { ran = true })
	if !ran || id != 0 || d < 0 {
		t.Errorf("nil recorder: ran=%v id=%d d=%v", ran, id, d)
	}
	if none.add("x", 0, 0, 0, time.Millisecond) != 0 {
		t.Error("nil recorder returned a span ID")
	}
}
