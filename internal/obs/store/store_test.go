package store

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/aigrepro/aig/internal/obs"
)

func mkTrace(id string, dur time.Duration, errMsg string) *Trace {
	return &Trace{
		ID:       id,
		Kind:     "request",
		Start:    time.Unix(0, 0),
		Duration: dur,
		Error:    errMsg,
		Tracer:   obs.NewTracerID(id),
	}
}

// observe offers a completed trace the way serve does — Decide on its
// outcome, then Insert under the kept reason — and reports whether tail
// sampling kept it.
func observe(s *Store, t *Trace) bool {
	reason := s.Decide(t.Duration, t.Error != "")
	s.Insert(t, reason)
	return reason != ""
}

// keepAll is a policy whose probabilistic rule always fires.
var keepAll = Policy{SampleRate: 1, Rand: func() float64 { return 0 }}

func TestTailSamplingDecisions(t *testing.T) {
	pol := Policy{
		SlowThreshold: 100 * time.Millisecond,
		SampleRate:    0.5,
	}
	cases := []struct {
		name string
		tr   *Trace
		rand float64
		want string // kept reason, "" = dropped
	}{
		{"error kept", mkTrace("a", time.Millisecond, "boom"), 0.99, KeptError},
		{"slow kept", mkTrace("b", 150*time.Millisecond, ""), 0.99, KeptSlow},
		{"threshold is inclusive", mkTrace("c", 100*time.Millisecond, ""), 0.99, KeptSlow},
		{"fast sampled in", mkTrace("d", time.Millisecond, ""), 0.4, KeptSampled},
		{"fast sampled out", mkTrace("e", time.Millisecond, ""), 0.6, ""},
	}
	for _, tc := range cases {
		p := pol
		p.Rand = func() float64 { return tc.rand }
		s := New(4, p)
		kept := observe(s, tc.tr)
		if kept != (tc.want != "") {
			t.Errorf("%s: kept=%v, want %v", tc.name, kept, tc.want != "")
		}
		if tc.tr.KeptReason != tc.want && tc.want != "" {
			t.Errorf("%s: reason=%q, want %q", tc.name, tc.tr.KeptReason, tc.want)
		}
		if tc.want != "" {
			if _, ok := s.Get(tc.tr.ID); !ok {
				t.Errorf("%s: kept trace not retrievable", tc.name)
			}
		} else if s.Len() != 0 {
			t.Errorf("%s: dropped trace retained", tc.name)
		}
	}
}

func TestSampleRateZeroDropsHealthyFast(t *testing.T) {
	s := New(4, Policy{SlowThreshold: time.Second})
	if observe(s, mkTrace("x", time.Millisecond, "")) {
		t.Fatal("fast healthy trace kept with SampleRate 0")
	}
	if observe(s, mkTrace("y", 2*time.Second, "")) != true {
		t.Fatal("slow trace dropped")
	}
}

func TestRingEvictionOrder(t *testing.T) {
	s := New(3, keepAll)
	for i := 0; i < 5; i++ {
		observe(s, mkTrace(fmt.Sprintf("t%d", i), time.Duration(i)*time.Millisecond, ""))
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	// t0, t1 evicted; t2..t4 retained; List is newest first.
	for _, gone := range []string{"t0", "t1"} {
		if _, ok := s.Get(gone); ok {
			t.Errorf("%s should have been evicted", gone)
		}
	}
	got := s.List(Filter{})
	want := []string{"t4", "t3", "t2"}
	if len(got) != len(want) {
		t.Fatalf("List returned %d traces, want %d", len(got), len(want))
	}
	for i, w := range want {
		if got[i].ID != w {
			t.Errorf("List[%d] = %s, want %s", i, got[i].ID, w)
		}
	}
}

func TestListFilters(t *testing.T) {
	s := New(8, keepAll)
	observe(s, &Trace{ID: "r1", Kind: "request", View: "report", Duration: 5 * time.Millisecond})
	observe(s, &Trace{ID: "r2", Kind: "request", View: "report", Duration: 50 * time.Millisecond, Error: "bad"})
	observe(s, &Trace{ID: "o1", Kind: "request", View: "other", Duration: 80 * time.Millisecond})
	observe(s, &Trace{ID: "f1", Kind: "refresh", View: "report", Duration: time.Millisecond})

	if got := s.List(Filter{View: "report"}); len(got) != 3 {
		t.Errorf("View filter: %d traces, want 3", len(got))
	}
	if got := s.List(Filter{Kind: "refresh"}); len(got) != 1 || got[0].ID != "f1" {
		t.Errorf("Kind filter: %v", ids(got))
	}
	if got := s.List(Filter{MinDuration: 40 * time.Millisecond}); len(got) != 2 {
		t.Errorf("MinDuration filter: %v", ids(got))
	}
	if got := s.List(Filter{ErrorsOnly: true}); len(got) != 1 || got[0].ID != "r2" {
		t.Errorf("ErrorsOnly filter: %v", ids(got))
	}
	if got := s.List(Filter{Limit: 2}); len(got) != 2 || got[0].ID != "f1" {
		t.Errorf("Limit: %v", ids(got))
	}
}

func ids(ts []*Trace) []string {
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = t.ID
	}
	return out
}

func TestConcurrentWriters(t *testing.T) {
	s := New(16, keepAll)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := fmt.Sprintf("w%d-%d", w, i)
				observe(s, mkTrace(id, time.Millisecond, ""))
				s.Get(id)
				s.List(Filter{Limit: 4})
			}
		}(w)
	}
	wg.Wait()
	if s.Len() != 16 {
		t.Fatalf("Len = %d, want 16", s.Len())
	}
	// Every listed trace must resolve through Get to the same object.
	for _, tr := range s.List(Filter{}) {
		got, ok := s.Get(tr.ID)
		if !ok || got != tr {
			t.Fatalf("List/Get disagree for %s", tr.ID)
		}
	}
}

func TestNilStoreDisabled(t *testing.T) {
	var s *Store
	if observe(s, mkTrace("x", time.Second, "err")) {
		t.Fatal("nil store kept a trace")
	}
	if _, ok := s.Get("x"); ok {
		t.Fatal("nil store returned a trace")
	}
	if s.Len() != 0 || s.List(Filter{}) != nil {
		t.Fatal("nil store not empty")
	}
}

// TestDisabledPathZeroAlloc pins the cost of running with tracing and the
// recorder off: the nil-receiver paths must not allocate.
func TestDisabledPathZeroAlloc(t *testing.T) {
	var tr *obs.Tracer
	var s *Store
	ctx := context.Background()
	tt := &Trace{ID: "x"}
	allocs := testing.AllocsPerRun(100, func() {
		sp := tr.StartSpan("work", nil)
		sp.SetAttr("k", "v")
		sp.End()
		obs.ContextWithSpan(ctx, tr, sp)
		obs.SpanFromContext(ctx)
		observe(s, tt)
	})
	if allocs != 0 {
		t.Fatalf("disabled path allocates: %v allocs/op", allocs)
	}
}
