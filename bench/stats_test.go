package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n         int
		p         float64
		beyond    int
		supported bool
	}{
		{200, 95, 10, true}, // exactly ten beyond: the rule's edge
		{199, 95, 9, false}, // one short
		{100, 90, 10, true},
		{40, 75, 10, true},
		{40, 90, 4, false},
		{20, 50, 10, true},
		{19, 50, 9, false},
		{0, 50, 0, false},
	} {
		if got := samplesBeyond(tc.n, tc.p); got != tc.beyond {
			t.Errorf("samplesBeyond(%d, %g) = %d, want %d", tc.n, tc.p, got, tc.beyond)
		}
		if got := percentileSupported(tc.n, tc.p); got != tc.supported {
			t.Errorf("percentileSupported(%d, %g) = %v, want %v", tc.n, tc.p, got, tc.supported)
		}
	}
	for _, tc := range []struct {
		n    int
		want float64
	}{{10, 50}, {40, 75}, {150, 90}, {225, 95}, {1000, 99}, {10000, 99.9}} {
		if got := highestSupported(tc.n); got != tc.want {
			t.Errorf("highestSupported(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {95, 10}, {10, 1}, {1, 1}} {
		if got := percentile(v, tc.p); got != tc.want {
			t.Errorf("percentile(1..10, %g) = %g, want %g", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of an empty sample = %g, want 0", got)
	}
	// The value reported has exactly samplesBeyond values above it.
	if beyond := len(v) - 9; samplesBeyond(len(v), 90) != beyond {
		t.Errorf("samplesBeyond(10, 90) = %d, want %d", samplesBeyond(len(v), 90), beyond)
	}
}

// The expected cut points are what Python's statistics.quantiles(v, n=4)
// prints; the contract measures spread with that function.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		v    []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6}, [3]float64{1.25, 3.5, 5.75}},
		{[]float64{10, 20, 40}, [3]float64{10, 20, 40}},
	} {
		q1, q2, q3 := quartiles(tc.v)
		if got := [3]float64{q1, q2, q3}; got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.v, got, tc.want)
		}
	}
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := spread(v), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread(1..10) = %g, want %g", got, want)
	}
}

func TestTimeOpRunsAtLeastMinIters(t *testing.T) {
	calls := 0
	timeOp(0, 7, func() { calls++ })
	if calls != 7 {
		t.Errorf("timeOp with no budget made %d calls, want 7", calls)
	}
	if d := timeOp(time.Millisecond, 1, func() { time.Sleep(200 * time.Microsecond) }); d < 200*time.Microsecond {
		t.Errorf("median of a 200µs sleep measured as %v", d)
	}
}
