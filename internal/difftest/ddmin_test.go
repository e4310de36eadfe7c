package difftest

import (
	"slices"
	"testing"
)

// TestDdmin pins the sequence shrinker on a synthetic oracle: a sequence
// diverges on leg "x" when it holds both 3 and 7, and on leg "y" when it
// holds 3 alone.
func TestDdmin(t *testing.T) {
	oracle := func(runs *int) func([]int) *Divergence {
		return func(seq []int) *Divergence {
			*runs++
			has3, has7 := slices.Contains(seq, 3), slices.Contains(seq, 7)
			switch {
			case has3 && has7:
				return &Divergence{Leg: "x"}
			case has3:
				return &Divergence{Leg: "y"}
			}
			return nil
		}
	}
	seq := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}

	t.Run("minimal", func(t *testing.T) {
		var runs int
		got, div, checks := ddmin(seq, "x", 0, oracle(&runs))
		if !slices.Equal(got, []int{3, 7}) {
			t.Fatalf("shrunk to %v, want [3 7]", got)
		}
		if div == nil || checks != runs {
			t.Fatalf("div %v after %d checks (%d runs)", div, checks, runs)
		}
	})

	t.Run("leg", func(t *testing.T) {
		// Dropping 7 still diverges, but on leg "y": a different bug.
		got, div, _ := ddmin(seq, "x", 0, oracle(new(int)))
		if div == nil || div.Leg != "x" || !slices.Contains(got, 7) {
			t.Fatalf("shrink left leg x: %v on %v", div, got)
		}
		got, div, _ = ddmin([]int{0, 1, 2, 3, 4, 5, 6, 8, 9}, "y", 0, oracle(new(int)))
		if div == nil || div.Leg != "y" || !slices.Equal(got, []int{3}) {
			t.Fatalf("leg y shrunk to %v (%v), want [3]", got, div)
		}
	})

	t.Run("budget", func(t *testing.T) {
		for budget := 1; budget <= 6; budget++ {
			var runs int
			got, div, checks := ddmin(seq, "x", budget, oracle(&runs))
			if checks > budget || runs != checks {
				t.Fatalf("budget %d: %d checks, %d runs", budget, checks, runs)
			}
			if div == nil || !slices.Contains(got, 3) || !slices.Contains(got, 7) {
				t.Fatalf("budget %d: lost the divergence: %v on %v", budget, div, got)
			}
		}
	})

	t.Run("non_reproducing", func(t *testing.T) {
		for _, in := range [][]int{{0, 1, 2}, {3, 4}} { // no divergence; only leg "y"
			got, div, checks := ddmin(in, "x", 5, oracle(new(int)))
			if div != nil || checks != 1 || !slices.Equal(got, in) {
				t.Fatalf("%v: got %v, div %v, %d checks; want unchanged, nil, 1", in, got, div, checks)
			}
		}
	})

	t.Run("recovery_budget", func(t *testing.T) {
		// The store is correct, so a recovery regression does not
		// reproduce: Shrink spends one check and changes nothing.
		cfg := RecoverConfig{Mutations: 8}
		_, ops := CheckRecovery(2, cfg)
		reg := Regression{Seed: 2, Mode: "recover", RecoverOps: ops, RecoverCfg: &cfg, Leg: "recover"}
		kept, div, checks, err := reg.Shrink(5)
		if err != nil || div != nil {
			t.Fatalf("shrink fabricated a divergence: %v, %v", div, err)
		}
		if len(kept.RecoverOps) != len(ops) {
			t.Fatalf("shrink of passing sequence dropped ops: %d -> %d", len(ops), len(kept.RecoverOps))
		}
		if checks != 1 {
			t.Fatalf("want 1 check for non-reproducing input, got %d", checks)
		}
	})
}
