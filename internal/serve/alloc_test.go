//go:build !race

package serve

import "testing"

// maxWarmHitAllocs bounds the allocations of one warm cache hit with the
// flight recorder off (BenchmarkWarmHit/recorder-off), the response
// recorder's own included. Resolving a request to its target must not
// cost the hit path an allocation.
const maxWarmHitAllocs = 39

func TestWarmHitAllocBudget(t *testing.T) {
	hit := warmHit(t, Config{})
	allocs := testing.AllocsPerRun(200, hit)
	t.Logf("%.0f allocs per warm hit (budget %d)", allocs, maxWarmHitAllocs)
	if allocs > maxWarmHitAllocs {
		t.Errorf("one warm hit allocates %.0f times, budget %d", allocs, maxWarmHitAllocs)
	}
}
