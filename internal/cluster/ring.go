// Package cluster is the horizontal-scaling tier: a consistent-hash
// router spreads view requests over a fleet of aigd replicas, each of
// which mirrors the sources by delta subscription (internal/remote's
// Mirror) instead of polling. The router exists for cache locality —
// the replicas' result caches and IVM refreshers are per-process, so
// sending the same (view, params) to the same replica turns N caches
// into one logical cache with N-way capacity, rather than N copies of
// the same hot entries.
package cluster

import (
	"hash/fnv"
	"sort"
	"strconv"
)

// ring is a consistent-hash ring with virtual nodes. Each member is
// hashed onto the unit circle ringPoints times; a key routes to the
// first member clockwise of its hash. Virtual nodes smooth the load
// split (with m members and v virtual nodes each the expected imbalance
// shrinks as 1/sqrt(v)), and consistency bounds churn: adding or
// removing one member remaps only ~1/m of the keyspace, so a replica
// joining the fleet steals — and warms — only its own shard of the
// cache.
type ring struct {
	points  []ringPoint
	members []string
}

type ringPoint struct {
	hash   uint64
	member int // index into members
}

// ringPoints is the number of points each member is hashed at.
const ringPoints = 128

// newRing builds a ring over the given members (deduplicated, sorted
// so the ring is a pure function of the membership set).
func newRing(members []string) *ring {
	uniq := make([]string, 0, len(members))
	seen := make(map[string]bool, len(members))
	for _, m := range members {
		if !seen[m] {
			seen[m] = true
			uniq = append(uniq, m)
		}
	}
	sort.Strings(uniq)
	r := &ring{members: uniq}
	for i, m := range uniq {
		for v := 0; v < ringPoints; v++ {
			r.points = append(r.points, ringPoint{hash: hash64(m + "#" + strconv.Itoa(v)), member: i})
		}
	}
	sort.Slice(r.points, func(a, b int) bool { return r.points[a].hash < r.points[b].hash })
	return r
}

// hash64 is FNV-1a over the key, finalized with a splitmix64-style
// mixer: FNV alone avalanches poorly into the high bits for short,
// similar strings (sequential parameter values, vnode suffixes), which
// skews the ring split; the multiply-xorshift rounds spread every input
// bit across the word. No adversarial collision resistance is needed —
// the keys are view names and parameters from our own clients.
func hash64(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// seq returns every member exactly once, in ring-walk order starting
// at the key's position. seq[0] is the home replica; the rest is the
// deterministic failover order, so retries after a replica failure
// also concentrate per key (the first fallback inherits the shard
// rather than scattering it fleet-wide).
func (r *ring) seq(key string) []string {
	if len(r.members) == 0 {
		return nil
	}
	h := hash64(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, len(r.members))
	seen := make(map[int]bool, len(r.members))
	for i := 0; i < len(r.points) && len(out) < len(r.members); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.member] {
			seen[p.member] = true
			out = append(out, r.members[p.member])
		}
	}
	return out
}
