package serve

import (
	"errors"
	"sync"
	"time"

	"github.com/aigrepro/aig/internal/ivm"
	"github.com/aigrepro/aig/internal/obs"
	"github.com/aigrepro/aig/internal/relstore"
)

// refresher is the background half of incremental view maintenance:
// a loop that watches the per-source data versions and, whenever cached
// entries fall behind, either proves them still exact (delta judgement
// via ivm.Deps — the entry is restamped to the new version without
// re-evaluating) or rebuilds them by a full evaluation. Either way the
// cache stays warm across writes: steady read traffic keeps hitting
// instead of paying an evaluation after every mutation.
//
// Soundness leans on two version reads bracketing every decision. A
// cycle reads a view's stamp, snapshots its per-table versions, and
// reads the stamp again; only if the two stamps agree is the snapshot
// trusted (nothing mutated in between, so stamp, table versions, and
// data are one consistent state). Restamping additionally relies on the
// change-log judge: all deltas between an entry's recorded table
// versions and the snapshot must be provably irrelevant for the entry's
// parameter binding. Full rebuilds go through the same
// stamp-recheck-before-cache path as request misses.
type refresher struct {
	s        *Server
	interval time.Duration

	stop chan struct{}
	done chan struct{}
	kick chan struct{}
	once sync.Once

	// dirtyAt tracks, per logical entry (cache-key prefix), when the
	// refresher first observed it stale — the start point of the
	// refresh-lag measurement.
	dirtyAt map[string]time.Time
}

func newRefresher(s *Server, interval time.Duration) *refresher {
	return &refresher{
		s:        s,
		interval: interval,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
		kick:     make(chan struct{}, 1),
		dirtyAt:  make(map[string]time.Time),
	}
}

func (r *refresher) start() { go r.loop() }

// stopOnce stops the loop and waits for the in-flight cycle to finish.
func (r *refresher) stopOnce() {
	r.once.Do(func() { close(r.stop) })
	<-r.done
}

func (r *refresher) loop() {
	defer close(r.done)
	ticker := time.NewTicker(r.interval)
	defer ticker.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-ticker.C:
		case <-r.kick:
			// Push-based invalidation: a subscription delta landed, run a
			// cycle now instead of waiting out the tick. The ticker stays as
			// the fallback for sources without push.
		}
		if r.s.draining.Load() {
			return
		}
		r.cycle()
	}
}

// viewState is one view's consistent version snapshot for a cycle.
type viewState struct {
	v     *View
	stamp string
	tv    map[string]map[string]uint64
	ok    bool
}

// snapshotView reads stamp, table versions, stamp again, accepting only
// a quiescent window. Under sustained writes faster than two version
// round trips no snapshot is consistent; the view's entries simply wait
// for a later cycle.
func (s *Server) snapshotView(v *View) viewState {
	st := viewState{v: v}
	for attempt := 0; attempt < 3; attempt++ {
		s1, settled, err := s.stamp(v)
		if err != nil {
			s.m.refreshErrors.Inc()
			return st
		}
		if !settled {
			continue
		}
		tv, err := s.tableVersions(v)
		if err != nil {
			s.m.refreshErrors.Inc()
			return st
		}
		s2, _, err := s.stamp(v)
		if err != nil {
			s.m.refreshErrors.Inc()
			return st
		}
		if s1 == s2 {
			st.stamp, st.tv, st.ok = s1, tv, true
			return st
		}
	}
	return st
}

// cycle runs one refresh pass over the whole cache.
func (r *refresher) cycle() {
	s := r.s
	s.m.refreshCycles.Inc()

	items := s.cache.Snapshot()
	states := make(map[string]viewState)
	live := make(map[string]bool, len(items))

	var dirty []lruItem
	for _, it := range items {
		live[it.entry.keyPrefix] = true
		st, ok := states[it.entry.view]
		if !ok {
			if v := s.View(it.entry.view); v != nil {
				st = s.snapshotView(v)
			}
			states[it.entry.view] = st
		}
		if !st.ok {
			continue
		}
		if it.entry.stamp == st.stamp {
			delete(r.dirtyAt, it.entry.keyPrefix)
			continue
		}
		dirty = append(dirty, it)
	}
	s.m.refreshDirty.Set(float64(len(dirty)))

	for _, it := range dirty {
		select {
		case <-r.stop:
			return
		default:
		}
		r.refreshOne(it, states[it.entry.view])
	}

	// Entries evicted from the cache no longer need lag tracking.
	for prefix := range r.dirtyAt {
		if !live[prefix] {
			delete(r.dirtyAt, prefix)
		}
	}
}

// refreshOne brings one stale entry up to the cycle's snapshot, by
// restamp when the judge proves the deltas irrelevant, by full
// re-evaluation otherwise. Each refresh runs as its own "refresh"-kind
// trace, so slow background rebuilds are as retrievable from the flight
// recorder as slow client requests.
func (r *refresher) refreshOne(it lruItem, st viewState) {
	s := r.s
	e := it.entry
	start := time.Now()
	dirtySince, seen := r.dirtyAt[e.keyPrefix]
	if !seen {
		dirtySince = start
		r.dirtyAt[e.keyPrefix] = start
	}

	rt, ctx := s.beginBackgroundTrace("refresh", st.v, start)
	rt.params = canonicalParams(e.params)
	defer rt.finish()

	// The entry's target decides what it is judged against: a fragment's
	// path-filtered map restamps it on a delta landing outside the scans
	// its path can reach, even when the full document must be rebuilt.
	t, terr := s.entryTarget(st.v, e)
	if terr != nil {
		// A cached fragment whose path no longer compiles (the view was
		// replaced): drop it rather than refresh it forever.
		s.cache.Remove(it.key)
		s.m.refreshErrors.Inc()
		rt.fail(terr)
		return
	}

	tr, parent := obs.SpanFromContext(ctx)
	judgeSpan := tr.StartSpan("ivm.judge", parent)
	unaffected := s.judgeUnaffected(e, st, s.deps(t, st.stamp))
	judgeSpan.SetAttr("unaffected", unaffected).End()

	if unaffected {
		newKey := e.keyPrefix + "\x00" + st.stamp
		s.cache.Replace(it.key, newKey, e.restamped(st.stamp, st.tv))
		s.m.cacheEntries.Set(float64(s.cache.Len()))
		s.m.refreshDelta.Inc()
		rt.setCache("restamp")
	} else {
		// Full rebuild through the shared miss path: coalesces with any
		// concurrent client miss on the same key and only caches if the
		// stamp holds through the evaluation. The stale entry is removed
		// either way — its key can never be hit again (stamps are
		// monotone), so keeping it would only crowd the LRU.
		_, err, _ := s.cacheFill(ctx, t, st.stamp, func() (*cacheEntry, error) {
			return s.fill(ctx, t, st.stamp, nil, true)
		})
		s.cache.Remove(it.key)
		s.m.cacheEntries.Set(float64(s.cache.Len()))
		rt.setCache("rebuild")
		if err != nil {
			s.m.refreshErrors.Inc()
			rt.fail(err)
			return
		}
		s.m.refreshFull.Inc()
	}

	s.m.refreshSec.Observe(time.Since(start).Seconds())
	s.m.refreshLagSec.Observe(time.Since(dirtySince).Seconds())
	delete(r.dirtyAt, e.keyPrefix)
}

// judgeUnaffected proves, if it can, that the entry's body is identical
// at the cycle's snapshot: for every dependency table whose version
// moved, every logged change in the window is judged irrelevant for the
// entry's parameter binding. Any gap in the proof — unparseable
// parameters, a truncated change log, a table appearing or vanishing, a
// delta the judge cannot exclude — falls back to full re-evaluation.
// deps is the dependency map to judge against: the view's full map for
// document entries, the path-filtered map for fragment entries.
func (s *Server) judgeUnaffected(e *cacheEntry, st viewState, deps *ivm.Deps) bool {
	if deps == nil {
		return false
	}
	params, err := deps.ParseParams(e.params)
	if err != nil {
		return false
	}
	for _, sourceName := range st.v.sources {
		old := e.tableVers[sourceName]
		cur := st.tv[sourceName]
		for table, cv := range cur {
			ov, ok := old[table]
			if !ok {
				// A table the entry never saw: relevant only if scanned.
				if deps.DependsOn(sourceName, table) {
					return false
				}
				continue
			}
			if cv == ov {
				continue
			}
			if !deps.DependsOn(sourceName, table) {
				continue
			}
			src, gerr := s.reg.Get(sourceName)
			if gerr != nil {
				return false
			}
			cs, cerr := src.ChangesSince(table, ov)
			if cerr != nil {
				return false
			}
			if terr := cs.TruncationError(); terr != nil {
				// The window is gone; metric why before falling back. A
				// rolled or reset log is normal churn, a restart means a
				// source lost its watermark continuity (it runs without
				// durable state, or recovered from an older snapshot).
				var lt *relstore.ErrLogTruncated
				if errors.As(terr, &lt) {
					switch lt.Cause {
					case relstore.TruncateReset:
						s.m.refreshTruncReset.Inc()
					case relstore.TruncateRestart:
						s.m.refreshTruncRestart.Inc()
					default:
						s.m.refreshTruncRolled.Inc()
					}
				}
				return false
			}
			// The log may already extend past the snapshot (writes keep
			// landing); that is fine — if every change up to cs.Now is
			// irrelevant, the body is unchanged at every version in the
			// window, including the snapshot's.
			if deps.Judge(sourceName, table, cs, params) != ivm.Unaffected {
				return false
			}
		}
		for table := range old {
			if _, ok := cur[table]; !ok && deps.DependsOn(sourceName, table) {
				return false // dependency table dropped
			}
		}
	}
	return true
}
