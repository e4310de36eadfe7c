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
// a loop that wakes when a source changes and, whenever cached entries
// fall behind, either proves them still exact (delta judgement via
// ivm.Deps — the entry is restamped to the new version without
// re-evaluating) or rebuilds them by a full evaluation. Either way the
// cache stays warm across writes: steady read traffic keeps hitting
// instead of paying an evaluation after every mutation. A source wakes
// it through its database's ChangeSignal; only if some source has no
// database (a remote.Client) does it also poll.
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
	s    *Server
	stop chan struct{}
	once sync.Once
	// wake holds at most one ring: changes between two cycles coalesce.
	wake chan struct{}
	// wg counts the loop and the database watchers.
	wg sync.WaitGroup

	// dirtyAt tracks, per entry (its cache key), when the refresher
	// first observed it stale — the start point of the
	// refresh-lag measurement.
	dirtyAt map[string]time.Time
}

// startRefresher watches the database of every source registered now,
// and polls every interval only if some source has none.
func startRefresher(s *Server, interval time.Duration) *refresher {
	r := &refresher{
		s:       s,
		stop:    make(chan struct{}),
		wake:    make(chan struct{}, 1),
		dirtyAt: make(map[string]time.Time),
	}
	poll := false
	watched := make(map[*relstore.Database]bool)
	for _, name := range s.reg.Names() {
		src, err := s.reg.Get(name)
		d, ok := src.(interface{ DB() *relstore.Database })
		if err != nil || !ok {
			poll = true
		} else if db := d.DB(); !watched[db] {
			watched[db] = true
			r.wg.Add(1)
			go r.watch(db)
		}
	}
	r.wg.Add(1)
	go r.loop(poll, interval)
	return r
}

// stopOnce stops the loop and the watchers and waits for the in-flight
// cycle to finish.
func (r *refresher) stopOnce() {
	r.once.Do(func() { close(r.stop) })
	r.wg.Wait()
}

// watch rings the loop after every change to db. It arms the next
// signal before ringing, so a change landing mid-cycle rings again.
func (r *refresher) watch(db *relstore.Database) {
	defer r.wg.Done()
	for {
		sig := db.ChangeSignal()
		select {
		case r.wake <- struct{}{}:
		default:
		}
		select {
		case <-sig:
		case <-r.stop:
			return
		}
	}
}

func (r *refresher) loop(poll bool, interval time.Duration) {
	defer r.wg.Done()
	var tick <-chan time.Time
	if poll {
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		tick = ticker.C
	}
	for {
		select {
		case <-r.stop:
			return
		case <-tick:
		case <-r.wake:
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
	states := make(map[*View]viewState)
	live := make(map[string]bool, len(items))

	var dirty []lruItem
	for _, it := range items {
		v := it.entry.v
		if s.View(v.name) != v {
			// Its view was replaced or removed: no request reaches the
			// entry's key again.
			s.cache.Swap(it.key, it.entry, nil)
			s.m.cacheEntries.Set(float64(s.cache.Len()))
			continue
		}
		live[it.key] = true
		st, ok := states[v]
		if !ok {
			st = s.snapshotView(v)
			states[v] = st
		}
		if !st.ok {
			continue
		}
		if it.entry.stamp == st.stamp {
			delete(r.dirtyAt, it.key)
			continue
		}
		dirty = append(dirty, it)
	}

	// No later cycle runs unless something changes again, so the gauge
	// reports what this cycle leaves stale, not what it found.
	left := len(dirty)
	defer func() { s.m.refreshDirty.Set(float64(left)) }()
	for _, it := range dirty {
		select {
		case <-r.stop:
			return
		default:
		}
		if r.refreshOne(it, states[it.entry.v]) {
			left--
		}
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
// recorder as slow client requests. It reports whether the entry was
// brought current.
func (r *refresher) refreshOne(it lruItem, st viewState) bool {
	s := r.s
	e := it.entry
	start := time.Now()
	dirtySince, seen := r.dirtyAt[it.key]
	if !seen {
		dirtySince = start
		r.dirtyAt[it.key] = start
	}

	rt, ctx := s.beginBackgroundTrace("refresh", st.v, start)
	rt.params = canonicalParams(e.params)
	defer rt.finish()

	// The entry's route decides what it is judged against: a fragment's
	// path-filtered map restamps it on a delta landing outside the scans
	// its path can reach, even when the full document must be rebuilt.
	t, terr := s.target(st.v, e.params, canonicalParams(e.params), e.path)
	if terr != nil {
		// A cached fragment whose path no longer compiles (the view was
		// replaced): drop it rather than refresh it forever.
		s.cache.Swap(it.key, e, nil)
		s.m.cacheEntries.Set(float64(s.cache.Len()))
		s.m.refreshErrors.Inc()
		rt.fail(terr)
		return false
	}

	tr, parent := obs.SpanFromContext(ctx)
	judgeSpan := tr.StartSpan("ivm.judge", parent)
	unaffected := s.judgeUnaffected(e, st, s.route(t, st.stamp).deps)
	judgeSpan.SetAttr("unaffected", unaffected).End()

	if unaffected {
		// Restamped in place, unless a fill replaced the entry since the
		// cycle read it: that entry is newer than the one judged.
		if s.cache.Swap(it.key, e, e.restamped(st.stamp, st.tv)) {
			s.m.refreshDelta.Inc()
			rt.setCache("restamp")
		}
	} else {
		// Full rebuild through the shared miss path: coalesces with any
		// concurrent client miss on the same target and stamp, and
		// replaces the stale entry only if the stamp holds through the
		// evaluation; otherwise the stale entry, never hit, waits for the
		// next cycle.
		_, err, _ := s.cacheFill(ctx, t, st.stamp, func() (*cacheEntry, error) {
			return s.fill(ctx, t, st.stamp, nil, true)
		})
		rt.setCache("rebuild")
		if err != nil {
			s.m.refreshErrors.Inc()
			rt.fail(err)
			return false
		}
		s.m.refreshFull.Inc()
	}

	s.m.refreshSec.Observe(time.Since(start).Seconds())
	s.m.refreshLagSec.Observe(time.Since(dirtySince).Seconds())
	delete(r.dirtyAt, it.key)
	return true
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
