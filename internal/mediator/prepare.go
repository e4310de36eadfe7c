package mediator

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"github.com/aigrepro/aig/internal/aig"
	"github.com/aigrepro/aig/internal/obs"
	"github.com/aigrepro/aig/internal/specialize"
)

// Plan-cache counters. A hit means the request did no planning at all; an
// invalidation is a miss caused by the source statistics having moved
// under a plan the cache held.
var (
	metricPlanHits = obs.Default.NewCounter("aig_mediator_plan_cache_hits_total",
		"evaluations served by a cached prepared plan")
	metricPlanMisses = obs.Default.NewCounter("aig_mediator_plan_cache_misses_total",
		"evaluations that compiled and optimized a plan")
	metricPlanInvalidations = obs.Default.NewCounter("aig_mediator_plan_cache_invalidations_total",
		"cached plans replaced because a source's data version moved")
)

// preparedPlan is the offline half of Fig. 5 for one grammar at one unfolding
// depth: the unfolded grammar's context tree and dependency graph with
// rewritten, resolved and costed part queries, the Merge grouping applied
// to it (§5.4), the per-source Schedule (§5.3) and the truncation probes.
// It depends on the grammar, the depth and the source statistics only, and
// nothing in it is written after prepare returns, so every evaluation —
// concurrent ones included — instantiates its own exec over the same
// prepared plan.
type preparedPlan struct {
	g      *graph
	merged int   // merged groups (Report.MergedGroups)
	sched  *plan // per-source order, which every evaluation executes
}

// maxPlans bounds the plan cache, once for document plans and once for
// pruned ones: a serving mediator evaluates one grammar at the few depths
// its doubling sequence visits, and fragment paths, however many a
// client sends, never push a document plan out.
const maxPlans = 16

type planKey struct {
	a     *aig.AIG // grammars are compared by identity
	depth int      // unfolding depth; 0 evaluates a as it is
	path  string   // the pruning verdict's key; "" for the whole document
}

// planEntry is one cached plan with the statistics epoch it was built at:
// the data versions of the sources the grammar reads ("DB1=12,DB2=4").
type planEntry struct {
	key     planKey
	sources []string
	epoch   string
	p       *preparedPlan
}

// planCache holds at most one plan per (grammar, depth, path) and
// maxPlans of each kind — document or pruned — dropping the oldest of
// the kind it adds.
type planCache struct {
	mu      sync.Mutex
	entries []*planEntry
}

func (c *planCache) get(key planKey) *planEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.entries {
		if e.key == key {
			return e
		}
	}
	return nil
}

// put installs e, replacing the entry of the same key.
func (c *planCache) put(e *planEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, old := range c.entries {
		if old.key == e.key {
			c.entries[i] = e
			return
		}
	}
	n, oldest := 0, -1
	for i, old := range c.entries {
		if (old.key.path == "") == (e.key.path == "") {
			if n == 0 {
				oldest = i
			}
			n++
		}
	}
	if n == maxPlans {
		c.entries = slices.Delete(c.entries, oldest, oldest+1)
	}
	c.entries = append(c.entries, e)
}

// epochOf reads the current data versions of the named sources.
func (m *Mediator) epochOf(sources []string) (string, error) {
	vers, err := m.reg.DataVersions(sources)
	if err != nil {
		return "", err
	}
	parts := make([]string, len(sources))
	for i, s := range sources {
		parts[i] = fmt.Sprintf("%s=%d", s, vers[s])
	}
	return strings.Join(parts, ","), nil
}

// compileAt compiles grammar a unfolded to the given depth (0: as it is),
// pruned to keep's verdict when it is set. A replica type this unfolding
// creates is judged as the type it replicates.
func (m *Mediator) compileAt(ctx context.Context, a *aig.AIG, depth int, keep Verdict) (*graph, error) {
	var judge func(parent, child string) bool
	if keep != nil {
		judge = keep.Keep
	}
	if depth == 0 {
		return compile(ctx, a, m.reg, m.opts, nil, judge)
	}
	unf, truncated, err := specialize.UnfoldInfo(a, depth)
	if err != nil {
		return nil, err
	}
	if keep != nil {
		judge = func(parent, child string) bool {
			return keep.Keep(specialize.ReplicaOf(parent), specialize.ReplicaOf(child))
		}
	}
	return compile(ctx, unf, m.reg, m.opts, truncated, judge)
}

// prepare returns the plan for grammar a at the given unfolding depth
// (0: a is non-recursive and evaluated as it is), pruned to keep's
// verdict when it is set. A cached plan is used
// when the sources still stand at the epoch it was built at; otherwise the
// grammar is unfolded, compiled, merged and scheduled afresh and the
// result cached. The epoch is read before compiling, so a plan is never
// stamped newer than the statistics it was costed with: a write racing
// the compile costs one more re-plan, never a stale plan. Either way the
// "compile" and "optimize" phases are recorded under root and their
// durations returned — on a hit they time the lookup.
func (m *Mediator) prepare(ctx context.Context, a *aig.AIG, depth int, keep Verdict, tr *obs.Tracer, root *obs.Span) (p *preparedPlan, compileSec, optimizeSec float64, err error) {
	sp, t0 := tr.StartSpan("compile", root), time.Now()
	key := planKey{a: a, depth: depth}
	if keep != nil {
		key.path = keep.Key()
	}
	entry := m.plans.get(key)
	var sources []string
	if entry != nil {
		sources = entry.sources
	} else {
		sources = a.QuerySources()
	}
	epoch, err := m.epochOf(sources)
	hit := err == nil && entry != nil && entry.epoch == epoch
	var g *graph
	if err == nil && !hit {
		g, err = m.compileAt(obs.ContextWithSpan(ctx, tr, sp), a, depth, keep)
	}
	compileSec = time.Since(t0).Seconds()
	if err != nil {
		sp.SetAttr("error", err.Error()).End()
		return nil, compileSec, 0, err
	}
	if g != nil {
		sp.SetAttr("nodes", len(g.nodes)).SetAttr("edges", len(g.edges))
	}
	sp.End()

	sp, t0 = tr.StartSpan("optimize", root), time.Now()
	if hit {
		p = entry.p
		metricPlanHits.Inc()
	} else {
		p = &preparedPlan{g: g}
		if m.opts.Merge {
			p.merged = g.mergeQueries()
		}
		p.sched = schedule(g.nodes, m.opts.Net, m.opts.Schedule)
		m.plans.put(&planEntry{key: key, sources: sources, epoch: epoch, p: p})
		metricPlanMisses.Inc()
		if entry != nil {
			metricPlanInvalidations.Inc()
		}
	}
	optimizeSec = time.Since(t0).Seconds()
	cache := "miss"
	if hit {
		cache = "hit"
	}
	sp.SetAttr("plan_cache", cache).SetAttr("epoch", epoch).
		SetAttr("merged_groups", p.merged).SetAttr("nodes", len(p.g.nodes)).End()
	return p, compileSec, optimizeSec, nil
}
