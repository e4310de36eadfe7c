// Package serve is the long-running mediator daemon of the repo's
// serving story: it turns the one-shot evaluation pipeline (parse →
// validate → constraint-compile → decompose → evaluate) into a
// registry of *prepared views* whose request-independent work happens
// once at startup, then answers HTTP requests that only bind the root
// inherited attribute (the paper's on-demand materialization of §5 —
// e.g. one patient's report) and evaluate through the shared
// mediator.
//
// Three mechanisms make it hold up under concurrent traffic:
//
//   - a result cache: an LRU keyed by view + canonicalized parameters +
//     a per-source data-version stamp, so entries are structurally
//     invalidated the moment any referenced source mutates;
//   - request coalescing: concurrent identical requests (same key,
//     same data versions) share a single evaluation;
//   - admission control: a bounded-concurrency semaphore with a
//     bounded, timed wait queue — excess load is rejected with 429/503
//     instead of queuing without bound — plus a graceful drain for
//     clean shutdown.
//
// Everything is wired into the obs layer: per-request spans (when
// tracing is enabled), latency and queue-wait histograms, cache
// hit/miss/eviction counters, and gauges for in-flight evaluations and
// queue depth, all served from /metrics in Prometheus text format.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/aigrepro/aig/internal/aig"
	"github.com/aigrepro/aig/internal/aigspec"
	"github.com/aigrepro/aig/internal/mediator"
	"github.com/aigrepro/aig/internal/obs"
	"github.com/aigrepro/aig/internal/obs/store"
	"github.com/aigrepro/aig/internal/source"
)

// Config tunes a Server. The zero value gets sensible defaults from
// NewServer.
type Config struct {
	// MaxConcurrent bounds simultaneous evaluations (default 8).
	MaxConcurrent int
	// MaxQueue bounds callers waiting for an evaluation slot beyond
	// MaxConcurrent (default 64). Requests past the bound get 429.
	MaxQueue int
	// QueueTimeout bounds the wait for a slot (default 2s). Requests
	// that wait longer get 503.
	QueueTimeout time.Duration
	// CacheEntries is the result cache capacity. 0 means the default of
	// 256; a negative value disables the cache.
	CacheEntries int
	// FlightRecorder enables full request tracing with tail-sampled
	// retention: every request runs under a propagated trace context
	// (Traceparent in/out, spans across cache, singleflight, admission,
	// mediator, and remote sources), and completed traces are kept in a
	// ring of traceRing traces when they erred, ran slow, or won the
	// sampling draw — served at GET /debug/traces and /debug/traces/{id}.
	FlightRecorder bool
	// TraceSlowThreshold is the latency at or above which a trace is
	// always kept (default 250ms; negative disables the slow rule).
	TraceSlowThreshold time.Duration
	// TraceSampleRate is the keep probability for fast, healthy traces
	// (default 0.01; negative means keep none of them).
	TraceSampleRate float64
	// EnableDebug exposes net/http/pprof and expvar under /debug/. The
	// endpoints reveal process internals; enable only on trusted
	// listeners.
	EnableDebug bool
	// Logger, when non-nil, receives one structured line per request and
	// background operation, correlated by trace and request ID (default
	// slog.Default()).
	Logger *slog.Logger
	// RefreshInterval enables the background refresher: every interval it
	// re-stamps or re-evaluates cached entries whose sources mutated, so
	// steady traffic keeps hitting a warm cache instead of paying a full
	// evaluation after every write. 0 (the default) disables refreshing —
	// entries then go structurally stale and the next request misses.
	RefreshInterval time.Duration
	// AllowMutate exposes POST /mutate, a demo/benchmark endpoint that
	// applies row-level writes to local sources. Off by default.
	AllowMutate bool
	// CacheDir, when set, persists the result cache across restarts: the
	// cache is dumped there on a clean Drain, and LoadCache (called after
	// view registration) restores entries whose data-version stamps still
	// hold — or can be proven current by delta judgement — so a restarted
	// daemon serves warm hits instead of re-evaluating.
	CacheDir string
	// Metrics is the registry the server's instruments live in
	// (default obs.Default).
	Metrics *obs.Registry
}

// traceRing is the flight recorder's ring size: kept traces beyond
// it evict the oldest.
const traceRing = 256

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 8
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 64
	}
	if c.MaxQueue < 0 {
		c.MaxQueue = 0
	}
	if c.QueueTimeout <= 0 {
		c.QueueTimeout = 2 * time.Second
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 256
	}
	if c.CacheEntries < 0 {
		c.CacheEntries = 0
	}
	if c.Metrics == nil {
		c.Metrics = obs.Default
	}
	if c.TraceSlowThreshold == 0 {
		c.TraceSlowThreshold = 250 * time.Millisecond
	}
	if c.TraceSlowThreshold < 0 {
		c.TraceSlowThreshold = 0
	}
	if c.TraceSampleRate == 0 {
		c.TraceSampleRate = 0.01
	}
	if c.TraceSampleRate < 0 {
		c.TraceSampleRate = 0
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	return c
}

// serveMetrics bundles the server's instruments.
type serveMetrics struct {
	requests        *obs.Counter
	errors          *obs.Counter
	hits            *obs.Counter
	misses          *obs.Counter
	coalesced       *obs.Counter
	evaluations     *obs.Counter
	rejectedFull    *obs.Counter
	rejectedTimeout *obs.Counter
	evictions       *obs.Counter

	fragments     *obs.Counter
	staleSkips    *obs.Counter
	refreshCycles *obs.Counter
	refreshDelta  *obs.Counter
	refreshFull   *obs.Counter
	refreshErrors *obs.Counter
	mutations     *obs.Counter

	// Truncated delta windows during refresh judgement, by cause: a
	// rolled or reset log means the refresher fell behind the write rate,
	// a restart means a source came back without its durable state.
	refreshTruncRolled  *obs.Counter
	refreshTruncReset   *obs.Counter
	refreshTruncRestart *obs.Counter

	// Cache persistence (Config.CacheDir): entries dumped on drain and
	// their fates on the next load.
	cacheSaved       *obs.Counter
	cacheRestored    *obs.Counter
	cacheRevalidated *obs.Counter
	cacheDropped     *obs.Counter

	inflightEvals *obs.Gauge
	queueDepth    *obs.Gauge
	cacheEntries  *obs.Gauge
	refreshDirty  *obs.Gauge

	requestSec    *obs.Histogram
	ttfbSec       *obs.Histogram
	queueWaitSec  *obs.Histogram
	evalSec       *obs.Histogram
	refreshSec    *obs.Histogram
	refreshLagSec *obs.Histogram
}

func newServeMetrics(r *obs.Registry) serveMetrics {
	return serveMetrics{
		requests:            r.NewCounter("aig_serve_requests_total", "view requests received"),
		errors:              r.NewCounter("aig_serve_errors_total", "view requests failed with an internal error"),
		hits:                r.NewCounter("aig_serve_cache_hits_total", "view requests answered from the result cache"),
		misses:              r.NewCounter("aig_serve_cache_misses_total", "view requests not answered from the result cache"),
		coalesced:           r.NewCounter("aig_serve_coalesced_requests_total", "view requests that shared another request's in-flight evaluation"),
		evaluations:         r.NewCounter("aig_serve_evaluations_total", "mediator evaluations executed"),
		rejectedFull:        r.NewCounter("aig_serve_rejected_queue_full_total", "view requests rejected because the admission queue was full (429)"),
		rejectedTimeout:     r.NewCounter("aig_serve_rejected_queue_timeout_total", "view requests rejected after waiting too long for an evaluation slot (503)"),
		evictions:           r.NewCounter("aig_serve_cache_evictions_total", "result-cache entries evicted by capacity"),
		fragments:           r.NewCounter("aig_serve_fragment_requests_total", "view requests answered as path-selected fragments"),
		staleSkips:          r.NewCounter("aig_serve_cache_stale_skips_total", "evaluation results not cached because the data-version stamp moved mid-evaluation"),
		refreshCycles:       r.NewCounter("aig_serve_refresh_cycles_total", "background refresh cycles run"),
		refreshDelta:        r.NewCounter("aig_serve_refresh_delta_total", "cache entries kept warm by delta judgement (restamped without re-evaluation)"),
		refreshFull:         r.NewCounter("aig_serve_refresh_full_total", "cache entries refreshed by full re-evaluation"),
		refreshErrors:       r.NewCounter("aig_serve_refresh_errors_total", "background refresh attempts that failed"),
		mutations:           r.NewCounter("aig_serve_mutations_total", "row mutations applied through POST /mutate"),
		refreshTruncRolled:  r.NewCounter("aig_serve_refresh_truncated_rolled_total", "refresh judgements lost to a rolled change log (refresher behind the write rate)"),
		refreshTruncReset:   r.NewCounter("aig_serve_refresh_truncated_reset_total", "refresh judgements lost to a reset change log (table sorted or replaced)"),
		refreshTruncRestart: r.NewCounter("aig_serve_refresh_truncated_restart_total", "refresh judgements lost to a source restart (watermark from a previous incarnation)"),
		cacheSaved:          r.NewCounter("aig_serve_cache_persist_saved_total", "cache entries written to the persistent dump on drain"),
		cacheRestored:       r.NewCounter("aig_serve_cache_persist_restored_total", "persisted cache entries installed with their stamp still exact"),
		cacheRevalidated:    r.NewCounter("aig_serve_cache_persist_revalidated_total", "persisted cache entries installed after delta judgement proved them current"),
		cacheDropped:        r.NewCounter("aig_serve_cache_persist_dropped_total", "persisted cache entries dropped at load (stale, unprovable, or unknown view)"),
		inflightEvals:       r.NewGauge("aig_serve_inflight_evaluations", "evaluations currently holding an admission slot"),
		queueDepth:          r.NewGauge("aig_serve_queue_depth", "requests waiting for an evaluation slot"),
		cacheEntries:        r.NewGauge("aig_serve_cache_entries", "entries in the result cache"),
		refreshDirty:        r.NewGauge("aig_serve_refresh_dirty_queue", "cached entries observed stale at the start of the latest refresh cycle"),
		requestSec:          r.NewHistogram("aig_serve_request_seconds", "view request latency", obs.DurationBuckets),
		ttfbSec:             r.NewHistogram("aig_serve_ttfb_seconds", "time from request arrival to the first response body byte", obs.DurationBuckets),
		queueWaitSec:        r.NewHistogram("aig_serve_queue_wait_seconds", "time spent waiting for an evaluation slot", obs.DurationBuckets),
		evalSec:             r.NewHistogram("aig_serve_evaluate_seconds", "mediator evaluation wall time", obs.DurationBuckets),
		refreshSec:          r.NewHistogram("aig_serve_refresh_seconds", "per-entry background refresh wall time", obs.DurationBuckets),
		refreshLagSec:       r.NewHistogram("aig_serve_refresh_lag_seconds", "time from first observing an entry stale to serving it warm again", obs.DurationBuckets),
	}
}

// Server is the daemon: a prepared-view registry over one source
// registry, plus the cache / coalescing / admission machinery and the
// HTTP surface.
type Server struct {
	cfg  Config
	reg  *source.Registry
	opts mediator.Options

	mu    sync.RWMutex
	views map[string]*View

	cache  *lru
	flight flightGroup
	adm    *admission
	m      serveMetrics

	// traces is the flight recorder (nil when disabled).
	traces *store.Store
	logger *slog.Logger

	refresher *refresher

	draining atomic.Bool
	inflight atomic.Int64

	mux *http.ServeMux
}

// NewServer builds a server over the given sources.
func NewServer(reg *source.Registry, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:    cfg,
		reg:    reg,
		opts:   mediator.DefaultOptions(),
		views:  make(map[string]*View),
		cache:  newLRU(cfg.CacheEntries),
		adm:    newAdmission(cfg.MaxConcurrent, cfg.MaxQueue, cfg.QueueTimeout),
		m:      newServeMetrics(cfg.Metrics),
		logger: cfg.Logger,
	}
	s.cache.onEvict = s.m.evictions.Inc
	s.adm.onQueue = func(depth int64) { s.m.queueDepth.Set(float64(depth)) }
	if cfg.FlightRecorder {
		s.traces = store.New(traceRing, store.Policy{
			SlowThreshold: cfg.TraceSlowThreshold,
			SampleRate:    cfg.TraceSampleRate,
		})
	}

	mux := http.NewServeMux()
	mux.HandleFunc("GET /views", s.handleList)
	mux.HandleFunc("GET /views/{name}", s.handleView)
	mux.HandleFunc("POST /views/{name}", s.handleView)
	// Singular alias, the fragment-serving spelling: GET /view/{name}?path=...
	mux.HandleFunc("GET /view/{name}", s.handleView)
	mux.HandleFunc("GET /views/{name}/explain", s.handleExplain)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /debug/traces", s.handleTraces)
	mux.HandleFunc("GET /debug/traces/{id}", s.handleTraceByID)
	if cfg.EnableDebug {
		s.registerDebug(mux)
	}
	if cfg.AllowMutate {
		mux.HandleFunc("POST /mutate", s.handleMutate)
	}
	s.mux = mux

	if cfg.RefreshInterval > 0 && cfg.CacheEntries > 0 {
		s.refresher = newRefresher(s, cfg.RefreshInterval)
		s.refresher.start()
	}
	return s
}

// KickRefresh nudges the background refresher to run a cycle now
// instead of waiting for its next tick. Mirrored sources call it from
// their delta-apply hook, turning the refresher from poll-based to
// push-based invalidation: cached entries go warm again one cycle
// after the write lands, not one RefreshInterval after. Coalescing is
// inherent (a buffered signal of one); no-op without a refresher.
func (s *Server) KickRefresh() {
	if s.refresher == nil {
		return
	}
	select {
	case s.refresher.kick <- struct{}{}:
	default:
	}
}

// Close stops the background refresher (if any). Idempotent; safe on a
// server that never started one.
func (s *Server) Close() {
	if s.refresher != nil {
		s.refresher.stopOnce()
	}
}

// AddView prepares and registers a view under the given name,
// replacing any previous view of that name. It logs a warning when the
// view's premise check cannot read a source's tables: such a view never
// uses its certification.
func (s *Server) AddView(name string, a *aig.AIG) (*View, error) {
	v, err := prepareView(name, a, s.reg, s.opts)
	if err != nil {
		return nil, err
	}
	v.reqSec = s.cfg.Metrics.NewHistogram(
		"aig_serve_view_request_seconds_"+sanitizeMetricName(name),
		"view request latency for view "+name, obs.DurationBuckets)
	if blind := unreadablePremiseSources(v, s.reg); len(blind) > 0 {
		s.logger.Warn("premise check cannot read these sources' tables, so every request evaluates the fully guarded grammar",
			"view", name, "sources", blind)
	}
	s.mu.Lock()
	s.views[name] = v
	s.mu.Unlock()
	return v, nil
}

// AddSpec parses an aigspec source text and registers it as a view.
func (s *Server) AddSpec(name, specText string) (*View, error) {
	a, err := aigspec.Parse(specText)
	if err != nil {
		return nil, fmt.Errorf("view %s: %w", name, err)
	}
	return s.AddView(name, a)
}

// View returns the named prepared view, or nil.
func (s *Server) View(name string) *View {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.views[name]
}

// ViewNames returns the registered view names in sorted order.
func (s *Server) ViewNames() []string {
	s.mu.RLock()
	out := make([]string, 0, len(s.views))
	for n := range s.views {
		out = append(out, n)
	}
	s.mu.RUnlock()
	sort.Strings(out)
	return out
}

// Handler returns the HTTP surface.
func (s *Server) Handler() http.Handler { return s.mux }

// Drain marks the server as draining (new view requests get 503,
// /healthz reports unhealthy so load balancers stop sending traffic)
// and waits for in-flight requests to finish or ctx to expire.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	s.Close()
	// An atomic counter rather than a WaitGroup: requests keep arriving
	// (and bouncing off the draining check) while we wait, and a
	// WaitGroup forbids Add concurrent with Wait once the counter may
	// reach zero.
	ticker := time.NewTicker(2 * time.Millisecond)
	defer ticker.Stop()
	for {
		if s.inflight.Load() == 0 {
			if s.cfg.CacheDir != "" {
				if err := s.SaveCache(s.cfg.CacheDir); err != nil {
					s.logger.Error("cache save failed", "dir", s.cfg.CacheDir, "err", err)
				}
			}
			return nil
		}
		select {
		case <-ticker.C:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// stamp renders the data-version stamp of the sources a view reads:
// the part of the cache key that moves when a source mutates. The
// second return is the seqlock check — true when every component is
// even, i.e. no source had a mutation in flight at the moment of the
// read. Only settled stamps participate in consistency proofs; an
// unsettled one still keys a request (it just never matches a settled
// recheck, so nothing is cached under it).
func (s *Server) stamp(v *View) (string, bool, error) {
	versions, err := s.reg.DataVersions(v.sources)
	if err != nil {
		return "", false, err
	}
	settled := true
	parts := make([]string, 0, len(versions))
	for _, name := range v.sources {
		if versions[name]%2 != 0 {
			settled = false
		}
		parts = append(parts, fmt.Sprintf("%s=%d", name, versions[name]))
	}
	return strings.Join(parts, ";"), settled, nil
}

// tableVersions snapshots the per-table versions of every source a view
// reads — the ChangesSince baseline stored alongside a cached entry.
func (s *Server) tableVersions(v *View) (map[string]map[string]uint64, error) {
	out := make(map[string]map[string]uint64, len(v.sources))
	for _, name := range v.sources {
		src, err := s.reg.Get(name)
		if err != nil {
			return nil, err
		}
		tv, err := src.TableVersions()
		if err != nil {
			return nil, fmt.Errorf("source %s: %w", name, err)
		}
		out[name] = tv
	}
	return out, nil
}

// requestParams extracts view parameters from the query string, a POST
// form body, or a JSON object body, and validates them against the
// view's root attribute. "path" is reserved for fragment selection: it
// is popped out before validation and returned separately, so no view
// may declare a root parameter of that name through HTTP.
func requestParams(r *http.Request, v *View) (map[string]string, string, error) {
	params := make(map[string]string)
	if r.Method == http.MethodPost && strings.HasPrefix(r.Header.Get("Content-Type"), "application/json") {
		var body map[string]string
		if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
			return nil, "", fmt.Errorf("decoding JSON parameters: %w", err)
		}
		for k, val := range body {
			params[k] = val
		}
		// Query-string parameters still apply (and win on conflict).
		for k, vals := range r.URL.Query() {
			if len(vals) > 0 {
				params[k] = vals[0]
			}
		}
	} else {
		if err := r.ParseForm(); err != nil {
			return nil, "", fmt.Errorf("parsing parameters: %w", err)
		}
		for k, vals := range r.Form {
			if len(vals) > 0 {
				params[k] = vals[0]
			}
		}
	}
	path := params["path"]
	delete(params, "path")
	// Validate names and values now, so bad requests are 400s that never
	// reach the cache or the admission queue.
	if _, err := v.bindParams(params); err != nil {
		return nil, "", err
	}
	return params, path, nil
}

// handleView answers GET/POST /views/{name}.
func (s *Server) handleView(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.m.requests.Inc()
	s.inflight.Add(1)
	defer s.inflight.Add(-1)

	if s.draining.Load() {
		s.m.requestSec.Observe(time.Since(start).Seconds())
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	v := s.View(r.PathValue("name"))
	if v == nil {
		s.m.requestSec.Observe(time.Since(start).Seconds())
		http.Error(w, "no such view", http.StatusNotFound)
		return
	}

	// The request has a real view from here on: begin its trace. All
	// error paths below must write through rw so the status lands in the
	// trace summary and the log line.
	rt, ctx, rw := s.beginRequestTrace(w, r, v, start)
	defer rt.finish()

	params, path, err := requestParams(r, v)
	if err != nil {
		rt.fail(err)
		http.Error(rw, err.Error(), http.StatusBadRequest)
		return
	}
	rt.params = canonicalParams(params)
	t, err := s.target(v, params, rt.params, path)
	if err != nil {
		rt.fail(err)
		http.Error(rw, err.Error(), http.StatusBadRequest)
		return
	}
	if path != "" {
		s.m.fragments.Inc()
	}
	stamp, _, err := s.stamp(v)
	if err != nil {
		s.m.errors.Inc()
		rt.fail(err)
		http.Error(rw, err.Error(), http.StatusBadGateway)
		return
	}

	if noStoreRequest(r) {
		// Benchmark/baseline escape hatch: evaluate without consulting or
		// populating the cache (and without coalescing, so every request
		// pays the full evaluation it is measuring).
		s.m.misses.Inc()
		rt.setCache("bypass")
		out := &stream{rw: rw, state: "bypass"}
		e, err := s.fill(ctx, t, stamp, out, false)
		s.finish(rt, out, e, err)
		return
	}

	tr, parent := obs.SpanFromContext(ctx)
	lookupSpan := tr.StartSpan("cache.lookup", parent)
	e, ok := s.cache.Get(t.prefix + "\x00" + stamp)
	lookupSpan.SetAttr("hit", ok).End()
	if ok {
		s.m.hits.Inc()
		rt.setCache("hit")
		writeEntry(rw, e, "hit")
		return
	}
	s.m.misses.Inc()

	out := &stream{rw: rw, state: "miss"}
	e, err, leader := s.cacheFill(ctx, t, stamp, func() (*cacheEntry, error) {
		return s.fill(ctx, t, stamp, out, true)
	})
	if !leader {
		s.m.coalesced.Inc()
		out.state = "coalesced" // a follower never streamed; it gets the shared entry
	}
	rt.setCache(out.state)
	s.finish(rt, out, e, err)
}

// noStoreRequest reports whether the client asked to bypass the result
// cache entirely (Cache-Control: no-store).
func noStoreRequest(r *http.Request) bool {
	return strings.Contains(strings.ToLower(r.Header.Get("Cache-Control")), "no-store")
}

// admitted runs fn under the admission semaphore, the way
// client-triggered work goes: the queue wait is observed and traced as
// an "admission" span, and the in-flight gauge follows the slot.
func (s *Server) admitted(ctx context.Context, fn func() error) error {
	tr, parent := obs.SpanFromContext(ctx)
	sp := tr.StartSpan("admission", parent)
	waited, aerr := s.adm.acquire(ctx)
	s.m.queueWaitSec.Observe(waited.Seconds())
	sp.SetAttr("waited_sec", waited.Seconds())
	if aerr != nil {
		sp.SetAttr("error", aerr.Error()).End()
		return aerr
	}
	sp.End()
	defer func() {
		s.adm.release()
		s.m.inflightEvals.Set(float64(s.adm.inUse()))
	}()
	s.m.inflightEvals.Set(float64(s.adm.inUse()))
	return fn()
}

// settled is a view evaluation whose document is final but not yet
// emitted: the run, the unfolding depth it settled at, whether the
// certified premises held ("held") or the guarded grammar answered
// ("broken"), and the ctx whose tracer it ran under.
type settled struct {
	run      *mediator.Run
	depth    int
	premises string
	ctx      context.Context
}

// settle runs the mediator for a prepared view — twice when the stamp
// moves under the first — up to a settled, untagged run; stamp is the
// data-version stamp the caller read before it. A fragment whose
// verdict the caller trusts passes it as keep, and the certified grammar
// then settles pruned to it; the guarded grammar always settles whole.
// The tracer ctx carries (the flight recorder's, or a refresh/mutate
// trace) flows through the whole evaluation stack.
func (s *Server) settle(ctx context.Context, v *View, params map[string]string, stamp string, keep mediator.Verdict) (*settled, error) {
	rootInh, err := v.bindParams(params)
	if err != nil {
		return nil, err
	}

	settleAt := func(g *aig.AIG, est int, keep mediator.Verdict) (*mediator.Run, int, error) {
		t0 := time.Now()
		run, depth, err := v.med.Settle(ctx, g, rootInh, est, mediator.UnfoldLimit, keep)
		s.m.evalSec.Observe(time.Since(t0).Seconds())
		s.m.evaluations.Inc()
		return run, depth, err
	}
	// Proven constraints have no guard in sa, so its output is trusted
	// only while the premises of their proofs hold on the data it read.
	// Where they do not — broken before the evaluation, or the stamp moved
	// under it — the guarded grammar answers instead and aborts what the
	// pruned guards would have (§3.3).
	held := s.premisesHold(v, stamp)
	g := v.sa
	if !held {
		g, keep = v.guarded, nil
	}
	run, depth, err := settleAt(g, int(v.estDepth.Load()), keep)
	if err == nil && held && !s.premisesHold(v, stamp) {
		held = false
		run, depth, err = settleAt(v.guarded, depth, nil)
	}
	if err != nil {
		return nil, err
	}
	v.estDepth.Store(int32(depth))
	premises := "held"
	if !held {
		premises = "broken"
	}
	return &settled{run: run, depth: depth, premises: premises, ctx: ctx}, nil
}

// writeError maps evaluation and admission errors to HTTP statuses:
// queue full → 429, queue timeout (or client gone) → 503, anything
// else → 500.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, errQueueFull):
		s.m.rejectedFull.Inc()
		w.Header().Set("Retry-After", "1")
		http.Error(w, err.Error(), http.StatusTooManyRequests)
	case errors.Is(err, errQueueTimeout), errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		s.m.rejectedTimeout.Inc()
		w.Header().Set("Retry-After", "1")
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	default:
		s.m.errors.Inc()
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// viewInfo is the JSON shape of one view in GET /views.
type viewInfo struct {
	Name         string      `json:"name"`
	Params       []ParamDecl `json:"params"`
	Sources      []string    `json:"sources"`
	Depth        int         `json:"unfold_depth"`
	Certified    bool        `json:"certified"`
	GuardsPruned int         `json:"guards_pruned"` // proven, so compiled without a guard
}

// handleList answers GET /views.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	var out []viewInfo
	for _, name := range s.ViewNames() {
		v := s.View(name)
		if v == nil {
			continue
		}
		out = append(out, viewInfo{
			Name:         v.name,
			Params:       v.Params(),
			Sources:      v.Sources(),
			Depth:        int(v.estDepth.Load()),
			Certified:    v.certified,
			GuardsPruned: v.pruned,
		})
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(out)
}

// handleExplain answers GET /views/{name}/explain with the plan
// rendered at prepare time, and GET /views/{name}/explain?path=P with
// the plan a fragment request for P settles while the view's premises
// hold: the mediator's plan pruned to P's verdict, at the view's current
// unfolding depth.
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	v := s.View(r.PathValue("name"))
	if v == nil {
		http.Error(w, "no such view", http.StatusNotFound)
		return
	}
	plan := v.Plan()
	if expr := r.URL.Query().Get("path"); expr != "" {
		fp, err := v.fragmentPlan(expr, s.reg)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		switch {
		case !v.cert.Certified:
			plan = fmt.Sprintf("fragment %s: selected from the whole document's plan (the view keeps guards)\n", fp.expr)
		case fp.partial && v.direct:
			plan = fmt.Sprintf("fragment %s: served by the partial evaluator (the path has predicates)\n", fp.expr)
		default:
			if plan, err = v.med.ExplainFragment(v.sa, int(v.estDepth.Load()), fp.verdict); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
		}
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, plan)
}

// handleMetrics answers GET /metrics in Prometheus text format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.cfg.Metrics.WritePrometheus(w)
	if s.cfg.Metrics != obs.Default {
		obs.Default.WritePrometheus(w)
	}
}

// handleHealth answers GET /healthz: 200 only when the replica can
// actually serve — views are prepared, every source that reports health
// is healthy, and the server is not draining. Anything else is 503 so
// load balancers (the cluster router) route around this replica. A
// draining replica additionally sends Retry-After: the condition is
// terminal for this process but the fleet endpoint recovers as soon as
// a replacement registers.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		w.Header().Set("Retry-After", "5")
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	s.mu.RLock()
	nviews := len(s.views)
	s.mu.RUnlock()
	if nviews == 0 {
		http.Error(w, "no views prepared", http.StatusServiceUnavailable)
		return
	}
	for _, name := range s.reg.Names() {
		src, err := s.reg.Get(name)
		if err != nil {
			http.Error(w, "source "+name+": "+err.Error(), http.StatusServiceUnavailable)
			return
		}
		h, ok := src.(source.Health)
		if !ok {
			continue
		}
		if herr := h.Healthy(); herr != nil {
			http.Error(w, "source "+name+": "+herr.Error(), http.StatusServiceUnavailable)
			return
		}
	}
	fmt.Fprintln(w, "ok")
}
