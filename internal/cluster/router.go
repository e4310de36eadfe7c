package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/aigrepro/aig/internal/obs"
)

// routerMetrics bundles the router's instruments.
type routerMetrics struct {
	requests      *obs.Counter
	retries       *obs.Counter
	failovers     *obs.Counter
	overloadSkips *obs.Counter
	unrouted      *obs.Counter
	healthFlips   *obs.Counter
	healthy       *obs.Gauge
	inflight      *obs.Gauge
	requestSec    *obs.Histogram
}

func newRouterMetrics(r *obs.Registry) routerMetrics {
	return routerMetrics{
		requests:      r.NewCounter("aig_router_requests_total", "requests received by the cluster router"),
		retries:       r.NewCounter("aig_router_retries_total", "proxy attempts retried on another replica after a transport error or 5xx"),
		failovers:     r.NewCounter("aig_router_failovers_total", "requests served by a replica other than the key's home replica"),
		overloadSkips: r.NewCounter("aig_router_overload_skips_total", "candidate replicas skipped by the bounded-load rule"),
		unrouted:      r.NewCounter("aig_router_unrouted_total", "requests failed because no replica produced a response within the retry budget"),
		healthFlips:   r.NewCounter("aig_router_health_transitions_total", "replica health state changes observed by the prober"),
		healthy:       r.NewGauge("aig_router_healthy_replicas", "replicas currently passing health checks"),
		inflight:      r.NewGauge("aig_router_inflight_requests", "requests currently being proxied"),
		requestSec:    r.NewHistogram("aig_router_request_seconds", "end-to-end proxied request latency, retries included", obs.DurationBuckets),
	}
}

// replica is the router's view of one aigd instance.
type replica struct {
	url string // base URL, no trailing slash

	healthy   atomic.Bool
	inflight  atomic.Int64
	served    atomic.Int64
	lastErr   atomic.Value // string
	lastProbe atomic.Int64 // unix nanos
}

func (rep *replica) lastError() string {
	if v := rep.lastErr.Load(); v != nil {
		return v.(string)
	}
	return ""
}

// RouterConfig tunes a Router. Replicas is the only required field.
type RouterConfig struct {
	// Replicas are the base URLs of the aigd fleet
	// ("http://host:port"); the membership is static for the router's
	// lifetime.
	Replicas []string
	// LoadBound caps a replica's share of in-flight requests at
	// LoadBound * (total inflight / healthy replicas), the bounded-load
	// variant of consistent hashing: a hot key spills to the next
	// replica on the ring instead of melting its home. Default 1.5;
	// negative disables the bound.
	LoadBound float64
	// HealthInterval is the probe period (default 500ms).
	HealthInterval time.Duration
	// Logger receives one line per health transition and routing
	// failure (default slog.Default()).
	Logger *slog.Logger
	// Metrics is the registry the router's instruments live in
	// (default obs.Default).
	Metrics *obs.Registry
}

// A request may try every replica, all within retryWithin of its
// arrival; one health probe gives up after probeTimeout.
const (
	retryWithin  = 10 * time.Second
	probeTimeout = 2 * time.Second
)

func (c RouterConfig) withDefaults() RouterConfig {
	if c.LoadBound == 0 {
		c.LoadBound = 1.5
	}
	if c.HealthInterval <= 0 {
		c.HealthInterval = 500 * time.Millisecond
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	if c.Metrics == nil {
		c.Metrics = obs.Default
	}
	return c
}

// Router fronts a static fleet of aigd replicas: requests route by
// consistent hash of (path, canonical query) so each replica's result
// cache owns a shard of the keyspace, with bounded-load spill and
// retry-on-next-replica masking replica failures from clients.
type Router struct {
	cfg      RouterConfig
	ring     *ring
	replicas map[string]*replica
	client   *http.Client
	probe    *http.Client
	m        routerMetrics
	logger   *slog.Logger
	mux      *http.ServeMux

	inflight atomic.Int64

	stop chan struct{}
	done chan struct{}
	once sync.Once
}

// NewRouter builds a router over the given replica URLs and starts its
// health prober. Callers own serving its Handler and must Close it.
func NewRouter(cfg RouterConfig) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Replicas) == 0 {
		return nil, fmt.Errorf("cluster: router needs at least one replica")
	}
	rt := &Router{
		cfg:      cfg,
		replicas: make(map[string]*replica, len(cfg.Replicas)),
		client:   &http.Client{}, // per-request timeouts come from the retry budget
		probe:    &http.Client{Timeout: probeTimeout},
		m:        newRouterMetrics(cfg.Metrics),
		logger:   cfg.Logger,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	urls := make([]string, 0, len(cfg.Replicas))
	for _, u := range cfg.Replicas {
		u = strings.TrimRight(u, "/")
		if _, dup := rt.replicas[u]; dup {
			continue
		}
		rt.replicas[u] = &replica{url: u}
		urls = append(urls, u)
	}
	rt.ring = newRing(urls)

	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", rt.handleHealth)
	mux.HandleFunc("GET /replicas", rt.handleReplicas)
	mux.HandleFunc("GET /metrics", rt.handleMetrics)
	mux.HandleFunc("/", rt.handleProxy)
	rt.mux = mux

	// One synchronous probe round before serving, so the first request
	// does not race an all-unknown fleet.
	rt.probeAll()
	go rt.healthLoop()
	return rt, nil
}

// Handler returns the router's HTTP surface.
func (rt *Router) Handler() http.Handler { return rt.mux }

// Close stops the health prober.
func (rt *Router) Close() {
	rt.once.Do(func() { close(rt.stop) })
	<-rt.done
}

func (rt *Router) healthLoop() {
	defer close(rt.done)
	ticker := time.NewTicker(rt.cfg.HealthInterval)
	defer ticker.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-ticker.C:
			rt.probeAll()
		}
	}
}

func (rt *Router) probeAll() {
	var wg sync.WaitGroup
	for _, rep := range rt.replicas {
		wg.Add(1)
		go func(rep *replica) {
			defer wg.Done()
			rt.probeOne(rep)
		}(rep)
	}
	wg.Wait()
	n := 0
	for _, rep := range rt.replicas {
		if rep.healthy.Load() {
			n++
		}
	}
	rt.m.healthy.Set(float64(n))
}

func (rt *Router) probeOne(rep *replica) {
	rep.lastProbe.Store(time.Now().UnixNano())
	err := func() error {
		resp, err := rt.probe.Get(rep.url + "/healthz")
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("healthz %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
		}
		return nil
	}()
	was := rep.healthy.Load()
	if err != nil {
		rep.lastErr.Store(err.Error())
		rep.healthy.Store(false)
		if was {
			rt.m.healthFlips.Inc()
			rt.logger.Warn("replica unhealthy", "replica", rep.url, "err", err)
		}
		return
	}
	rep.lastErr.Store("")
	rep.healthy.Store(true)
	if !was {
		rt.m.healthFlips.Inc()
		rt.logger.Info("replica healthy", "replica", rep.url)
	}
}

// routeKey is what the consistent hash routes on: the path plus the
// canonicalized (sorted) query, so "?a=1&b=2" and "?b=2&a=1" land on
// the same replica and hit the same cache entry.
func routeKey(r *http.Request) string {
	q := r.URL.Query()
	if len(q) == 0 {
		return r.URL.Path
	}
	keys := make([]string, 0, len(q))
	for k := range q {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(r.URL.Path)
	b.WriteByte('?')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte('&')
		}
		vs := append([]string(nil), q[k]...)
		sort.Strings(vs)
		for j, v := range vs {
			if j > 0 {
				b.WriteByte('&')
			}
			b.WriteString(k)
			b.WriteByte('=')
			b.WriteString(v)
		}
	}
	return b.String()
}

// candidates orders the replicas to try for one key: the ring walk,
// healthy ones first, with overloaded ones (bounded load) demoted but
// never dropped — when every candidate is past the bound or unhealthy,
// the least-bad one still gets the request rather than the client an
// error.
func (rt *Router) candidates(key string) []*replica {
	order := rt.ring.seq(key)
	total := int64(0)
	healthyN := 0
	for _, rep := range rt.replicas {
		total += rep.inflight.Load()
		if rep.healthy.Load() {
			healthyN++
		}
	}
	// Bounded load: cap each replica at LoadBound times the fair share
	// of in-flight requests. The +1 counts the request being placed.
	bound := int64(0)
	if rt.cfg.LoadBound > 0 && healthyN > 0 {
		bound = int64(rt.cfg.LoadBound * float64(total+1) / float64(healthyN))
		if bound < 1 {
			bound = 1
		}
	}
	var prime, spill, sick []*replica
	for _, u := range order {
		rep := rt.replicas[u]
		switch {
		case !rep.healthy.Load():
			sick = append(sick, rep)
		case bound > 0 && rep.inflight.Load() >= bound:
			rt.m.overloadSkips.Inc()
			spill = append(spill, rep)
		default:
			prime = append(prime, rep)
		}
	}
	return append(append(prime, spill...), sick...)
}

// retryableStatus reports whether another replica might answer where
// this one did not: bad gateway and service unavailable are replica
// conditions (draining, queue timeout, dead source connection), not
// request conditions.
func retryableStatus(code int) bool {
	return code == http.StatusBadGateway || code == http.StatusServiceUnavailable
}

// handleProxy forwards one request along the key's candidate order
// until a replica produces a non-retryable response.
func (rt *Router) handleProxy(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	rt.m.requests.Inc()
	rt.m.inflight.Set(float64(rt.inflight.Add(1)))
	defer func() {
		rt.m.inflight.Set(float64(rt.inflight.Add(-1)))
		rt.m.requestSec.Observe(time.Since(start).Seconds())
	}()

	// Buffer the request body so a retried POST replays identical bytes.
	var body []byte
	if r.Body != nil {
		var err error
		body, err = io.ReadAll(r.Body)
		r.Body.Close()
		if err != nil {
			http.Error(w, "reading request body: "+err.Error(), http.StatusBadRequest)
			return
		}
	}

	key := routeKey(r)
	cands := rt.candidates(key)
	deadline := start.Add(retryWithin)
	var lastErr string
	for i, rep := range cands {
		if i > 0 {
			rt.m.retries.Inc()
			if time.Now().After(deadline) {
				break
			}
		}
		resp, err := rt.forward(r, rep, body, deadline)
		if err != nil {
			lastErr = rep.url + ": " + err.Error()
			rt.logger.Warn("proxy attempt failed", "replica", rep.url, "path", r.URL.Path, "err", err)
			continue
		}
		if retryableStatus(resp.status) && i+1 < len(cands) {
			lastErr = fmt.Sprintf("%s: status %d", rep.url, resp.status)
			continue
		}
		if rep.url != cands[0].url && i > 0 {
			rt.m.failovers.Inc()
		}
		rep.served.Add(1)
		resp.writeTo(w)
		return
	}
	rt.m.unrouted.Inc()
	msg := "no replica available"
	if lastErr != "" {
		msg += ": last error: " + lastErr
	}
	http.Error(w, msg, http.StatusBadGateway)
}

// bufferedResponse is a fully-read replica response. Buffering is what
// makes retries safe: nothing is written to the client until one
// replica has produced a complete response, so a connection dying
// mid-body fails over instead of corrupting the client's read.
type bufferedResponse struct {
	status int
	header http.Header
	body   []byte
}

func (b *bufferedResponse) writeTo(w http.ResponseWriter) {
	for k, vs := range b.header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(b.status)
	w.Write(b.body)
}

// forward sends the request to one replica and reads the full response.
func (rt *Router) forward(r *http.Request, rep *replica, body []byte, deadline time.Time) (*bufferedResponse, error) {
	rep.inflight.Add(1)
	defer rep.inflight.Add(-1)

	ctx, cancel := context.WithDeadline(r.Context(), deadline)
	defer cancel()
	out, err := http.NewRequestWithContext(ctx, r.Method, rep.url+r.URL.RequestURI(), bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	// Copy headers through verbatim — Traceparent in particular, so a
	// trace started by the client continues into the replica's flight
	// recorder and the hop is attributable end to end.
	for k, vs := range r.Header {
		out.Header[k] = vs
	}
	out.Header.Set("X-Forwarded-Host", r.Host)

	resp, err := rt.client.Do(out)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	rb, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("reading response: %w", err)
	}
	// The router writes whole bodies, so a trailer the replica sent (a
	// streamed fragment's match count) arrives as a header, the way a
	// cached fragment's does.
	header := resp.Header.Clone()
	for k, vs := range resp.Trailer {
		header[k] = vs
	}
	return &bufferedResponse{status: resp.StatusCode, header: header, body: rb}, nil
}

// handleHealth answers for the fleet: 200 while at least one replica
// is healthy.
func (rt *Router) handleHealth(w http.ResponseWriter, r *http.Request) {
	for _, rep := range rt.replicas {
		if rep.healthy.Load() {
			fmt.Fprintln(w, "ok")
			return
		}
	}
	http.Error(w, "no healthy replicas", http.StatusServiceUnavailable)
}

// replicaStatus is one row of GET /replicas.
type replicaStatus struct {
	URL       string    `json:"url"`
	Healthy   bool      `json:"healthy"`
	Inflight  int64     `json:"inflight"`
	Served    int64     `json:"served"`
	LastError string    `json:"last_error,omitempty"`
	LastProbe time.Time `json:"last_probe"`
}

// handleReplicas answers GET /replicas with the fleet's routing state.
func (rt *Router) handleReplicas(w http.ResponseWriter, r *http.Request) {
	out := make([]replicaStatus, 0, len(rt.replicas))
	for _, u := range rt.ring.members {
		rep := rt.replicas[u]
		out = append(out, replicaStatus{
			URL:       rep.url,
			Healthy:   rep.healthy.Load(),
			Inflight:  rep.inflight.Load(),
			Served:    rep.served.Load(),
			LastError: rep.lastError(),
			LastProbe: time.Unix(0, rep.lastProbe.Load()),
		})
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

// handleMetrics answers GET /metrics in Prometheus text format.
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	rt.cfg.Metrics.WritePrometheus(w)
	if rt.cfg.Metrics != obs.Default {
		obs.Default.WritePrometheus(w)
	}
}
