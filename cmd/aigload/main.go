// Command aigload drives a running aigd (or a fleet of them) with a
// closed loop of concurrent clients and reports throughput, latency
// percentiles and the daemon's cache behaviour:
//
//	aigload -url http://localhost:8080 -view report -param date=d1,d2 -c 8 -n 2000 -json load.json
//
// -url is repeatable (and accepts comma-separated lists): with several
// targets the workers rotate requests across them round-robin and the
// report carries per-target request counts and latency percentiles
// alongside the aggregate — the way to compare replicas behind a
// router against the router itself, or to drive N daemons directly.
// /metrics is scraped from every -metrics-url (default: every target)
// and the counters summed, so fleet-wide cache behaviour adds up even
// when the load went through a router that only exposes its own
// metrics.
//
// Each of the -c workers issues requests back to back until -n total
// requests complete (or -duration elapses, whichever comes first).
// Repeatable -param flags name a view parameter with a comma-separated
// value list; workers rotate through the value combinations so the
// daemon sees a realistic mix of repeated (cacheable) bindings. After
// the run, /metrics is scraped for the serve counters so the report can
// attribute requests to cache hits, coalesced flights and evaluations.
//
// With -mutate SOURCE:TABLE=V1,V2,... a background writer alternates
// inserting and deleting that row through POST /mutate at -mutate-rate
// writes per second — against the first target by default, or against
// -mutate-url (an origin aigsource -http sidecar, say, while replicas
// follow by subscription),
// measuring serving behaviour under a continuously changing source; the
// report then also carries the daemon's refresh counters and the
// refresh-lag percentiles estimated from the /metrics histogram.
//
// aigload requests whole documents through the cache: it is the
// traffic of the smoke and cluster scripts. Cold documents and
// fragments are measured by the repository benchmark (bench/:
// cold_full, fragment_cold), not here.
//
// With -check the exit status enforces a healthy run: zero failed
// requests and at least one cache hit.
//
// Against an aigd running with -trace, -trace-header stamps every
// request with a fresh W3C Traceparent (so daemon traces carry IDs the
// client chose and printed logs correlate), and -slowest N ends the run
// by listing the N slowest traces the daemon's flight recorder kept —
// each ID pastes into GET /debug/traces/{id} for the full span tree of
// exactly that slow request.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/aigrepro/aig/internal/obs"
)

type repeated []string

func (r *repeated) String() string     { return strings.Join(*r, ",") }
func (r *repeated) Set(v string) error { *r = append(*r, v); return nil }

// report is the JSON written by -json.
type report struct {
	View        string  `json:"view"`
	Concurrency int     `json:"concurrency"`
	Requests    int64   `json:"requests"`
	Errors      int64   `json:"errors"`
	Rejected    int64   `json:"rejected"` // 429/503 admission rejections
	DurationSec float64 `json:"duration_sec"`
	Throughput  float64 `json:"throughput_rps"`
	P50Ms       float64 `json:"p50_ms"`
	P95Ms       float64 `json:"p95_ms"`
	P99Ms       float64 `json:"p99_ms"`

	// Targets carries per-target traffic splits and latency percentiles
	// when more than one -url was given.
	Targets []targetReport `json:"targets,omitempty"`

	// Server-side TTFB quantiles scraped from aig_serve_ttfb_seconds.
	TTFBP50Ms float64 `json:"ttfb_p50_ms,omitempty"`
	TTFBP95Ms float64 `json:"ttfb_p95_ms,omitempty"`
	TTFBP99Ms float64 `json:"ttfb_p99_ms,omitempty"`

	CacheHits     int64            `json:"cache_hits"`
	CacheMisses   int64            `json:"cache_misses"`
	Coalesced     int64            `json:"coalesced"`
	Evaluations   int64            `json:"evaluations"`
	CacheHitRatio float64          `json:"cache_hit_ratio"`
	CacheDisabled bool             `json:"cache_disabled,omitempty"`
	BytesReceived int64            `json:"bytes_received"`
	StatusCounts  map[string]int64 `json:"status_counts"`

	// SlowestTraces lists the N slowest traces the daemon's flight
	// recorder kept for this view (populated with -slowest against an
	// aigd running with -trace).
	SlowestTraces []slowTrace `json:"slowest_traces,omitempty"`

	// Mutation / refresh behaviour (populated with -mutate).
	Mutations      int64   `json:"mutations,omitempty"`
	MutationErrors int64   `json:"mutation_errors,omitempty"`
	RefreshDelta   int64   `json:"refresh_delta,omitempty"`
	RefreshFull    int64   `json:"refresh_full,omitempty"`
	RefreshErrors  int64   `json:"refresh_errors,omitempty"`
	StaleSkips     int64   `json:"stale_skips,omitempty"`
	RefreshLagP50  float64 `json:"refresh_lag_p50_ms,omitempty"`
	RefreshLagP95  float64 `json:"refresh_lag_p95_ms,omitempty"`
	RefreshLagP99  float64 `json:"refresh_lag_p99_ms,omitempty"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "aigload:", err)
		os.Exit(1)
	}
}

// targetReport is one -url target's slice of the run.
type targetReport struct {
	URL        string  `json:"url"`
	Requests   int64   `json:"requests"`
	Errors     int64   `json:"errors"`
	Throughput float64 `json:"throughput_rps"`
	P50Ms      float64 `json:"p50_ms"`
	P95Ms      float64 `json:"p95_ms"`
	P99Ms      float64 `json:"p99_ms"`
}

// targetStats accumulates one target's samples during the run.
type targetStats struct {
	url       string
	requests  atomic.Int64
	errors    atomic.Int64
	mu        sync.Mutex
	latencies []float64 // milliseconds, successful requests only
}

func run() error {
	var urlFlags repeated
	flag.Var(&urlFlags, "url", "aigd base URL (repeatable or comma-separated; workers rotate round-robin; default http://localhost:8080)")
	var metricsFlags repeated
	flag.Var(&metricsFlags, "metrics-url", "base URL to scrape /metrics from (repeatable; counters are summed; default: every -url)")
	mutateURL := flag.String("mutate-url", "", "base URL for the background writer's POST /mutate (default: the first -url)")
	view := flag.String("view", "report", "view to request")
	var paramFlags repeated
	flag.Var(&paramFlags, "param", "view parameter as NAME=V1,V2,... (repeatable; workers rotate the combinations)")
	concurrency := flag.Int("c", 8, "concurrent workers")
	total := flag.Int64("n", 1000, "total requests")
	duration := flag.Duration("duration", 0, "stop after this long even if -n is not reached (0: no limit)")
	jsonPath := flag.String("json", "", "write the report as JSON to this file")
	check := flag.Bool("check", false, "exit non-zero unless errors==0 and cache hits > 0")
	mutate := flag.String("mutate", "", "background writer as SOURCE:TABLE=V1,V2,... (alternates insert/delete via POST /mutate)")
	mutateRate := flag.Float64("mutate-rate", 20, "background writes per second with -mutate")
	traceHeader := flag.Bool("trace-header", false, "send a fresh W3C Traceparent header per request, so daemon-side traces carry client-chosen IDs")
	slowest := flag.Int("slowest", 0, "after the run, fetch /debug/traces and report the N slowest kept traces (needs aigd -trace)")
	flag.Parse()

	combos, err := paramCombos(paramFlags)
	if err != nil {
		return err
	}

	var bases []string
	for _, f := range urlFlags {
		for _, u := range strings.Split(f, ",") {
			if u = strings.TrimSpace(strings.TrimRight(u, "/")); u != "" {
				bases = append(bases, u)
			}
		}
	}
	if len(bases) == 0 {
		bases = []string{"http://localhost:8080"}
	}
	targets := make([]*targetStats, len(bases))
	for i, u := range bases {
		targets[i] = &targetStats{url: u}
	}
	metricsURLs := []string(metricsFlags)
	if len(metricsURLs) == 0 {
		metricsURLs = bases
	}
	mutBase := *mutateURL
	if mutBase == "" {
		mutBase = bases[0]
	}
	mutBase = strings.TrimRight(mutBase, "/")

	var (
		done      atomic.Int64 // completed requests (any status)
		issued    atomic.Int64 // tickets handed to workers
		errsN     atomic.Int64 // transport errors + HTTP 5xx/4xx except admission rejections
		rejected  atomic.Int64 // 429 / 503
		bytesIn   atomic.Int64
		statusMu  sync.Mutex
		statuses  = make(map[string]int64)
		latMu     sync.Mutex
		latencies []float64 // milliseconds
	)

	deadline := time.Time{}
	if *duration > 0 {
		deadline = time.Now().Add(*duration)
	}

	client := &http.Client{Timeout: 30 * time.Second}
	start := time.Now()

	// Background writer: alternate insert/delete of one row so the
	// sources keep moving for the whole run.
	var mutOK, mutErr atomic.Int64
	stopMut := make(chan struct{})
	var mutWG sync.WaitGroup
	if *mutate != "" {
		src, table, row, err := parseMutateSpec(*mutate)
		if err != nil {
			return err
		}
		if *mutateRate <= 0 {
			return fmt.Errorf("-mutate-rate must be positive, got %v", *mutateRate)
		}
		mutWG.Add(1)
		go func() {
			defer mutWG.Done()
			tick := time.NewTicker(time.Duration(float64(time.Second) / *mutateRate))
			defer tick.Stop()
			op := "insert"
			for {
				select {
				case <-stopMut:
					return
				case <-tick.C:
				}
				u := mutBase + "/mutate?" + url.Values{
					"source": {src}, "table": {table}, "op": {op}, "values": {row},
				}.Encode()
				resp, err := client.Post(u, "", nil)
				if err != nil {
					mutErr.Add(1)
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					mutOK.Add(1)
				} else {
					mutErr.Add(1)
				}
				if op == "insert" {
					op = "delete"
				} else {
					op = "insert"
				}
			}
		}()
	}

	var wg sync.WaitGroup
	for w := 0; w < *concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				ticket := issued.Add(1)
				if ticket > *total {
					return
				}
				if !deadline.IsZero() && time.Now().After(deadline) {
					return
				}
				tgt := targets[(ticket-1)%int64(len(targets))]
				tgt.requests.Add(1)
				u := tgt.url + "/views/" + url.PathEscape(*view)
				if q := combos.query(ticket - 1); q != "" {
					u += "?" + q
				}
				req, err := http.NewRequest(http.MethodGet, u, nil)
				if err != nil {
					errsN.Add(1)
					tgt.errors.Add(1)
					done.Add(1)
					continue
				}
				if *traceHeader {
					req.Header.Set("Traceparent", obs.FormatTraceparent(obs.NewTraceID()))
				}
				t0 := time.Now()
				resp, err := client.Do(req)
				done.Add(1)
				if err != nil {
					errsN.Add(1)
					tgt.errors.Add(1)
					continue
				}
				n, _ := io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				lat := time.Since(t0).Seconds() * 1000
				bytesIn.Add(n)
				statusMu.Lock()
				statuses[strconv.Itoa(resp.StatusCode)]++
				statusMu.Unlock()
				switch {
				case resp.StatusCode == http.StatusOK:
					latMu.Lock()
					latencies = append(latencies, lat)
					latMu.Unlock()
					tgt.mu.Lock()
					tgt.latencies = append(tgt.latencies, lat)
					tgt.mu.Unlock()
				case resp.StatusCode == http.StatusTooManyRequests ||
					resp.StatusCode == http.StatusServiceUnavailable:
					rejected.Add(1)
				default:
					errsN.Add(1)
					tgt.errors.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(stopMut)
	mutWG.Wait()

	rep := report{
		View:          *view,
		Concurrency:   *concurrency,
		Requests:      done.Load(),
		Errors:        errsN.Load(),
		Rejected:      rejected.Load(),
		DurationSec:   elapsed.Seconds(),
		BytesReceived: bytesIn.Load(),
		StatusCounts:  statuses,
	}
	if elapsed > 0 {
		rep.Throughput = float64(rep.Requests) / elapsed.Seconds()
	}
	sort.Float64s(latencies)
	rep.P50Ms = percentile(latencies, 0.50)
	rep.P95Ms = percentile(latencies, 0.95)
	rep.P99Ms = percentile(latencies, 0.99)

	if len(targets) > 1 {
		for _, tgt := range targets {
			tgt.mu.Lock()
			sort.Float64s(tgt.latencies)
			tr := targetReport{
				URL:      tgt.url,
				Requests: tgt.requests.Load(),
				Errors:   tgt.errors.Load(),
				P50Ms:    percentile(tgt.latencies, 0.50),
				P95Ms:    percentile(tgt.latencies, 0.95),
				P99Ms:    percentile(tgt.latencies, 0.99),
			}
			tgt.mu.Unlock()
			if elapsed > 0 {
				tr.Throughput = float64(tr.Requests) / elapsed.Seconds()
			}
			rep.Targets = append(rep.Targets, tr)
		}
	}

	rep.Mutations = mutOK.Load()
	rep.MutationErrors = mutErr.Load()
	if counters, hists, err := scrapeAllMetrics(client, metricsURLs); err != nil {
		fmt.Fprintln(os.Stderr, "aigload: scraping /metrics:", err)
	} else {
		rep.CacheHits = counters["aig_serve_cache_hits_total"]
		rep.CacheMisses = counters["aig_serve_cache_misses_total"]
		rep.Coalesced = counters["aig_serve_coalesced_requests_total"]
		rep.Evaluations = counters["aig_serve_evaluations_total"]
		rep.CacheDisabled = rep.CacheHits == 0 && rep.CacheMisses == 0
		if lookups := rep.CacheHits + rep.CacheMisses; lookups > 0 {
			rep.CacheHitRatio = float64(rep.CacheHits) / float64(lookups)
		}
		rep.RefreshDelta = counters["aig_serve_refresh_delta_total"]
		rep.RefreshFull = counters["aig_serve_refresh_full_total"]
		rep.RefreshErrors = counters["aig_serve_refresh_errors_total"]
		rep.StaleSkips = counters["aig_serve_cache_stale_skips_total"]
		if lag := hists["aig_serve_refresh_lag_seconds"]; lag != nil {
			rep.RefreshLagP50 = lag.quantile(0.50) * 1000
			rep.RefreshLagP95 = lag.quantile(0.95) * 1000
			rep.RefreshLagP99 = lag.quantile(0.99) * 1000
		}
		if ttfb := hists["aig_serve_ttfb_seconds"]; ttfb != nil {
			rep.TTFBP50Ms = ttfb.quantile(0.50) * 1000
			rep.TTFBP95Ms = ttfb.quantile(0.95) * 1000
			rep.TTFBP99Ms = ttfb.quantile(0.99) * 1000
		}
	}

	fmt.Printf("view=%s c=%d requests=%d errors=%d rejected=%d\n",
		rep.View, rep.Concurrency, rep.Requests, rep.Errors, rep.Rejected)
	fmt.Printf("wall=%.2fs throughput=%.1f req/s p50=%.2fms p95=%.2fms p99=%.2fms\n",
		rep.DurationSec, rep.Throughput, rep.P50Ms, rep.P95Ms, rep.P99Ms)
	fmt.Printf("cache: hits=%d misses=%d (ratio %.3f) coalesced=%d evaluations=%d\n",
		rep.CacheHits, rep.CacheMisses, rep.CacheHitRatio, rep.Coalesced, rep.Evaluations)
	for _, tr := range rep.Targets {
		fmt.Printf("target %s: requests=%d errors=%d throughput=%.1f req/s p50=%.2fms p95=%.2fms p99=%.2fms\n",
			tr.URL, tr.Requests, tr.Errors, tr.Throughput, tr.P50Ms, tr.P95Ms, tr.P99Ms)
	}
	if rep.TTFBP50Ms > 0 || rep.TTFBP95Ms > 0 {
		fmt.Printf("server ttfb: p50=%.2fms p95=%.2fms p99=%.2fms\n",
			rep.TTFBP50Ms, rep.TTFBP95Ms, rep.TTFBP99Ms)
	}
	if *slowest > 0 {
		traces, err := slowestTraces(client, bases[0], *view, *slowest)
		if err != nil {
			fmt.Fprintln(os.Stderr, "aigload: fetching /debug/traces:", err)
		} else if len(traces) == 0 {
			fmt.Println("slowest traces: none kept (tail sampling dropped the run, or no traffic was traced)")
		} else {
			rep.SlowestTraces = traces
			fmt.Printf("slowest kept traces (inspect with GET %s/debug/traces/{id}):\n", bases[0])
			for _, t := range traces {
				fmt.Printf("  %8.2fms  %s  cache=%s status=%d kept=%s\n", t.DurationMs, t.ID, t.Cache, t.Status, t.Kept)
			}
		}
	}
	if *mutate != "" {
		fmt.Printf("mutations: %d ok, %d failed; refresh: delta=%d full=%d errors=%d stale-skips=%d\n",
			rep.Mutations, rep.MutationErrors, rep.RefreshDelta, rep.RefreshFull, rep.RefreshErrors, rep.StaleSkips)
		fmt.Printf("refresh lag: p50=%.2fms p95=%.2fms p99=%.2fms\n",
			rep.RefreshLagP50, rep.RefreshLagP95, rep.RefreshLagP99)
	}

	if *jsonPath != "" {
		f, err := os.Create(*jsonPath)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}

	if *check {
		if rep.Errors != 0 {
			return fmt.Errorf("check failed: %d errors", rep.Errors)
		}
		if rep.CacheHits == 0 {
			return fmt.Errorf("check failed: no cache hits")
		}
	}
	return nil
}

// slowTrace is one row of the post-run slowest-traces report, a subset
// of the daemon's /debug/traces summary fields.
type slowTrace struct {
	ID         string  `json:"id"`
	DurationMs float64 `json:"duration_ms"`
	Status     int     `json:"status,omitempty"`
	Cache      string  `json:"cache,omitempty"`
	Kept       string  `json:"kept,omitempty"`
	Error      string  `json:"error,omitempty"`
}

// slowestTraces asks the daemon's flight recorder for this view's kept
// traces and returns the n slowest. A 404 means the recorder is off
// (aigd without -trace) — reported as an error so the caller can say
// why the section is missing.
func slowestTraces(client *http.Client, base, view string, n int) ([]slowTrace, error) {
	u := base + "/debug/traces?" + url.Values{"view": {view}, "limit": {"1000"}}.Encode()
	resp, err := client.Get(u)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return nil, fmt.Errorf("flight recorder disabled (run aigd with -trace)")
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	var body struct {
		Traces []slowTrace `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, err
	}
	sort.Slice(body.Traces, func(i, j int) bool { return body.Traces[i].DurationMs > body.Traces[j].DurationMs })
	if len(body.Traces) > n {
		body.Traces = body.Traces[:n]
	}
	return body.Traces, nil
}

// combos holds the cross product of parameter value lists; query(i)
// renders combination i (mod the product size) as a query string, so
// consecutive tickets rotate deterministically through the bindings.
type combos struct {
	names  []string
	values [][]string
	size   int64
}

func paramCombos(flags []string) (*combos, error) {
	c := &combos{size: 1}
	for _, f := range flags {
		name, list, ok := strings.Cut(f, "=")
		if !ok || name == "" || list == "" {
			return nil, fmt.Errorf("-param needs NAME=V1,V2,..., got %q", f)
		}
		vals := strings.Split(list, ",")
		c.names = append(c.names, name)
		c.values = append(c.values, vals)
		c.size *= int64(len(vals))
	}
	return c, nil
}

func (c *combos) query(i int64) string {
	if len(c.names) == 0 {
		return ""
	}
	i %= c.size
	q := url.Values{}
	for k := range c.names {
		n := int64(len(c.values[k]))
		q.Set(c.names[k], c.values[k][i%n])
		i /= n
	}
	return q.Encode()
}

// percentile returns the p-quantile of sorted (ascending) samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p * float64(len(sorted)-1))
	return sorted[idx]
}

// parseMutateSpec splits "SOURCE:TABLE=V1,V2,..." into its parts.
func parseMutateSpec(spec string) (src, table, row string, err error) {
	target, row, ok := strings.Cut(spec, "=")
	if ok {
		src, table, ok = strings.Cut(target, ":")
	}
	if !ok || src == "" || table == "" || row == "" {
		return "", "", "", fmt.Errorf("-mutate needs SOURCE:TABLE=V1,V2,..., got %q", spec)
	}
	return src, table, row, nil
}

// histogram is the cumulative bucket view of one scraped Prometheus
// histogram: le upper bounds (ascending, +Inf last) with cumulative
// counts.
type histogram struct {
	les  []float64
	cums []int64
}

// quantile estimates the p-quantile from the buckets: the upper bound
// of the first bucket whose cumulative count reaches p of the total
// (the usual conservative bucket estimate; the +Inf bucket reports the
// largest finite bound).
func (h *histogram) quantile(p float64) float64 {
	if len(h.cums) == 0 {
		return 0
	}
	total := h.cums[len(h.cums)-1]
	if total == 0 {
		return 0
	}
	rank := int64(p * float64(total))
	for i, c := range h.cums {
		if c > rank {
			if math.IsInf(h.les[i], 1) && i > 0 {
				return h.les[i-1]
			}
			return h.les[i]
		}
	}
	return h.les[len(h.les)-1]
}

// scrapeAllMetrics scrapes every base URL and sums the counters and
// histogram buckets, so a fleet of replicas reports one set of totals.
// Bucket series merge positionally — all replicas run the same build,
// so their histograms share bucket bounds. An unreachable target is
// skipped with a note rather than failing the run: in a fault-injection
// test a replica may legitimately be dead at report time, and the
// totals from the survivors are still what we want.
func scrapeAllMetrics(client *http.Client, bases []string) (map[string]int64, map[string]*histogram, error) {
	counters := make(map[string]int64)
	hists := make(map[string]*histogram)
	scraped := 0
	for _, base := range bases {
		c, h, err := scrapeMetrics(client, base)
		if err != nil {
			fmt.Fprintf(os.Stderr, "aigload: skipping unreachable metrics target %s: %v\n", base, err)
			continue
		}
		scraped++
		for k, v := range c {
			counters[k] += v
		}
		for k, hv := range h {
			if have := hists[k]; have == nil {
				hists[k] = hv
			} else if len(have.cums) == len(hv.cums) {
				for i := range have.cums {
					have.cums[i] += hv.cums[i]
				}
			}
		}
	}
	if scraped == 0 {
		return nil, nil, fmt.Errorf("no metrics target reachable (%d tried)", len(bases))
	}
	return counters, hists, nil
}

// scrapeMetrics fetches /metrics and parses the aig_serve_* counters
// and histogram bucket series.
func scrapeMetrics(client *http.Client, base string) (map[string]int64, map[string]*histogram, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	counters := make(map[string]int64)
	hists := make(map[string]*histogram)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "aig_serve_") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		// Bucket lines may carry an OpenMetrics exemplar suffix
		// ("... 5 # {trace_id=\"...\"} 0.07"); the value ends before it.
		if v, _, hasEx := strings.Cut(val, " # "); hasEx {
			val = v
		}
		f, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			continue
		}
		if hname, rest, ok := strings.Cut(name, "_bucket{le=\""); ok {
			le := math.Inf(1)
			if bound := strings.TrimSuffix(rest, "\"}"); bound != "+Inf" {
				if b, err := strconv.ParseFloat(bound, 64); err == nil {
					le = b
				}
			}
			h := hists[hname]
			if h == nil {
				h = &histogram{}
				hists[hname] = h
			}
			h.les = append(h.les, le)
			h.cums = append(h.cums, int64(f))
			continue
		}
		counters[name] = int64(f)
	}
	return counters, hists, sc.Err()
}
