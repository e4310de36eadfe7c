package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"runtime"
	"sync"
	"time"
)

// The four workloads. Names are fixed: later issues cite them.
const (
	coldFull     = "cold_full"
	warmHit      = "warm_hit"
	fragmentCold = "fragment_cold"
	mutateMix    = "mutate_mix"
)

var workloadNames = []string{coldFull, warmHit, fragmentCold, mutateMix}

const (
	writeRate      = 4                     // mutate_mix writes per second, open loop
	maxLateP95     = 10 * time.Millisecond // beyond this the generator, not the server, is what was measured
	visibleTimeout = 5 * time.Second
	fragmentDates  = 8 // fragment_cold cycles this many dates, so one warm-up pass stays short
	setupRepeats   = 3 // set-ups per end-to-end run; setup_s is their median
)

// plan is one workload's traffic, derived from the fixture alone.
type plan struct {
	name       string
	daemonArgs []string      // aigd flags beyond -addr, -data, -view
	durable    bool          // also pass -state-dir, fresh for every set-up
	clients    [][]request   // closed-loop request lists, one per closed-loop client
	warm       []request     // every distinct request, sent once before timing
	writes     []write       // mutate_mix only: the open-loop write stream
	final      []request     // mutate_mix only: every date must read as base after the last delete
	primary    int           // the request class latency_* and ttfb_* describe
	window     time.Duration // when set, a cycle is this much time, not one pass over a request list
}

// write is one POST /mutate of the seeded stream and the document state
// that makes it visible.
type write struct {
	query  string // /mutate?...
	poll   request
	expect []byte
}

// fullRequests returns a full-document request per date, in the order
// given, each with its reference bytes.
func fullRequests(f *fixture, dates []string, noStore bool) ([]request, error) {
	reqs := make([]request, len(dates))
	err := parallel(len(dates), numClients, func(i int) error {
		ref, err := f.fullRef(dates[i])
		reqs[i] = viewRequest(dates[i], "", noStore, classFull)
		reqs[i].legal = [][]byte{ref}
		return err
	})
	return reqs, err
}

func rotate(reqs []request, by int) []request {
	by %= len(reqs)
	return append(append([]request(nil), reqs[by:]...), reqs[:by]...)
}

// fragmentShapes returns the narrow and wide paths. The positional
// predicates run over patients 1 to 5 (every date of bench250 has more;
// an empty selection would be a legal answer too), so a cycle holds the
// same requests on every seed; the seed decides their order.
func fragmentShapes() (narrow, wide []string) {
	for k := 1; k <= 5; k++ {
		narrow = append(narrow, fmt.Sprintf("//patient[%d]/SSN", k), fmt.Sprintf("/report/patient[%d]/treatments", k))
	}
	narrow = append(narrow, "/report/patient/SSN")
	wide = []string{"/report/patient/bill", "//treatment/tname"}
	return narrow, wide
}

// fragmentRequests returns a no-store request for every date and path,
// in seeded order, each with its reference bytes.
func fragmentRequests(f *fixture, dates, paths []string, class int) ([]request, error) {
	reqs := make([]request, 0, len(dates)*len(paths))
	for _, d := range dates {
		for _, p := range paths {
			reqs = append(reqs, viewRequest(d, p, true, class))
		}
	}
	f.rng(2+int64(class)).Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	err := parallel(len(reqs), numClients, func(i int) error {
		ref, err := f.fragRef(reqs[i].date, reqs[i].path)
		reqs[i].legal = [][]byte{ref}
		return err
	})
	return reqs, err
}

func buildPlan(f *fixture, name string, seconds float64) (*plan, error) {
	p := &plan{name: name, primary: classFull}
	switch name {
	case coldFull, warmHit:
		reqs, err := fullRequests(f, f.dates, name == coldFull)
		if err != nil {
			return nil, err
		}
		p.warm = reqs
		p.clients = [][]request{reqs, rotate(reqs, len(reqs)/2)}
	case fragmentCold:
		dates := f.spacedDates(fragmentDates)
		narrowPaths, widePaths := fragmentShapes()
		narrow, err := fragmentRequests(f, dates, narrowPaths, classNarrow)
		if err != nil {
			return nil, err
		}
		wide, err := fragmentRequests(f, dates, widePaths, classWide)
		if err != nil {
			return nil, err
		}
		p.primary = classNarrow
		p.clients = [][]request{narrow, wide}
		p.warm = append(append([]request(nil), wide...), narrow...)
	case mutateMix:
		p.daemonArgs = []string{"-fsync", "never", "-allow-mutate", "-refresh-interval", "2ms"}
		p.durable = true
		reqs, err := fullRequests(f, f.dates, false)
		if err != nil {
			return nil, err
		}
		p.warm = reqs
		p.final = reqs
		// A pass over 30 cached documents takes milliseconds and most passes
		// never meet a write; the unit that repeats is one insert and one
		// delete with the reads beside them.
		p.window = 2 * time.Second / writeRate
		pairs := max(1, int(seconds*writeRate)/2)
		// The written dates are the same set on every seed (their rebuilds
		// are the workload's cold work); the seed orders them and picks the
		// rows.
		rows, err := f.visitRows(f.spacedDates(pairs))
		if err != nil {
			return nil, err
		}
		reads := append([]request(nil), reqs...)
		readOf := make(map[string]*request, len(reads))
		for i := range reads {
			readOf[reads[i].date] = &reads[i]
		}
		for _, row := range rows {
			rq := readOf[row.date]
			rq.legal = [][]byte{rq.legal[0], row.with}
		}
		p.clients = [][]request{reads}
		for k := 0; k < 2*pairs; k++ {
			row := rows[(k/2)%len(rows)]
			w := write{poll: *readOf[row.date]}
			w.poll.class = classPoll
			if k%2 == 0 {
				w.query = "/mutate?source=DB1&table=visitInfo&op=insert&values=" + row.values
				w.expect = row.with
			} else {
				w.query = "/mutate?source=DB1&table=visitInfo&op=delete&values=" + row.values
				w.expect = w.poll.legal[0]
			}
			p.writes = append(p.writes, w)
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	return p, nil
}

// shortened is the plan for a shorter window: the same requests, and the
// write stream cut to the whole insert/delete pairs that fit.
func (p *plan) shortened(seconds float64) *plan {
	c := *p
	if n := 2 * max(1, int(seconds*writeRate)/2); n < len(c.writes) {
		c.writes = c.writes[:n]
	}
	return &c
}

// e2eRun is what one end-to-end run of a workload measured.
type e2eRun struct {
	metrics     map[string]float64
	samples     map[string]int // sample count behind each percentile metric
	attempted   int
	failed      int
	invalid     string // non-empty when the generator, not the server, limited the run
	commandLine string
}

// runE2E sets the daemon up the given number of times, keeps the last
// instance, drives the plan's traffic against it for the given time with
// tracing off, and checks every response.
func runE2E(bin, workDir string, f *fixture, p *plan, seconds float64, setupRepeats int) (*e2eRun, error) {
	if runtime.NumCPU() < numClients {
		return nil, fmt.Errorf("%d clients on %d processors: the generator would compete with itself", numClients, runtime.NumCPU())
	}
	dataDir, specFile, err := f.writeInputs(workDir)
	if err != nil {
		return nil, err
	}
	var (
		d      *daemon
		setups []float64
	)
	for i := 0; i < setupRepeats; i++ {
		args := append([]string{"-data", dataDir, "-view", viewName + "=" + specFile}, p.daemonArgs...)
		if p.durable {
			args = append(args, "-state-dir", filepath.Join(workDir, fmt.Sprintf("state-%d", i)))
		}
		t0 := time.Now()
		d, err = startDaemon(bin, args)
		if err != nil {
			return nil, err
		}
		if err := warmUp(d.base, p.warm); err != nil {
			d.stop()
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < setupRepeats-1 {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
	}
	run, err := drive(d, p, seconds)
	if serr := d.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	run.metrics["setup_s"] = median(setups)
	run.commandLine = d.commandLine(bin)
	return run, nil
}

// warmUp sends every distinct request of the workload once, untimed,
// split over the clients. A wrong answer here ends the run: the daemon
// is broken, not slow.
func warmUp(base string, reqs []request) error {
	return parallel(numClients, numClients, func(w int) error {
		c := newClient(base)
		defer c.close()
		for i := w; i < len(reqs); i += numClients {
			if _, ok := c.get(&reqs[i], time.Now()); !ok {
				return fmt.Errorf("warm-up: wrong answer for %s", reqs[i].url)
			}
		}
		return nil
	})
}

// drive runs the plan's clients against a warmed-up daemon for the given
// time, scrapes /metrics on both sides of it, and turns the samples into
// metrics.
func drive(d *daemon, p *plan, seconds float64) (*e2eRun, error) {
	before, err := d.scrape()
	if err != nil {
		return nil, err
	}
	clients := make([]*client, len(p.clients))
	for i := range clients {
		clients[i] = newClient(d.base)
		defer clients[i].close()
	}
	writer := newClient(d.base)
	defer writer.close()
	var ws writeStats

	cpu0 := cpuSeconds()
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(c *client, reqs []request) {
			defer wg.Done()
			c.closedLoop(reqs, start, deadline)
		}(c, p.clients[i])
	}
	if len(p.writes) > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws = writer.openLoopWrites(p.writes, start)
		}()
	}
	wg.Wait()
	wall := time.Since(start).Seconds()
	cpu := cpuSeconds() - cpu0

	// After the last delete every date must be back to its base document.
	for i := range p.final {
		writer.get(&p.final[i], start)
	}
	after, err := d.scrape()
	if err != nil {
		return nil, err
	}
	rss, err := d.peakRSSMB()
	if err != nil {
		return nil, err
	}

	run := &e2eRun{metrics: map[string]float64{}, samples: map[string]int{}, attempted: ws.attempted, failed: ws.failed}
	m := run.metrics
	// Every request counts against the gate; only the closed-loop clients'
	// feed the rates and latencies (the writer's polls and the final pass
	// are checks, not traffic).
	byClass := map[int][]sample{}
	var p50, p90, ttfb50 []float64
	for i, c := range append(clients, writer) {
		for _, s := range c.samples {
			run.attempted++
			if !s.ok {
				run.failed++
			} else if c != writer {
				byClass[s.class] = append(byClass[s.class], s)
			}
		}
		if c == writer {
			continue
		}
		cs := cycles(c.samples, len(p.clients[i]), p.window)
		m["throughput_rps"] += median(column(cs, func(c cycle) float64 { return c.rate }))
		m["payload_mb_per_s"] += median(column(cs, func(c cycle) float64 { return c.mbps }))
		if p.clients[i][0].class == p.primary {
			p50 = append(p50, column(cs, func(c cycle) float64 { return c.p50 })...)
			p90 = append(p90, column(cs, func(c cycle) float64 { return c.p90 })...)
			ttfb50 = append(ttfb50, column(cs, func(c cycle) float64 { return c.ttfb50 })...)
		}
	}
	m["latency_p50_ms"], m["latency_p90_ms"], m["ttfb_p50_ms"] = median(p50), median(p90), median(ttfb50)
	run.samples["cycles"] = len(p50)
	m["peak_rss_mb"] = rss
	m["error_share"] = float64(run.failed) / float64(run.attempted)
	m["gen.cpu_share"] = cpu / wall / float64(runtime.NumCPU())

	pct := func(name string, ds []time.Duration, p float64) {
		m[name] = percentile(durationsMs(ds), p)
		run.samples[name] = len(ds)
	}
	totals := func(ss []sample) (total, ttfb []time.Duration) {
		for _, s := range ss {
			total = append(total, s.total)
			ttfb = append(ttfb, s.ttfb)
		}
		return
	}
	run.samples["latency_p50_ms"] = len(byClass[p.primary])
	run.samples["latency_p90_ms"] = len(byClass[p.primary])
	_, narrowTTFB := totals(byClass[classNarrow])
	pct("narrow_ttfb_p50_ms", narrowTTFB, 50)
	pct("narrow_ttfb_p95_ms", narrowTTFB, 95)
	wideTotal, _ := totals(byClass[classWide])
	pct("wide_latency_p50_ms", wideTotal, 50)
	pct("write_ack_p50_ms", ws.ack, 50)
	pct("write_visible_p50_ms", ws.visible, 50)
	pct("write_visible_p75_ms", ws.visible, 75)
	pct("gen.late_p95_ms", ws.late, 95)
	if late := time.Duration(m["gen.late_p95_ms"] * float64(time.Millisecond)); late > maxLateP95 {
		run.invalid = fmt.Sprintf("open-loop writer ran late: p95 %v > %v", late, maxLateP95)
	}

	delta := func(name string) float64 { return after[name] - before[name] }
	m["serve.hits"] = delta("aig_serve_cache_hits_total")
	m["serve.misses"] = delta("aig_serve_cache_misses_total")
	m["serve.evaluations"] = delta("aig_serve_evaluations_total")
	m["serve.coalesced"] = delta("aig_serve_coalesced_requests_total")
	m["serve.rejected"] = delta("aig_serve_rejected_queue_full_total") + delta("aig_serve_rejected_queue_timeout_total")
	m["serve.refresh_restamped"] = delta("aig_serve_refresh_delta_total")
	m["serve.refresh_rebuilt"] = delta("aig_serve_refresh_full_total")
	m["serve.hit_ratio"] = ratio(m["serve.hits"], m["serve.hits"]+m["serve.misses"])
	m["serve.restamp_ratio"] = ratio(m["serve.refresh_restamped"], m["serve.refresh_restamped"]+m["serve.refresh_rebuilt"])
	return run, nil
}

// cycle is a unit of a closed-loop client's work that repeats through a
// run: one pass over its request list or, when a background schedule
// disturbs the client (mutate_mix's writer), one period of that
// schedule. Every cycle of a client holds the same work, so the
// end-to-end metrics are computed per cycle and the median over a run's
// complete cycles is reported, which keeps a stall of the machine, or the
// requests that happen to fall into a last partial pass, from moving them.
type cycle struct {
	rate, mbps       float64 // correct responses and body megabytes per second
	p50, p90, ttfb50 float64 // milliseconds; nearest-rank within the cycle
}

// cycles cuts a client's samples into complete cycles: windows of the
// given length when window is set, passes of n requests otherwise. A run
// too short to complete one cycle is treated as a single cycle.
func cycles(samples []sample, n int, window time.Duration) []cycle {
	if len(samples) == 0 {
		return nil
	}
	var out []cycle
	var from time.Duration
	start := 0
	for i, s := range samples {
		var took time.Duration
		switch {
		case window > 0 && s.end >= from+window:
			// The sample that crosses the boundary belongs to the next window.
			took = window
			out = append(out, cycleStats(samples[start:i], took))
			start, from = i, from+window
		case window == 0 && i+1-start == n:
			took = s.end - from
			out = append(out, cycleStats(samples[start:i+1], took))
			start, from = i+1, s.end
		}
	}
	if len(out) == 0 {
		out = append(out, cycleStats(samples, samples[len(samples)-1].end))
	}
	return out
}

func cycleStats(group []sample, took time.Duration) cycle {
	var total, ttfb []time.Duration
	var ok, bytes int
	for _, s := range group {
		if s.ok {
			ok++
			bytes += s.bytes
		}
		total, ttfb = append(total, s.total), append(ttfb, s.ttfb)
	}
	sorted := durationsMs(total)
	return cycle{
		rate: float64(ok) / took.Seconds(), mbps: float64(bytes) / 1e6 / took.Seconds(),
		p50: percentile(sorted, 50), p90: percentile(sorted, 90),
		ttfb50: percentile(durationsMs(ttfb), 50),
	}
}

func column(cs []cycle, field func(cycle) float64) []float64 {
	out := make([]float64, len(cs))
	for i, c := range cs {
		out[i] = field(c)
	}
	return out
}

func ratio(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return part / whole
}

// writeStats is what the open-loop writer measured.
type writeStats struct {
	attempted, failed  int
	late, ack, visible []time.Duration
}

// openLoopWrites sends write k at start + k/writeRate whether or not the
// server kept up, times its acknowledgement from that due time, then
// polls the written date until a read shows the write.
func (c *client) openLoopWrites(writes []write, start time.Time) writeStats {
	var ws writeStats
	period := time.Second / writeRate
	for k := range writes {
		w := &writes[k]
		due := start.Add(time.Duration(k) * period)
		time.Sleep(time.Until(due))
		ws.late = append(ws.late, time.Since(due))
		ws.attempted++
		resp, err := c.hc.Post(c.base+w.query, "", nil)
		if err != nil {
			ws.failed++
			continue
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		acked := time.Now()
		if resp.StatusCode != http.StatusOK {
			ws.failed++
			continue
		}
		ws.ack = append(ws.ack, acked.Sub(due))
		for {
			body, ok := c.get(&w.poll, start)
			if ok && bytes.Equal(body, w.expect) {
				ws.visible = append(ws.visible, time.Since(acked))
				break
			}
			if time.Since(acked) > visibleTimeout {
				ws.attempted++
				ws.failed++
				break
			}
		}
	}
	return ws
}
