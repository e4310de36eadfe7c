// Command aigd serves AIG-defined XML views over HTTP.
//
// At startup every view named with -view is parsed, validated against
// the sources, constraint-compiled, query-decomposed and planned once;
// requests then only bind the view's root parameters and evaluate:
//
//	aigd -addr :8080 -view report=report.aig -data ./data
//	aigd -addr :8080 -view report=report.aig -source DB1=host1:7001 -source DB2=host2:7001
//	aigd -demo        # built-in hospital view over the in-memory catalog
//
// With -subscribe each -source is consumed as a delta subscription
// instead of per-request RPCs: the daemon keeps a local mirror of the
// source's tables, the source engine pushes row deltas as they happen
// (snapshot catch-up when the mirror is cold or fell past the change
// log's horizon), and queries run against the mirror at local-memory
// speed. Every delta a mirror applies fires its database's change
// signal, which wakes the background refresher, so cached views go warm
// again one refresh cycle after a remote write. Views are
// prepared once every mirror has completed its initial sync (the daemon
// gives up after 30 s); /healthz reports 503 until then (and again if a
// feed goes stale), so a fleet router routes around replicas that are
// still catching up.
//
// Endpoints:
//
//	GET  /views                       list prepared views
//	GET  /views/{name}?p=v&...        evaluate (or serve from cache)
//	POST /views/{name}                same, parameters as form or JSON body
//	GET  /views/{name}/explain        the prepared plan, no evaluation
//	GET  /metrics                     Prometheus text format
//	GET  /healthz                     200 while ready (views prepared, sources healthy), 503 otherwise
//	POST /mutate                      row-level writes (-allow-mutate only)
//	GET  /debug/traces                flight-recorder trace summaries (-trace only)
//	GET  /debug/traces/{id}           one kept trace's full span tree (-trace only)
//	GET  /debug/pprof/  /debug/vars   runtime profiling and expvar (-debug only)
//
// With -trace every request runs under a W3C-compatible trace context:
// an incoming Traceparent header is adopted (so a caller's trace ID
// groups the daemon's spans), responses carry X-Aig-Trace-Id, and the
// flight recorder tail-samples completed traces — errors and slow
// requests always kept, a -trace-sample fraction of the rest — into an
// in-memory store of the latest 256, served at /debug/traces.
//
// Results are cached one entry per (view, parameters, fragment path),
// each stamped with the source data versions it was built at; a hit
// needs the stamp to be current, so mutating a source invalidates
// automatically. -cache-dir keeps the cache across restarts and needs
// durable sources (-state-dir, or aigsource -data-dir behind -source):
// the dumped stamps are only as good as the versions they name. With
// -refresh-interval a background refresher re-validates cached entries
// after mutations — provably unaffected entries are restamped in place,
// the rest are re-evaluated — so hot views stay warm instead of paying a
// miss on the next request. Identical concurrent requests are coalesced into
// one evaluation, and -max-concurrent / -max-queue / -queue-timeout
// bound the work the daemon accepts: beyond them clients get 429 or
// 503 instead of unbounded queuing. SIGINT or SIGTERM drains in-flight
// requests, waiting at most 10 s, before exiting.
//
// Recursive views unfold from depth 4 and double up to depth 64
// (mediator.UnfoldLimit); each view remembers the depth that sufficed.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"github.com/aigrepro/aig/internal/hospital"
	"github.com/aigrepro/aig/internal/relstore"
	"github.com/aigrepro/aig/internal/remote"
	"github.com/aigrepro/aig/internal/serve"
	"github.com/aigrepro/aig/internal/source"
)

// mirrorSyncWait bounds the wait for the mirrors' initial sync (with
// -subscribe) before the views are prepared; drainWait bounds the
// wait for in-flight requests on shutdown.
const (
	mirrorSyncWait = 30 * time.Second
	drainWait      = 10 * time.Second
)

type repeated []string

func (r *repeated) String() string     { return strings.Join(*r, ",") }
func (r *repeated) Set(v string) error { *r = append(*r, v); return nil }

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "aigd:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", ":8080", "listen address")
	var views, sources repeated
	flag.Var(&views, "view", "view as NAME=SPECFILE (repeatable)")
	flag.Var(&sources, "source", "remote source as NAME=ADDR (repeatable)")
	dataDir := flag.String("data", "", "directory of CSV source databases (one subdirectory per DB)")
	demo := flag.Bool("demo", false, "serve the built-in hospital view over the in-memory catalog")
	maxConcurrent := flag.Int("max-concurrent", 8, "maximum concurrent evaluations")
	maxQueue := flag.Int("max-queue", 64, "maximum requests waiting for an evaluation slot")
	queueTimeout := flag.Duration("queue-timeout", 2*time.Second, "longest a request may wait for a slot")
	cacheEntries := flag.Int("cache-entries", 256, "result cache capacity (0 disables caching)")
	cacheDir := flag.String("cache-dir", "", "persist the result cache here across restarts (saved on drain, re-validated on startup); needs durable sources: -state-dir for -data and -demo, aigsource -data-dir behind -source")
	stateDir := flag.String("state-dir", "", "durable local-source state directory, one subdirectory per DB (WAL + snapshots)")
	fsyncMode := flag.String("fsync", "never", "durable-state WAL flushing policy: never or always")
	refreshInterval := flag.Duration("refresh-interval", 0, "enable the background cache refresher (0 disables it); it wakes on source writes and polls only -source sources without -subscribe, at this interval")
	allowMutate := flag.Bool("allow-mutate", false, "serve POST /mutate for row-level writes against local sources")
	srcTimeout := flag.Duration("source-timeout", 0, "connect/read/write timeout for remote sources (0 disables)")
	subscribe := flag.Bool("subscribe", false, "mirror remote sources by delta subscription instead of per-request RPCs")
	trace := flag.Bool("trace", false, "enable the flight recorder: per-request traces with tail sampling, served at /debug/traces")
	traceSlow := flag.Duration("trace-slow", 250*time.Millisecond, "requests at least this slow are always kept (0 disables the slow rule)")
	traceSample := flag.Float64("trace-sample", 0.01, "fraction of fast, healthy requests kept, 0 keeps none (errors and slow requests are always kept)")
	debug := flag.Bool("debug", false, "serve /debug/pprof and /debug/vars (exposes runtime internals; trusted listeners only)")
	logFormat := flag.String("log-format", "text", "log output format: text or json")
	logLevel := flag.String("log-level", "info", "minimum log level: debug, info, warn or error")
	flag.Parse()

	logger, err := buildLogger(*logFormat, *logLevel)
	if err != nil {
		return err
	}
	slog.SetDefault(logger)

	if *demo == (len(views) != 0) {
		return fmt.Errorf("pass either -demo or at least one -view NAME=SPECFILE")
	}

	// A persisted entry is trusted at load when its stamp still matches
	// the sources' data versions. An in-memory local source starts every
	// run at the same version, whatever its data now holds, so only a
	// durable one (-state-dir) can vouch for a dumped stamp.
	if *cacheDir != "" && *stateDir == "" && (*demo || *dataDir != "") {
		return fmt.Errorf("-cache-dir needs -state-dir when local sources are served (-data or -demo): an in-memory source restarts at the same data version, so a dumped entry would look current after its data changed")
	}

	fsync, err := relstore.ParseFsyncMode(*fsyncMode)
	if err != nil {
		return err
	}
	reg, persisters, mirrors, err := buildRegistry(*dataDir, *stateDir, fsync, sources, *srcTimeout, *demo, *subscribe)
	if err != nil {
		return err
	}
	defer func() {
		for _, m := range mirrors {
			m.Close()
		}
	}()

	// In serve.Config zero means "default"; the flag's 0 means "off".
	if *cacheEntries == 0 {
		*cacheEntries = -1
	}
	cfg := serve.Config{
		MaxConcurrent:   *maxConcurrent,
		MaxQueue:        *maxQueue,
		QueueTimeout:    *queueTimeout,
		CacheEntries:    *cacheEntries,
		CacheDir:        *cacheDir,
		RefreshInterval: *refreshInterval,
		AllowMutate:     *allowMutate,

		FlightRecorder:     *trace,
		TraceSlowThreshold: cliDisabled(*traceSlow == 0, *traceSlow),
		TraceSampleRate:    cliDisabled(*traceSample == 0, *traceSample),
		EnableDebug:        *debug,
		Logger:             logger,
	}
	srv := serve.NewServer(reg, cfg)

	// View preparation reads schemas and statistics from the sources;
	// a mirror can answer those only after its initial sync.
	if len(mirrors) > 0 {
		wctx, cancel := context.WithTimeout(context.Background(), mirrorSyncWait)
		for _, m := range mirrors {
			if err := m.WaitReady(wctx); err != nil {
				cancel()
				return fmt.Errorf("waiting for mirror sync: %w", err)
			}
		}
		cancel()
		slog.Info("mirrors synced", "count", len(mirrors))
	}

	if *demo {
		v, err := srv.AddSpec("report", hospital.SpecText)
		if err != nil {
			return fmt.Errorf("preparing demo view: %w", err)
		}
		slog.Info("prepared demo view", "view", "report", "catalog", "hospital", "certified", v.Certified())
	}
	for _, spec := range views {
		name, path, ok := strings.Cut(spec, "=")
		if !ok {
			return fmt.Errorf("-view needs NAME=SPECFILE, got %q", spec)
		}
		text, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		v, err := srv.AddSpec(name, string(text))
		if err != nil {
			return fmt.Errorf("preparing view %s: %w", name, err)
		}
		slog.Info("prepared view", "view", name, "params", fmt.Sprint(v.Params()), "sources", fmt.Sprint(v.Sources()), "certified", v.Certified())
	}

	// With every view registered, a persisted cache can be re-validated:
	// entries whose stamps still match the (possibly just-recovered)
	// sources serve without re-evaluation; provably unaffected ones are
	// restamped; the rest are dropped — never served stale.
	if *cacheDir != "" {
		n, err := srv.LoadCache(*cacheDir)
		if err != nil {
			slog.Warn("cache load failed; starting cold", "dir", *cacheDir, "err", err)
		} else {
			slog.Info("cache warmed", "dir", *cacheDir, "entries", n)
		}
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() {
		slog.Info("aigd listening", "addr", *addr, "flight_recorder", *trace, "debug", *debug)
		errc <- httpSrv.ListenAndServe()
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop()

	slog.Info("draining", "timeout", drainWait)
	dctx, cancel := context.WithTimeout(context.Background(), drainWait)
	defer cancel()
	if err := srv.Drain(dctx); err != nil {
		slog.Warn("drain did not finish cleanly", "err", err)
	}
	if err := httpSrv.Shutdown(dctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	// Close journals last: a final snapshot per durable source makes the
	// next start replay-free.
	for _, p := range persisters {
		if err := p.Close(); err != nil {
			slog.Warn("closing source journal", "err", err)
		}
	}
	slog.Info("aigd stopped")
	return nil
}

// cliDisabled translates flag semantics into serve.Config semantics for
// the tail-sampling knobs: on the command line 0 means "off", while in
// Config 0 means "use the default" and negative means off.
func cliDisabled[T time.Duration | float64](off bool, v T) T {
	if off {
		return -1
	}
	return v
}

// buildLogger makes the process-wide structured logger from the
// -log-format / -log-level flags. Request logs carry trace_id and
// request_id attributes, so `-log-format json` pipes straight into log
// search keyed by the same IDs /debug/traces serves.
func buildLogger(format, level string) (*slog.Logger, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("-log-level %q: %w", level, err)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("-log-format %q (want text or json)", format)
	}
}

// buildRegistry assembles the source registry. With stateDir every
// local source (demo catalog databases and -data CSV directories alike)
// is opened durably under stateDir/<name>: first start seeds the WAL
// from the in-memory or CSV content, later starts recover tuples, table
// versions and change logs from disk — so cache stamps and delta
// watermarks taken before a restart still validate. The returned
// persisters must be closed on shutdown.
// With subscribe, remote sources are consumed as delta-subscription
// mirrors (returned so the caller can wait for their initial sync and
// close them on shutdown).
func buildRegistry(dataDir, stateDir string, fsync relstore.FsyncMode, sources []string, timeout time.Duration, demo bool, subscribe bool) (*source.Registry, []*relstore.Persister, []*remote.Mirror, error) {
	var persisters []*relstore.Persister
	var mirrors []*remote.Mirror
	addLocal := func(name string, seed func() (*relstore.Database, error), reg *source.Registry) error {
		if stateDir == "" {
			db, err := seed()
			if err != nil {
				return err
			}
			reg.Add(source.NewLocal(db))
			return nil
		}
		db, p, err := source.OpenDurable(name, source.DurableOptions{
			Dir:   filepath.Join(stateDir, name),
			Fsync: fsync,
		}, seed)
		if err != nil {
			return err
		}
		slog.Info("durable source open", "db", name, "version", db.Version(), "seq", p.Seq())
		reg.Add(source.NewLocal(db))
		persisters = append(persisters, p)
		return nil
	}

	reg := source.NewRegistry()
	n := 0
	if demo {
		// The demo catalog is the paper's worked example (Example 1.1).
		cat := hospital.TinyCatalog()
		for _, name := range cat.DatabaseNames() {
			name := name
			err := addLocal(name, func() (*relstore.Database, error) { return cat.Database(name) }, reg)
			if err != nil {
				return nil, nil, nil, err
			}
			n++
		}
	}
	if dataDir != "" {
		entries, err := os.ReadDir(dataDir)
		if err != nil {
			return nil, nil, nil, err
		}
		for _, e := range entries {
			if !e.IsDir() {
				continue
			}
			name := e.Name()
			err := addLocal(name, func() (*relstore.Database, error) {
				return relstore.LoadDir(name, filepath.Join(dataDir, name))
			}, reg)
			if err != nil {
				return nil, nil, nil, err
			}
			n++
		}
	}
	for _, s := range sources {
		name, addr, ok := strings.Cut(s, "=")
		if !ok {
			return nil, nil, nil, fmt.Errorf("-source needs NAME=ADDR, got %q", s)
		}
		if subscribe {
			// The subscription's read deadline bounds the gap between pushed
			// frames; it must exceed the origin's heartbeat cadence (1s) or
			// an idle stream looks dead and reconnects forever.
			readTO := timeout
			if readTO > 0 && readTO < 3*time.Second {
				readTO = 3 * time.Second
			}
			m := remote.OpenMirror(name, addr, remote.MirrorOptions{
				Timeouts: remote.Timeouts{Dial: timeout, Read: readTO, Write: timeout},
			})
			mirrors = append(mirrors, m)
			reg.Add(m.Source())
			n++
			continue
		}
		client, err := remote.DialTimeouts(name, addr,
			remote.Timeouts{Dial: timeout, Read: timeout, Write: timeout})
		if err != nil {
			return nil, nil, nil, err
		}
		reg.Add(client)
		n++
	}
	if n == 0 {
		return nil, nil, nil, fmt.Errorf("no sources: pass -data or -source")
	}
	return reg, persisters, mirrors, nil
}
