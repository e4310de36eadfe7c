// Command aigrouter fronts a fleet of aigd replicas with consistent-
// hash routing:
//
//	aigrouter -addr :8080 -replica http://host1:8081 -replica http://host2:8082
//
// Requests route by hash of (path, canonical query), so the same view
// and parameter binding always lands on the same replica — each
// replica's result cache and IVM refresher then own a shard of the
// keyspace instead of all replicas duplicating the same hot entries.
// Each replica sits at 128 points on the ring. The bounded-load rule
// (-bound) spills a hot key to the next replica on the ring before its
// home melts, health probes against each replica's /healthz every
// -health-interval (each given up after 2 s) steer traffic away from
// replicas that are draining, syncing or dead, and failed attempts retry
// on the next replica in ring order, every replica in turn, within 10 s
// of the request's arrival. Responses are fully buffered before anything
// reaches the client, so a replica dying mid-response fails over
// invisibly.
//
// Endpoints (the router's own; everything else proxies):
//
//	GET /healthz     200 while at least one replica is healthy
//	GET /replicas    per-replica routing state as JSON
//	GET /metrics     router metrics, Prometheus text format
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
	"strings"
	"syscall"
	"time"

	"github.com/aigrepro/aig/internal/cluster"
)

type repeated []string

func (r *repeated) String() string     { return strings.Join(*r, ",") }
func (r *repeated) Set(v string) error { *r = append(*r, v); return nil }

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "aigrouter:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", ":8080", "listen address")
	var replicas repeated
	flag.Var(&replicas, "replica", "replica base URL, e.g. http://host:8081 (repeatable, or comma-separated)")
	bound := flag.Float64("bound", 1.5, "bounded-load factor: max share of in-flight requests per replica relative to the fair share (negative disables)")
	healthInterval := flag.Duration("health-interval", 500*time.Millisecond, "replica health probe period")
	logFormat := flag.String("log-format", "text", "log output format: text or json")
	flag.Parse()

	var handler slog.Handler = slog.NewTextHandler(os.Stderr, nil)
	if *logFormat == "json" {
		handler = slog.NewJSONHandler(os.Stderr, nil)
	}
	logger := slog.New(handler)
	slog.SetDefault(logger)

	var urls []string
	for _, r := range replicas {
		for _, u := range strings.Split(r, ",") {
			if u = strings.TrimSpace(u); u != "" {
				urls = append(urls, u)
			}
		}
	}
	if len(urls) == 0 {
		return fmt.Errorf("pass at least one -replica URL")
	}

	rt, err := cluster.NewRouter(cluster.RouterConfig{
		Replicas:       urls,
		LoadBound:      *bound,
		HealthInterval: *healthInterval,
		Logger:         logger,
	})
	if err != nil {
		return err
	}
	defer rt.Close()

	httpSrv := &http.Server{Addr: *addr, Handler: rt.Handler()}
	errc := make(chan error, 1)
	go func() {
		logger.Info("aigrouter listening", "addr", *addr, "replicas", len(urls))
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

	logger.Info("aigrouter shutting down")
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(sctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	return nil
}
