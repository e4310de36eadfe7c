// Command aigsource serves one relational source database over TCP so
// that the mediator can integrate truly distributed data:
//
//	aigsource -name DB1 -data ./data/DB1 -listen 127.0.0.1:7001
//
// loads every CSV of the directory (as written by aiggen) into an
// in-memory engine and answers schema, statistics, costing and query
// requests on the wire protocol of the remote package.
//
// With -data-dir the source is durable: on first start the CSV data (or
// an empty database, without -data) seeds a write-ahead log plus
// periodic snapshots under the directory, and on every later start the
// database is recovered from them — tuples, table versions and change
// logs included, so mediator-side delta watermarks survive the restart.
// -fsync picks the flushing policy ("always" makes every acknowledged
// mutation crash-durable, "never" leaves flushing to the OS); a snapshot
// is taken every relstore.DefaultSnapshotEvery WAL records.
// SIGINT/SIGTERM close the journal with a final snapshot, making the
// next start replay-free.
//
// -apply applies one mutation to the durable state and exits without
// listening — the way to mutate a source while its daemon is down:
//
//	aigsource -name DB1 -data-dir state/DB1 -apply 'visitInfo:insert:s9,t1,d1'
//	aigsource -name DB1 -data-dir state/DB1 -apply 'visitInfo:delete:s9,t1,d1'
//
// delete removes every row equal to the values; one that matches nothing
// succeeds with "affected 0". Malformed input, an unknown table and a
// journal failure exit 1.
//
// -http ADDR adds an HTTP sidecar listener for operating the source
// while it serves: POST /mutate?table=T&op=insert|delete&values=V1,V2
// applies a row-level write with aigd's /mutate query, JSON answer and
// status codes (source is optional here and must name this source when
// given), so load generators can drive writes at the origin while
// replicas mirror them; GET /healthz answers readiness, and GET /metrics
// serves the engine's counters in Prometheus text format.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"github.com/aigrepro/aig/internal/obs"
	"github.com/aigrepro/aig/internal/relstore"
	"github.com/aigrepro/aig/internal/remote"
	"github.com/aigrepro/aig/internal/source"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "aigsource:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("name", "", "source (database) name, e.g. DB1")
	data := flag.String("data", "", "directory of CSV tables (the seed when -data-dir is fresh)")
	listen := flag.String("listen", "127.0.0.1:0", "TCP listen address")
	dataDir := flag.String("data-dir", "", "durable state directory (WAL + snapshots); empty runs in-memory only")
	fsyncMode := flag.String("fsync", "never", "WAL flushing policy: never or always")
	apply := flag.String("apply", "", "apply one mutation TABLE:OP:V1,V2,... to the durable state and exit (requires -data-dir)")
	httpAddr := flag.String("http", "", "HTTP sidecar listener (POST /mutate, GET /healthz, GET /metrics); empty disables")
	flag.Parse()

	if *name == "" || (*data == "" && *dataDir == "") {
		fmt.Fprintln(os.Stderr, "usage: aigsource -name DB1 (-data ./data/DB1 | -data-dir state/DB1) [-listen host:port] [-fsync never|always] [-http host:port] [-apply TABLE:OP:VALUES]")
		os.Exit(2)
	}
	fsync, err := relstore.ParseFsyncMode(*fsyncMode)
	if err != nil {
		return err
	}

	var db *relstore.Database
	var p *relstore.Persister
	if *dataDir != "" {
		seed := func() (*relstore.Database, error) { return relstore.NewDatabase(*name), nil }
		if *data != "" {
			seed = func() (*relstore.Database, error) { return relstore.LoadDir(*name, *data) }
		}
		db, p, err = source.OpenDurable(*name,
			source.DurableOptions{Dir: *dataDir, Fsync: fsync}, seed)
		if err != nil {
			return err
		}
	} else {
		if *apply != "" {
			return fmt.Errorf("-apply needs -data-dir: a one-shot mutation against in-memory state would be lost")
		}
		if db, err = relstore.LoadDir(*name, *data); err != nil {
			return err
		}
	}

	if *apply != "" {
		res, err := applySpec(db, *apply)
		if err != nil {
			p.Close()
			return err
		}
		if err := p.Close(); err != nil {
			return fmt.Errorf("closing journal: %w", err)
		}
		fmt.Printf("source %s: applied %s: affected %d (table version %d, %d rows, db version %d)\n",
			*name, *apply, res.Affected, res.Version, res.Rows, db.Version())
		return nil
	}

	srv := remote.NewServer(db)
	addr, err := srv.Listen(*listen)
	if err != nil {
		if p != nil {
			p.Close()
		}
		return err
	}
	fmt.Printf("source %s serving %d tables on %s (durable=%v fsync=%s)\n",
		*name, len(db.TableNames()), addr, p != nil, fsync)

	var httpSrv *http.Server
	if *httpAddr != "" {
		httpSrv = &http.Server{Addr: *httpAddr, Handler: sidecarMux(*name, db)}
		go func() {
			if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "aigsource: http sidecar:", err)
			}
		}()
		fmt.Printf("source %s http sidecar on %s\n", *name, *httpAddr)
	}

	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	<-ch
	if httpSrv != nil {
		httpSrv.Close()
	}
	srv.Close()
	if p != nil {
		// Final snapshot: the next start recovers without WAL replay.
		if err := p.Close(); err != nil {
			return fmt.Errorf("closing journal: %w", err)
		}
	}
	return nil
}

// sidecarMux is the HTTP operating surface of a running source: write
// endpoint, readiness and metrics. POST /mutate is source.ServeMutate,
// as in aigd; the source parameter is optional and must name this source
// when given.
func sidecarMux(name string, db *relstore.Database) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		obs.Default.WritePrometheus(w)
	})
	mux.HandleFunc("POST /mutate", func(w http.ResponseWriter, r *http.Request) {
		source.ServeMutate(w, r.URL.Query(), func(src string) (*relstore.Database, error) {
			if src != "" && src != name {
				return nil, fmt.Errorf("%w %q here: this is %s", source.ErrUnknownSource, src, name)
			}
			return db, nil
		})
	})
	return mux
}

// applySpec applies an -apply spec TABLE:OP:V1,V2,... to db. The values
// part may hold further colons.
func applySpec(db *relstore.Database, spec string) (relstore.MutateResult, error) {
	table, rest, ok := strings.Cut(spec, ":")
	if !ok {
		return relstore.MutateResult{}, fmt.Errorf("-apply wants TABLE:OP:V1,V2,..., got %q", spec)
	}
	op, values, _ := strings.Cut(rest, ":")
	return db.Mutate(table, op, relstore.SplitValues(values))
}
