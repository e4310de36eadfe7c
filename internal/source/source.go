// Package source abstracts the relational data sources the mediator talks
// to. A Source answers schema lookups, the query costing API of §5.2
// (eval_cost and size estimates), and executes single-source queries,
// reporting the measured execution time. Sources are either in-process
// (Local, wrapping a relstore database) or remote (the remote package's
// TCP client implements the same interface).
//
// A Registry collects the sources of one integration and adapts them to
// the sqlmini provider interfaces so that multi-source queries can be
// resolved, planned and decomposed against the combined view.
package source

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/aigrepro/aig/internal/obs"
	"github.com/aigrepro/aig/internal/relstore"
	"github.com/aigrepro/aig/internal/sqlmini"
)

// Source-level metrics: one execution and one row count per engine-side
// query, wherever that engine runs (in-process here; remote engines
// count on their own side).
var (
	metricExecs = obs.Default.NewCounter("aig_source_queries_total",
		"queries executed by in-process source engines")
	metricExecRows = obs.Default.NewCounter("aig_source_rows_returned_total",
		"result rows returned by in-process source engines")
)

// Estimate is a source's answer to a costing request: the expected
// processing time in abstract cost units, output cardinality and output
// size in bytes (§5.2's eval_cost and size).
type Estimate struct {
	Cost  float64 // processing effort (tuple operations)
	Rows  float64
	Bytes float64
}

// Source is one relational data source.
type Source interface {
	// Name returns the source's name, as used in source-qualified table
	// references ("DB1:patient").
	Name() string
	// TableSchema returns the schema of a stored table.
	TableSchema(table string) (relstore.Schema, error)
	// TableCard and ColumnDistinct expose statistics for planning.
	TableCard(table string) (int, error)
	ColumnDistinct(table, column string) (int, error)
	// DataVersion returns the source's monotonic data version: it
	// advances on every mutation of the source's data and never on
	// reads, so two equal versions observed at different times imply the
	// source would answer queries identically. Result caches key on it.
	DataVersion() (uint64, error)
	// TableVersions returns the per-table data versions of the source's
	// stored tables: a finer-grained view of DataVersion that lets
	// incremental view maintenance attribute a mutation to the tables it
	// touched.
	TableVersions() (map[string]uint64, error)
	// ChangesSince returns the named table's row deltas after version
	// since. A ChangeSet with Truncated set means the source no longer
	// retains the window (bounded log, table replacement, restart) and
	// the caller must fall back to a full refresh.
	ChangesSince(table string, since uint64) (relstore.ChangeSet, error)
	// Estimate runs the costing API for a query that references only this
	// source's tables (plus parameters). The context carries cancellation
	// and the caller's trace (obs.SpanFromContext), so source engines can
	// parent their spans under the mediator's.
	Estimate(ctx context.Context, q *sqlmini.Query, params sqlmini.ParamSchemas, opts sqlmini.PlanOptions) (Estimate, error)
	// Exec executes such a query and reports the measured wall time spent
	// inside the source engine.
	Exec(ctx context.Context, name string, q *sqlmini.Query, params sqlmini.Params, opts sqlmini.PlanOptions) (*relstore.Table, time.Duration, error)
}

// Health is optionally implemented by sources whose availability can
// degrade at runtime (remote engines, replication mirrors). Healthy
// returns nil when the source can serve, and an explanatory error when
// it cannot — readiness endpoints aggregate it so load balancers drain
// traffic away from a replica whose sources are gone. Sources that do
// not implement it are assumed healthy.
type Health interface {
	Healthy() error
}

// Local is an in-process source backed by a relstore database.
type Local struct {
	db  *relstore.Database
	cat *relstore.Catalog // single-entry catalog for the adapters
}

// NewLocal wraps a database as a source.
func NewLocal(db *relstore.Database) *Local {
	cat := relstore.NewCatalog()
	cat.Add(db)
	return &Local{db: db, cat: cat}
}

// Name implements Source.
func (l *Local) Name() string { return l.db.Name() }

// TableSchema implements Source.
func (l *Local) TableSchema(table string) (relstore.Schema, error) {
	t, err := l.db.Table(table)
	if err != nil {
		return nil, err
	}
	return t.Schema(), nil
}

// TableCard implements Source.
func (l *Local) TableCard(table string) (int, error) {
	t, err := l.db.Table(table)
	if err != nil {
		return 0, err
	}
	return t.Len(), nil
}

// ColumnDistinct implements Source.
func (l *Local) ColumnDistinct(table, column string) (int, error) {
	return sqlmini.CatalogStats{Catalog: l.cat}.ColumnDistinct(l.db.Name(), table, column)
}

// DataVersion implements Source.
func (l *Local) DataVersion() (uint64, error) { return l.db.Version(), nil }

// TableVersions implements Source.
func (l *Local) TableVersions() (map[string]uint64, error) {
	return l.db.TableVersions(), nil
}

// ChangesSince implements Source.
func (l *Local) ChangesSince(table string, since uint64) (relstore.ChangeSet, error) {
	return l.db.ChangesSince(table, since)
}

// TableData implements TableDataProvider: direct table access for
// in-process evaluation.
func (l *Local) TableData(table string) (*relstore.Table, error) { return l.db.Table(table) }

// DB exposes the wrapped database so that serving-side mutation
// endpoints (and tests) can write through the same instance the source
// reads.
func (l *Local) DB() *relstore.Database { return l.db }

func (l *Local) checkLocal(q *sqlmini.Query) error {
	for _, s := range q.Sources() {
		if s != l.db.Name() {
			return fmt.Errorf("source %s: query references foreign source %s: %s", l.db.Name(), s, q)
		}
	}
	return nil
}

// Estimate implements Source.
func (l *Local) Estimate(ctx context.Context, q *sqlmini.Query, params sqlmini.ParamSchemas, opts sqlmini.PlanOptions) (Estimate, error) {
	if err := l.checkLocal(q); err != nil {
		return Estimate{}, err
	}
	plan, err := sqlmini.PlanAndEstimate(q, sqlmini.CatalogSchemas{Catalog: l.cat}, params, sqlmini.CatalogStats{Catalog: l.cat}, opts)
	if err != nil {
		return Estimate{}, err
	}
	return Estimate{Cost: plan.EstCost, Rows: plan.EstRows, Bytes: plan.EstBytes}, nil
}

// tracedData wraps a sqlmini.DataProvider and records one span per base
// table the engine reads, so a trace shows which stored tables a query
// plan actually touched and how large they were.
type tracedData struct {
	inner  sqlmini.DataProvider
	tracer *obs.Tracer
	parent *obs.Span
}

func (d tracedData) TableData(sourceName, table string) (*relstore.Table, error) {
	sp := d.tracer.StartSpan("scan:"+sourceName+"."+table, d.parent)
	t, err := d.inner.TableData(sourceName, table)
	if err != nil {
		sp.SetAttr("error", err.Error())
	} else {
		sp.SetAttr("rows", t.Len())
	}
	sp.End()
	return t, err
}

// Exec implements Source.
func (l *Local) Exec(ctx context.Context, name string, q *sqlmini.Query, params sqlmini.Params, opts sqlmini.PlanOptions) (*relstore.Table, time.Duration, error) {
	if err := l.checkLocal(q); err != nil {
		return nil, 0, err
	}
	var data sqlmini.DataProvider = sqlmini.CatalogData{Catalog: l.cat}
	if tr, parent := obs.SpanFromContext(ctx); tr != nil {
		data = tracedData{inner: data, tracer: tr, parent: parent}
	}
	start := time.Now()
	out, err := sqlmini.Run(name, q, sqlmini.CatalogSchemas{Catalog: l.cat}, data, sqlmini.CatalogStats{Catalog: l.cat}, params, opts)
	if err == nil {
		metricExecs.Inc()
		metricExecRows.Add(int64(out.Len()))
	}
	return out, time.Since(start), err
}

// Registry is the mediator's view of all sources.
type Registry struct {
	mu      sync.RWMutex
	sources map[string]Source
}

// NewRegistry builds a registry over the given sources.
func NewRegistry(sources ...Source) *Registry {
	r := &Registry{sources: make(map[string]Source, len(sources))}
	for _, s := range sources {
		r.sources[s.Name()] = s
	}
	return r
}

// RegistryFromCatalog wraps every database of a catalog as a local source.
func RegistryFromCatalog(cat *relstore.Catalog) *Registry {
	r := NewRegistry()
	for _, name := range cat.DatabaseNames() {
		db, err := cat.Database(name)
		if err == nil {
			r.Add(NewLocal(db))
		}
	}
	return r
}

// Add registers a source, replacing any previous source of the same name.
func (r *Registry) Add(s Source) {
	r.mu.Lock()
	r.sources[s.Name()] = s
	r.mu.Unlock()
}

// ErrUnknownSource is wrapped by lookups of a source name nobody serves.
var ErrUnknownSource = errors.New("source: no source")

// Get returns the named source.
func (r *Registry) Get(name string) (Source, error) {
	r.mu.RLock()
	s, ok := r.sources[name]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w %q registered", ErrUnknownSource, name)
	}
	return s, nil
}

// Names returns the registered source names in sorted order.
func (r *Registry) Names() []string {
	r.mu.RLock()
	out := make([]string, 0, len(r.sources))
	for n := range r.sources {
		out = append(out, n)
	}
	r.mu.RUnlock()
	sort.Strings(out)
	return out
}

// DataVersions returns the data version of each named source (every
// registered source when names is nil). The map is a consistent cache
// key only in the absence of concurrent mutations; a mutation racing
// the snapshot invalidates at the next request, which is the usual
// read-your-writes-eventually contract of an LRU over live sources.
func (r *Registry) DataVersions(names []string) (map[string]uint64, error) {
	if names == nil {
		names = r.Names()
	}
	out := make(map[string]uint64, len(names))
	for _, n := range names {
		s, err := r.Get(n)
		if err != nil {
			return nil, err
		}
		v, err := s.DataVersion()
		if err != nil {
			return nil, fmt.Errorf("source %s: data version: %w", n, err)
		}
		out[n] = v
	}
	return out, nil
}

// TableSchema implements sqlmini.SchemaProvider across all sources.
func (r *Registry) TableSchema(sourceName, table string) (relstore.Schema, error) {
	s, err := r.Get(sourceName)
	if err != nil {
		return nil, err
	}
	return s.TableSchema(table)
}

// TableCard implements sqlmini.Stats.
func (r *Registry) TableCard(sourceName, table string) (int, error) {
	s, err := r.Get(sourceName)
	if err != nil {
		return 0, err
	}
	return s.TableCard(table)
}

// ColumnDistinct implements sqlmini.Stats.
func (r *Registry) ColumnDistinct(sourceName, table, column string) (int, error) {
	s, err := r.Get(sourceName)
	if err != nil {
		return 0, err
	}
	return s.ColumnDistinct(table, column)
}

// TableDataProvider is the optional interface of sources that can hand
// out raw table handles for in-process evaluation (the conceptual
// evaluator and partial evaluation). Local sources implement it;
// wrappers can forward it.
type TableDataProvider interface {
	TableData(table string) (*relstore.Table, error)
}

// TableData implements sqlmini.DataProvider for in-process evaluation
// (the conceptual evaluator). Remote sources do not support direct
// table reads; only sources exposing TableDataProvider do.
func (r *Registry) TableData(sourceName, table string) (*relstore.Table, error) {
	s, err := r.Get(sourceName)
	if err != nil {
		return nil, err
	}
	p, ok := s.(TableDataProvider)
	if !ok {
		return nil, fmt.Errorf("source: %q is not a local source; direct table access unavailable", sourceName)
	}
	return p.TableData(table)
}
