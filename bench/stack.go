package main

import (
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"time"

	"github.com/aigrepro/aig/internal/aig"
	"github.com/aigrepro/aig/internal/aigspec"
	"github.com/aigrepro/aig/internal/hospital"
	"github.com/aigrepro/aig/internal/mediator"
	"github.com/aigrepro/aig/internal/obs"
	"github.com/aigrepro/aig/internal/relstore"
	"github.com/aigrepro/aig/internal/serve"
	"github.com/aigrepro/aig/internal/source"
	"github.com/aigrepro/aig/internal/specialize"
	"github.com/aigrepro/aig/internal/xmltree"
	"github.com/aigrepro/aig/internal/xpath"
)

// Serving defaults of aigd, which the in-process stack must share for
// its timings to describe the daemon's.
const (
	unfoldDepth = 4
	maxUnfold   = 64
)

// stack is the serving stack assembled inside the benchmark process from
// the layers' public functions, over a private copy of the catalog, so
// each layer can be called and timed on the inputs a request gives it.
type stack struct {
	cat  *relstore.Catalog
	reg  *source.Registry
	srv  *serve.Server
	spec *aig.AIG // the grammar as written
	sa   *aig.AIG // constraint-compiled and decomposed: what full documents run on
	fa   *aig.AIG // decomposed without guards: what fragments run on
	med  *mediator.Mediator

	// estDepth is the unfolding depth the last evaluation needed. serve
	// keeps the same per view, so that only a view's first request pays
	// for evaluating at the initial depth, finding the document truncated,
	// and evaluating again deeper.
	estDepth int
}

func cloneCatalog(cat *relstore.Catalog) (*relstore.Catalog, error) {
	out := relstore.NewCatalog()
	for _, name := range cat.DatabaseNames() {
		db, err := cat.Database(name)
		if err != nil {
			return nil, err
		}
		out.Add(db.Clone())
	}
	return out, nil
}

func quietLogger() *slog.Logger { return slog.New(slog.NewTextHandler(io.Discard, nil)) }

func newServer(reg *source.Registry, cfg serve.Config) (*serve.Server, error) {
	cfg.Metrics, cfg.Logger = obs.NewRegistry(), quietLogger()
	srv := serve.NewServer(reg, cfg)
	if _, err := srv.AddSpec(viewName, hospital.SpecText); err != nil {
		return nil, err
	}
	return srv, nil
}

// newStack builds the stack over a private copy of the catalog.
func newStack(base *relstore.Catalog) (*stack, error) {
	cat, err := cloneCatalog(base)
	if err != nil {
		return nil, err
	}
	return newStackOver(cat, serve.Config{})
}

// newStackOver prepares the view the way serve.prepareView does, keeping
// the intermediate grammars so the mediator and the partial evaluator can
// be called without the server around them.
func newStackOver(cat *relstore.Catalog, cfg serve.Config) (*stack, error) {
	s := &stack{cat: cat, reg: source.RegistryFromCatalog(cat), estDepth: unfoldDepth}
	var err error
	if s.srv, err = newServer(s.reg, cfg); err != nil {
		return nil, err
	}
	if s.spec, err = aigspec.Parse(hospital.SpecText); err != nil {
		return nil, err
	}
	opts := mediator.DefaultOptions()
	guarded, err := specialize.CompileConstraints(s.spec)
	if err != nil {
		return nil, err
	}
	if s.sa, err = specialize.DecomposeQueries(guarded, s.reg, s.reg, opts.PlanOpts); err != nil {
		return nil, err
	}
	if s.fa, err = specialize.DecomposeQueries(s.spec, s.reg, s.reg, opts.PlanOpts); err != nil {
		return nil, err
	}
	s.med = mediator.New(s.reg, opts)
	return s, nil
}

// sink is the response writer of in-process handler calls. It discards
// the body unless the caller wants to check it.
type sink struct {
	header http.Header
	status int
	keep   bool
	body   []byte
}

func (w *sink) Header() http.Header { return w.header }
func (w *sink) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}
func (w *sink) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	if w.keep {
		w.body = append(w.body, b...)
	}
	return len(b), nil
}
func (w *sink) Flush() {}

// handle calls the serve handler in-process and returns what it wrote
// (the body only if keep). Anything but a 200 is an error.
func (s *stack) handle(method, url string, noStore, keep bool) (*sink, error) {
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		return nil, err
	}
	if noStore {
		req.Header.Set("Cache-Control", "no-store")
	}
	w := &sink{header: make(http.Header), keep: keep}
	s.srv.Handler().ServeHTTP(w, req)
	if w.status != http.StatusOK {
		return nil, fmt.Errorf("in-process %s %s: status %d", method, url, w.status)
	}
	return w, nil
}

// mustHandle is handle for the timed path: a failure is a bug in the
// benchmark or the tree, reported through errp.
func (s *stack) mustHandle(rq *request, errp *error) {
	_, err := s.handle(http.MethodGet, rq.url, rq.noStore, false)
	if err != nil && *errp == nil {
		*errp = err
	}
}

// check calls the handler once, untimed, and compares bytes with the
// request's reference.
func (s *stack) check(rq *request) error {
	w, err := s.handle(http.MethodGet, rq.url, rq.noStore, true)
	if err != nil {
		return err
	}
	for _, want := range rq.legal {
		if string(w.body) == string(want) {
			return nil
		}
	}
	return fmt.Errorf("in-process %s: wrong bytes", rq.url)
}

func (s *stack) evaluate(date string) (*mediator.Result, error) {
	res, depth, err := s.med.EvaluateRecursive(s.sa, hospital.RootInh(s.sa, date), s.estDepth, maxUnfold)
	if err == nil {
		s.estDepth = depth
	}
	return res, err
}

// timedProviders wraps the catalog's statistics and data providers so
// the time the partial evaluator spends in relstore on behalf of the
// planner (distinct counts, cardinalities) and of execution (table
// fetches) can be told apart from its own.
type timedProviders struct {
	reg                 *source.Registry
	statsTime, dataTime time.Duration
}

func (p *timedProviders) TableCard(src, table string) (int, error) {
	t0 := time.Now()
	n, err := p.reg.TableCard(src, table)
	p.statsTime += time.Since(t0)
	return n, err
}

func (p *timedProviders) ColumnDistinct(src, table, column string) (int, error) {
	t0 := time.Now()
	n, err := p.reg.ColumnDistinct(src, table, column)
	p.statsTime += time.Since(t0)
	return n, err
}

func (p *timedProviders) TableData(src, table string) (*relstore.Table, error) {
	t0 := time.Now()
	t, err := p.reg.TableData(src, table)
	p.dataTime += time.Since(t0)
	return t, err
}

// partialRun is one aig.EvalPartial call taken apart.
type partialRun struct {
	total, stats, data, serialize time.Duration
}

// evalPartial runs the partial evaluator the way serve.evaluateFragment
// does: guard-free grammar, a fresh cursor, each match rendered as it is
// emitted.
func (s *stack) evalPartial(c *xpath.Compiled, date string) (partialRun, error) {
	tp := &timedProviders{reg: s.reg}
	env := &aig.Env{Schemas: s.reg, Data: tp, Stats: tp, PlanOpts: mediator.DefaultOptions().PlanOpts,
		MaxDepth: maxUnfold}
	var pr partialRun
	t0 := time.Now()
	err := s.fa.EvalPartial(env, hospital.RootInh(s.fa, date), c.NewCursor(), func(n *xmltree.Node) error {
		t1 := time.Now()
		var sb strings.Builder
		werr := n.WriteIndented(&sb)
		pr.serialize += time.Since(t1)
		return werr
	})
	pr.total = time.Since(t0)
	pr.stats, pr.data = tp.statsTime, tp.dataTime
	return pr, err
}

func compilePath(a *aig.AIG, path string) (*xpath.Compiled, error) {
	p, err := xpath.Parse(path)
	if err != nil {
		return nil, err
	}
	return xpath.Compile(a, p)
}
