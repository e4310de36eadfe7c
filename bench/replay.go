package main

import (
	"net/http"
	"path/filepath"
	"time"

	"github.com/aigrepro/aig/internal/ivm"
	"github.com/aigrepro/aig/internal/mediator"
	"github.com/aigrepro/aig/internal/relstore"
	"github.com/aigrepro/aig/internal/serve"
	"github.com/aigrepro/aig/internal/source"
	"github.com/aigrepro/aig/internal/xpath"
)

// Root span names of the traced layer run.
const (
	spanHandler = "serve.handler" // one request through serve's handler
	spanRebuild = "serve.rebuild" // mutate_mix: the read that re-evaluates a written date
)

// replayed is the outcome of one workload's traced layer run.
type replayed struct {
	spans        []span
	primaryMs    float64 // median in-process handler time of the workload's primary request class
	attributedMs float64 // median over primary requests of the self times of all their spans
	overhead     float64 // share by which recording spans slows the primary handler call
	tables       map[string][]layerRow
}

// replay sends a seeded sample of the workload's requests (at least 30)
// through the in-process stack. Each request is first handled by the
// serve handler, then the layers beneath it are called separately on the
// same inputs, every call in a span parented to the handler's.
func (s *stack) replay(f *fixture, p *plan, workDir string) (*replayed, error) {
	rec := newRecorder()
	classOf := map[int]int{}
	var err error
	switch p.name {
	case coldFull:
		for i := range p.clients[0] {
			rq := &p.clients[0][i]
			classOf[i] = rq.class
			if err = s.replayFull(rec, spanHandler, i, rq); err != nil {
				return nil, err
			}
		}
	case warmHit, mutateMix:
		// The primary request of both is a cache hit; mutate_mix's write
		// path follows on a durable copy of the stack.
		hits := p.clients[0]
		for i := range hits {
			rq := viewRequest(hits[i].date, "", false, classFull)
			rq.legal = hits[i].legal[:1]
			if err = s.check(&rq); err != nil {
				return nil, err
			}
			classOf[i] = classFull
			rec.run(spanHandler, i, 0, func() { s.mustHandle(&rq, &err) })
		}
		if err == nil && p.name == mutateMix {
			err = replayWrites(rec, f, p, workDir, len(hits))
		}
	case fragmentCold:
		compiled := map[string]*xpath.Compiled{}
		n := 0
		for _, reqs := range p.clients {
			for i := range reqs {
				rq := &reqs[i]
				classOf[n] = rq.class
				if compiled[rq.path] == nil {
					if compiled[rq.path], err = compilePath(s.fa, rq.path); err != nil {
						return nil, err
					}
				}
				if err = s.replayFragment(rec, n, rq, compiled[rq.path]); err != nil {
					return nil, err
				}
				n++
			}
		}
	}
	if err != nil {
		return nil, err
	}

	out := &replayed{spans: rec.spans, tables: map[string][]layerRow{}}
	primary := func(request int) bool { c, ok := classOf[request]; return ok && c == p.primary }
	out.tables["primary"] = layerTable(rec.spans, primary)
	if p.name == fragmentCold {
		out.tables["wide"] = layerTable(rec.spans, func(r int) bool { return classOf[r] == classWide })
	}
	if p.name == mutateMix {
		out.tables["write_path"] = layerTable(rec.spans, func(r int) bool { _, ok := classOf[r]; return !ok })
	}
	var on []float64
	for _, sp := range rec.spans {
		if sp.Name == spanHandler && primary(sp.Request) {
			on = append(on, ms(sp.dur()))
		}
	}
	out.primaryMs = median(on)
	out.attributedMs = attributedMs(rec.spans, primary)
	out.overhead, err = s.spanOverhead(p)
	return out, err
}

// spanOverhead handles every primary request of the plan once under a
// recorder and once without, alternating which goes first, and returns
// (on − off) / off of the medians.
func (s *stack) spanOverhead(p *plan) (float64, error) {
	var (
		err     error
		on, off []float64
		none    *recorder
		scratch = newRecorder()
	)
	n := 0
	for _, reqs := range p.clients {
		for i := range reqs {
			if reqs[i].class != p.primary {
				continue
			}
			rq := &reqs[i]
			handle := func() { s.mustHandle(rq, &err) }
			var dOn, dOff time.Duration
			if n%2 == 0 {
				_, dOn = scratch.run(spanHandler, n, 0, handle)
				_, dOff = none.run(spanHandler, n, 0, handle)
			} else {
				_, dOff = none.run(spanHandler, n, 0, handle)
				_, dOn = scratch.run(spanHandler, n, 0, handle)
			}
			on, off = append(on, ms(dOn)), append(off, ms(dOff))
			n++
		}
	}
	return ratio(median(on)-median(off), median(off)), err
}

// replayFull handles one full-document miss and then times the mediator
// and the serializer on the same date.
func (s *stack) replayFull(rec *recorder, root string, i int, rq *request) error {
	if err := s.check(rq); err != nil {
		return err
	}
	var err error
	bypass := withNoStore(rq)
	id, _ := rec.run(root, i, 0, func() { s.mustHandle(&bypass, &err) })
	if err != nil {
		return err
	}
	var res *mediator.Result
	evalStart := time.Since(rec.t0)
	evalID, _ := rec.run("mediator.evaluate", i, id, func() { res, err = s.evaluate(rq.date) })
	if err != nil {
		return err
	}
	rec.addPhases(res, i, evalID, evalStart)
	rec.run("xmltree.serialize", i, id, func() { _, err = render(res.Doc) })
	return err
}

// addPhases records the phase times the mediator reports about itself as
// child spans of an evaluation, laid end to end from its start.
func (r *recorder) addPhases(res *mediator.Result, request, evalID int, at time.Duration) {
	for _, ph := range []string{"compile", "optimize", "execute", "tag"} {
		d := time.Duration(res.Report.PhaseSec[ph] * float64(time.Second))
		r.add("mediator."+ph, request, evalID, at, d)
		at += d
	}
}

// withNoStore is the request as a cache bypass: a replayed rebuild must
// evaluate even if an entry happens to be current.
func withNoStore(rq *request) request {
	c := *rq
	c.noStore = true
	return c
}

// replayFragment handles one fragment miss and then runs the partial
// evaluator on the same date and path, with the time it spends in
// relstore for the planner and for data, and in the serializer, as
// children.
func (s *stack) replayFragment(rec *recorder, i int, rq *request, c *xpath.Compiled) error {
	if err := s.check(rq); err != nil {
		return err
	}
	var err error
	id, _ := rec.run(spanHandler, i, 0, func() { s.mustHandle(rq, &err) })
	if err != nil {
		return err
	}
	start := time.Since(rec.t0)
	pr, err := s.evalPartial(c, rq.date)
	if err != nil {
		return err
	}
	evalID := rec.add("aig.eval_partial", i, id, start, pr.total)
	rec.add("relstore.stats", i, evalID, start, pr.stats)
	rec.add("relstore.data", i, evalID, start+pr.stats, pr.data)
	rec.add("xmltree.serialize", i, evalID, start+pr.stats+pr.data, pr.serialize)
	return nil
}

// replayWrites replays mutate_mix's seeded write stream on a stack whose
// sources are durable and writable, as the daemon's are on that
// workload: the write itself, the judgement of every cached binding
// against it, and the rebuild of the date it touched.
func replayWrites(rec *recorder, f *fixture, p *plan, workDir string, firstRequest int) error {
	ws, closeStack, err := newDurableStack(f.cat, filepath.Join(workDir, "replay-state"))
	if err != nil {
		return err
	}
	defer closeStack()
	deps, err := ivm.Extract(ws.sa, ws.reg)
	if err != nil {
		return err
	}
	bindings, err := dateBindings(deps, f.dates)
	if err != nil {
		return err
	}
	visit, err := ws.cat.Table("DB1", "visitInfo")
	if err != nil {
		return err
	}
	for k := range p.writes {
		w := &p.writes[k]
		i := firstRequest + k
		before := visit.Version()
		rec.run("serve.mutate", i, 0, func() { _, err = ws.handle(http.MethodPost, w.query, false, false) })
		if err != nil {
			return err
		}
		cs := visit.ChangesSince(before)
		rec.run("ivm.judge", i, 0, func() {
			for _, b := range bindings {
				deps.Judge("DB1", "visitInfo", cs, b)
			}
		})
		rebuilt := w.poll
		rebuilt.legal = [][]byte{w.expect}
		if err := ws.replayFull(rec, spanRebuild, i, &rebuilt); err != nil {
			return err
		}
	}
	return nil
}

// newDurableStack is newStack with every database journaled under dir
// (flush policy never, aigd's default) and POST /mutate served.
func newDurableStack(base *relstore.Catalog, dir string) (*stack, func(), error) {
	cat := relstore.NewCatalog()
	var persisters []*relstore.Persister
	closeAll := func() {
		for _, p := range persisters {
			p.Close()
		}
	}
	for _, name := range base.DatabaseNames() {
		seed, err := base.Database(name)
		if err != nil {
			return nil, nil, err
		}
		db, p, err := source.OpenDurable(name, source.DurableOptions{Dir: filepath.Join(dir, name), Fsync: relstore.FsyncNever},
			func() (*relstore.Database, error) { return seed.Clone(), nil })
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		persisters = append(persisters, p)
		cat.Add(db)
	}
	s, err := newStackOver(cat, serve.Config{AllowMutate: true})
	if err != nil {
		closeAll()
		return nil, nil, err
	}
	return s, closeAll, nil
}
