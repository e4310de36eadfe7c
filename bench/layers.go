package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"github.com/aigrepro/aig/internal/aig"
	"github.com/aigrepro/aig/internal/aigspec"
	"github.com/aigrepro/aig/internal/datagen"
	"github.com/aigrepro/aig/internal/dtd"
	"github.com/aigrepro/aig/internal/hospital"
	"github.com/aigrepro/aig/internal/ivm"
	"github.com/aigrepro/aig/internal/mediator"
	"github.com/aigrepro/aig/internal/propagate"
	"github.com/aigrepro/aig/internal/relstore"
	"github.com/aigrepro/aig/internal/remote"
	"github.com/aigrepro/aig/internal/serve"
	"github.com/aigrepro/aig/internal/source"
	"github.com/aigrepro/aig/internal/specialize"
	"github.com/aigrepro/aig/internal/sqlmini"
	"github.com/aigrepro/aig/internal/xconstraint"
	"github.com/aigrepro/aig/internal/xmltree"
	"github.com/aigrepro/aig/internal/xpath"
)

// probes measures every layer through its public functions on inputs
// taken from the fixture. budget is the time one repeated measurement may
// take; dates is the sample of report dates the per-document probes use.
// Counts marked ‡ in the README depend only on the seed.
func (s *stack) probes(f *fixture, m map[string]float64, budget time.Duration, outDir string) error {
	dates := append([]string(nil), f.spacedDates(10)...)
	sort.Strings(dates) // calendar order: the probes measure the same thing on every seed
	for _, probe := range []func(*fixture, map[string]float64, time.Duration, []string) error{
		s.probeServe, s.probeFullPath, s.probeSpecialize, s.probeSqlmini, s.probeAig,
		s.probeXpath, s.probeIvm, s.probeSetupLayers, s.probeRemote,
	} {
		if err := probe(f, m, budget, dates); err != nil {
			return err
		}
	}
	if err := s.probeRelstore(f, m, budget, outDir); err != nil {
		return err
	}
	return nil
}

func medianMs(ds []time.Duration) float64 { return median(durationsMs(ds)) }

func (s *stack) probeServe(f *fixture, m map[string]float64, budget time.Duration, dates []string) error {
	m["serve.add_view_ms"] = ms(timeOp(budget, 3, func() { newServer(s.reg, serve.Config{}) }))

	var err error
	timeAll := func(reqs []request) float64 {
		ds := make([]time.Duration, len(reqs))
		for i := range reqs {
			if cerr := s.check(&reqs[i]); cerr != nil && err == nil {
				err = cerr
			}
			t0 := time.Now()
			s.mustHandle(&reqs[i], &err)
			ds[i] = time.Since(t0)
		}
		return medianMs(ds)
	}
	narrowPaths, widePaths := fragmentShapes()
	narrow, ferr := fragmentRequests(f, dates[:4], narrowPaths, classNarrow)
	if ferr != nil {
		return ferr
	}
	m["serve.frag_narrow_miss_ms"] = timeAll(narrow)
	wide, ferr := fragmentRequests(f, dates[:4], widePaths, classWide)
	if ferr != nil {
		return ferr
	}
	m["serve.frag_wide_miss_ms"] = timeAll(wide)

	hits, ferr := fullRequests(f, f.dates, false)
	if ferr != nil {
		return ferr
	}
	for i := range hits {
		if cerr := s.check(&hits[i]); cerr != nil {
			return cerr
		}
	}
	i := 0
	m["serve.hit_us"] = us(timeOp(budget, 100, func() {
		s.mustHandle(&hits[i%len(hits)], &err)
		i++
	}))
	return err
}

// probeFullPath takes a full-document miss apart, date by date: the
// serve handler, then on the same date the mediator, the serializer, the
// parser and the two verifiers, so that serve's self time is a difference
// of calls made moments apart on identical inputs.
func (s *stack) probeFullPath(f *fixture, m map[string]float64, budget time.Duration, dates []string) error {
	full, err := fullRequests(f, dates, true)
	if err != nil {
		return err
	}
	if _, err := s.evaluate(dates[0]); err != nil { // learn the unfolding depth, as the view's first request does
		return err
	}
	var miss, wall, ser, parse, check, validate []time.Duration
	var self, busy []float64
	phases := map[string][]float64{}
	var bytes, nodes int
	var serTotal time.Duration
	for _, name := range []string{"mediator.source_queries", "mediator.merged_groups", "mediator.graph_nodes", "mediator.shipped_bytes", "mediator.sim_response_s"} {
		m[name] = 0
	}
	for i, date := range dates {
		if err := s.check(&full[i]); err != nil {
			return err
		}
		// Handler first on even dates, mediator first on odd ones, so that
		// whatever the first call leaves behind (garbage, warm caches) does
		// not always land on the same side of the difference.
		handle := func() {
			t0 := time.Now()
			s.mustHandle(&full[i], &err)
			miss = append(miss, time.Since(t0))
		}
		if i%2 == 0 {
			handle()
		}
		t0 := time.Now()
		res, eerr := s.evaluate(date)
		if eerr != nil {
			return eerr
		}
		wall = append(wall, time.Since(t0))
		if i%2 == 1 {
			handle()
		}
		if err != nil {
			return err
		}
		for _, ph := range []string{"compile", "optimize", "execute", "tag"} {
			phases[ph] = append(phases[ph], res.Report.PhaseSec[ph]*1e3)
		}
		var b float64
		for _, sec := range res.Report.PerSourceBusySec {
			b += sec
		}
		busy = append(busy, b*1e3)
		m["mediator.source_queries"] += float64(res.Report.SourceQueryCount)
		m["mediator.merged_groups"] += float64(res.Report.MergedGroups)
		m["mediator.graph_nodes"] += float64(res.Report.NodeCount)
		m["mediator.shipped_bytes"] += float64(res.Report.ShippedBytes)
		m["mediator.sim_response_s"] += res.Report.ResponseTimeSec

		var sb strings.Builder
		t0 = time.Now()
		if err := res.Doc.WriteIndented(&sb); err != nil {
			return err
		}
		ser = append(ser, time.Since(t0))
		serTotal += ser[i]
		bytes += sb.Len()
		nodes += res.Doc.CountNodes()
		self = append(self, ms(miss[i]-wall[i]-ser[i]))

		t0 = time.Now()
		if _, err := xmltree.ParseString(sb.String()); err != nil {
			return err
		}
		parse = append(parse, time.Since(t0))
		t0 = time.Now()
		if v := xconstraint.CheckAll(s.spec.Constraints, res.Doc); len(v) != 0 {
			return fmt.Errorf("document of %s violates a constraint: %v", date, v[0])
		}
		check = append(check, time.Since(t0))
		t0 = time.Now()
		if err := dtd.Conforms(s.spec.DTD, res.Doc); err != nil {
			return err
		}
		validate = append(validate, time.Since(t0))
	}
	m["serve.miss_ms"] = medianMs(miss)
	m["serve.self_ms"] = median(self)
	m["mediator.evaluate_ms"] = medianMs(wall)
	for ph, v := range phases {
		m["mediator."+ph+"_ms"] = median(v)
	}
	m["mediator.source_busy_ms"] = median(busy)
	m["xmltree.serialize_ms"] = medianMs(ser)
	m["xmltree.serialize_mb_per_s"] = float64(bytes) / 1e6 / serTotal.Seconds()
	m["xmltree.parse_ms"] = medianMs(parse)
	m["xmltree.nodes"] = float64(nodes)
	m["xconstraint.check_ms"] = medianMs(check)
	m["dtd.validate_ms"] = medianMs(validate)
	return nil
}

// probeSmall is the paper scale, Table 1 "small", date d001. First the
// Fig. 10 cell: evaluation at fixed unfolding level 4, first and fourth
// time, and the merge ratio on the virtual clock. Then what a client of
// the daemon gets: four renders of the full-depth document through the
// serve handler, the fourth taken apart into its layers.
func probeSmall(size datagen.Size, m map[string]float64) ([]layerRow, error) {
	s, err := newStack(datagen.Generate(size, catalogSeed))
	if err != nil {
		return nil, err
	}
	defer s.srv.Close()
	date := datagen.Date(0)
	unf, err := specialize.Unfold(s.sa, unfoldDepth)
	if err != nil {
		return nil, err
	}
	inh := hospital.RootInh(unf, date)
	var merged *mediator.Result
	for i := 1; i <= 4; i++ {
		t0 := time.Now()
		if merged, err = s.med.Evaluate(unf, inh); err != nil {
			return nil, err
		}
		switch i {
		case 1:
			m["mediator.small_l4_first_s"] = time.Since(t0).Seconds()
		case 4:
			m["mediator.small_l4_evaluate_s"] = time.Since(t0).Seconds()
		}
	}
	opts := mediator.DefaultOptions()
	opts.Merge = false
	unmerged, err := mediator.New(s.reg, opts).Evaluate(unf, inh)
	if err != nil {
		return nil, err
	}
	m["mediator.small_l4_merge_ratio"] = ratio(unmerged.Report.ResponseTimeSec, merged.Report.ResponseTimeSec)

	rec := newRecorder()
	rq := viewRequest(date, "", true, classFull)
	var last int
	var w *sink
	for i := 1; i <= 4; i++ {
		id, d := rec.run(fmt.Sprintf("serve.handler render %d", i), i, 0, func() {
			w, err = s.handle(http.MethodGet, rq.url, true, false)
		})
		if err != nil {
			return nil, err
		}
		switch i {
		case 1:
			m["serve.small_render_first_s"] = d.Seconds()
		case 4:
			m["serve.small_render_fourth_s"] = d.Seconds()
		}
		last = id
	}
	// The fourth render's layers, timed as a fifth pass over the same date.
	// The view has learned its unfolding depth by now; start where it does.
	if _, err := fmt.Sscan(w.header.Get("X-Aig-Unfold-Depth"), &s.estDepth); err != nil {
		return nil, fmt.Errorf("reading X-Aig-Unfold-Depth: %w", err)
	}
	var res *mediator.Result
	evalStart := time.Since(rec.t0)
	evalID, _ := rec.run("mediator.evaluate", 4, last, func() { res, err = s.evaluate(date) })
	if err != nil {
		return nil, err
	}
	rec.addPhases(res, 4, evalID, evalStart)
	var body []byte
	_, d := rec.run("xmltree.serialize", 4, last, func() { body, err = render(res.Doc) })
	if err != nil {
		return nil, err
	}
	m["xmltree.small_serialize_mb_per_s"] = float64(len(body)) / 1e6 / d.Seconds()
	return layerTable(rec.spans, func(int) bool { return true }), nil
}

func (s *stack) probeSpecialize(f *fixture, m map[string]float64, budget time.Duration, dates []string) error {
	var err error
	keep := func(_ *aig.AIG, e error) {
		if e != nil && err == nil {
			err = e
		}
	}
	opts := mediator.DefaultOptions().PlanOpts
	guarded, gerr := specialize.CompileConstraints(s.spec)
	if gerr != nil {
		return gerr
	}
	m["specialize.compile_constraints_ms"] = ms(timeOp(budget, 3, func() { keep(specialize.CompileConstraints(s.spec)) }))
	m["specialize.decompose_ms"] = ms(timeOp(budget, 3, func() { keep(specialize.DecomposeQueries(guarded, s.reg, s.reg, opts)) }))
	m["specialize.unfold_ms"] = ms(timeOp(budget, 3, func() { keep(specialize.Unfold(s.sa, unfoldDepth)) }))
	return err
}

// sampleBinding builds the value of one query parameter from a visit of
// the first report date: scalars by column name, the set parameter of
// the bill query as that date's treatment ids.
func (s *stack) sampleBinding(f *fixture, schema relstore.Schema, set bool) (sqlmini.Binding, error) {
	date := datagen.Date(0)
	visit, err := s.cat.Table("DB1", "visitInfo")
	if err != nil {
		return sqlmini.Binding{}, err
	}
	patient, err := s.cat.Table("DB1", "patient")
	if err != nil {
		return sqlmini.Binding{}, err
	}
	var rows []map[string]relstore.Value
	for _, v := range visit.Rows() {
		if !v[2].Equal(relstore.String(date)) {
			continue
		}
		vals := map[string]relstore.Value{"SSN": v[0], "trId": v[1], "date": v[2]}
		for _, p := range patient.Rows() {
			if p[0].Equal(v[0]) {
				vals["pname"], vals["policy"] = p[1], p[2]
			}
		}
		rows = append(rows, vals)
		if !set {
			break
		}
	}
	if len(rows) == 0 {
		return sqlmini.Binding{}, fmt.Errorf("no visit on %s to bind query parameters from", date)
	}
	b := sqlmini.Binding{Schema: schema}
	for _, vals := range rows {
		row := make(relstore.Tuple, len(schema))
		for i, col := range schema {
			v, ok := vals[col.Name]
			if !ok {
				return sqlmini.Binding{}, fmt.Errorf("no sample value for query parameter column %q", col.Name)
			}
			row[i] = v
		}
		b.Rows = append(b.Rows, row)
	}
	return b, nil
}

// probeSqlmini times parse, plan and execution of each query of the spec
// as written, with its parameters bound, the way the conceptual and the
// partial evaluator run them: planned again on every call.
func (s *stack) probeSqlmini(f *fixture, m map[string]float64, budget time.Duration, dates []string) error {
	schemas, data, stats := sqlmini.CatalogSchemas{Catalog: s.cat}, sqlmini.CatalogData{Catalog: s.cat}, sqlmini.CatalogStats{Catalog: s.cat}
	opts := mediator.DefaultOptions().PlanOpts
	var parse, plan, exec []float64
	m["sqlmini.rows_out"] = 0
	each := budget / 4
	for _, eq := range s.spec.Queries() {
		rule := s.spec.Rule(eq.Elem)
		if rule == nil || rule.Inh[eq.Child] == nil {
			return fmt.Errorf("query of %s/%s has no inherited-attribute rule", eq.Elem, eq.Child)
		}
		srcs := rule.Inh[eq.Child].QueryParams
		ps, err := specialize.ParamSchemasFor(s.spec, srcs, eq.Query)
		if err != nil {
			return err
		}
		params := make(sqlmini.Params, len(ps))
		for name, schema := range ps {
			src := srcs[name]
			decl := s.spec.InhDecl(src.Elem)
			if src.Side == aig.SynSide {
				decl = s.spec.SynDecl(src.Elem)
			}
			member, _ := decl.Member(src.Member)
			set := src.Member != "" && member.Kind != aig.Scalar
			if params[name], err = s.sampleBinding(f, schema, set); err != nil {
				return err
			}
		}
		text := eq.Query.String()
		var perr error
		parse = append(parse, us(timeOp(each, 5, func() { _, perr = sqlmini.Parse(text) })))
		if perr != nil {
			return fmt.Errorf("re-parsing %q: %w", text, perr)
		}
		var p *sqlmini.Plan
		plan = append(plan, us(timeOp(each, 5, func() { p, perr = sqlmini.PlanAndEstimate(eq.Query, schemas, ps, stats, opts) })))
		if perr != nil {
			return perr
		}
		var out *relstore.Table
		exec = append(exec, ms(timeOp(each, 5, func() { out, perr = sqlmini.Exec("q", p, data, params) })))
		if perr != nil {
			return perr
		}
		m["sqlmini.rows_out"] += float64(out.Len())
	}
	sum := func(v []float64) (t float64) {
		for _, x := range v {
			t += x
		}
		return
	}
	m["sqlmini.parse_us"] = sum(parse)
	m["sqlmini.plan_us"] = sum(plan)
	m["sqlmini.exec_ms"] = sum(exec)
	m["sqlmini.plan_share"] = ratio(m["sqlmini.plan_us"]/1e3, m["sqlmini.plan_us"]/1e3+m["sqlmini.exec_ms"])
	return nil
}

// probeAig times the two tuple-at-a-time walkers, and the mediator on the
// dates the wide partial evaluation ran on, so that their ratio compares
// like with like.
func (s *stack) probeAig(f *fixture, m map[string]float64, budget time.Duration, dates []string) error {
	dates = dates[:4]
	var conceptual, mediated []time.Duration
	for _, date := range dates {
		t0 := time.Now()
		if _, err := evalConceptual(s.spec, s.cat, date); err != nil {
			return err
		}
		conceptual = append(conceptual, time.Since(t0))
		t0 = time.Now()
		if _, err := s.evaluate(date); err != nil {
			return err
		}
		mediated = append(mediated, time.Since(t0))
	}
	m["aig.eval_conceptual_ms"] = medianMs(conceptual)

	narrowPaths, widePaths := fragmentShapes()
	for _, shape := range []struct {
		metric string
		paths  []string
	}{{"aig.eval_partial_narrow_ms", narrowPaths}, {"aig.eval_partial_wide_ms", widePaths}} {
		var ds []time.Duration
		for _, path := range shape.paths {
			c, err := compilePath(s.fa, path)
			if err != nil {
				return err
			}
			for _, date := range dates {
				pr, err := s.evalPartial(c, date)
				if err != nil {
					return err
				}
				ds = append(ds, pr.total)
			}
		}
		m[shape.metric] = medianMs(ds)
	}
	m["aig.partial_wide_over_full"] = ratio(m["aig.eval_partial_wide_ms"], medianMs(mediated))
	return nil
}

func (s *stack) probeXpath(f *fixture, m map[string]float64, budget time.Duration, dates []string) error {
	_, widePaths := fragmentShapes()
	path := widePaths[1]
	var err error
	var p *xpath.Path
	m["xpath.parse_us"] = us(timeOp(budget/4, 20, func() { p, err = xpath.Parse(path) }))
	if err != nil {
		return err
	}
	m["xpath.compile_us"] = us(timeOp(budget/4, 20, func() { _, err = xpath.Compile(s.fa, p) }))
	if err != nil {
		return err
	}
	doc, err := f.doc(dates[0])
	if err != nil {
		return err
	}
	m["xpath.select_ms"] = ms(timeOp(budget/4, 5, func() { xpath.Select(doc, p) }))
	return nil
}

// judgeInputs is the seeded mutate_mix write stream as ivm.Judge sees
// it: one inserted visitInfo row per written date.
func judgeInputs(f *fixture) []relstore.ChangeSet {
	r := f.rng(1)
	var out []relstore.ChangeSet
	for i, date := range f.dates {
		row := relstore.Tuple{
			relstore.String(fmt.Sprintf("s%06d", r.Intn(f.size.Patient))),
			relstore.String(fmt.Sprintf("t%04d", r.Intn(f.size.Treatment))),
			relstore.String(date),
		}
		v := uint64(i + 1)
		out = append(out, relstore.ChangeSet{Table: "visitInfo", Since: v, Now: v + 1,
			Changes: []relstore.Change{{Ver: v + 1, Op: relstore.ChangeInsert, Row: row}}})
	}
	return out
}

// dateBindings is the root parameter binding of every cached entry the
// workloads keep: one per report date.
func dateBindings(deps *ivm.Deps, dates []string) ([]map[string]relstore.Value, error) {
	bindings := make([]map[string]relstore.Value, len(dates))
	for i, date := range dates {
		var err error
		if bindings[i], err = deps.ParseParams(map[string]string{"date": date}); err != nil {
			return nil, err
		}
	}
	return bindings, nil
}

func (s *stack) probeIvm(f *fixture, m map[string]float64, budget time.Duration, dates []string) error {
	var deps *ivm.Deps
	var err error
	m["ivm.extract_ms"] = ms(timeOp(budget, 3, func() { deps, err = ivm.Extract(s.sa, s.reg) }))
	if err != nil {
		return err
	}
	bindings, err := dateBindings(deps, f.dates)
	if err != nil {
		return err
	}
	var ds []float64
	unaffected, total := 0, 0
	for _, cs := range judgeInputs(f) {
		for _, b := range bindings {
			t0 := time.Now()
			v := deps.Judge("DB1", "visitInfo", cs, b)
			ds = append(ds, float64(time.Since(t0)))
			total++
			if v == ivm.Unaffected {
				unaffected++
			}
		}
	}
	m["ivm.judge_us"] = median(ds) / 1e3
	m["ivm.judge_unaffected_ratio"] = ratio(float64(unaffected), float64(total))
	return nil
}

func (s *stack) probeSetupLayers(f *fixture, m map[string]float64, budget time.Duration, dates []string) error {
	var err error
	m["aigspec.parse_ms"] = ms(timeOp(budget, 3, func() { _, err = aigspec.Parse(hospital.SpecText) }))
	if err != nil {
		return err
	}
	m["propagate.certify_ms"] = ms(timeOp(budget, 3, func() { propagate.Certify(s.spec) }))
	return nil
}

// probeRemote measures what the TCP source protocol adds to one query
// and one change-log read: a loopback remote.Server and Client against
// the same calls on source.Local.
func (s *stack) probeRemote(f *fixture, m map[string]float64, budget time.Duration, dates []string) error {
	db, err := s.cat.Database("DB4")
	if err != nil {
		return err
	}
	server := remote.NewServer(db)
	addr, err := server.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer server.Close()
	client, err := remote.Dial("DB4", addr)
	if err != nil {
		return err
	}
	defer client.Close()
	local := source.NewLocal(db)

	q, err := sqlmini.Parse("select t.trId, t.tname from DB4:treatment t where t.trId = 't0001'")
	if err != nil {
		return err
	}
	ctx := context.Background()
	opts := mediator.DefaultOptions().PlanOpts
	exec := func(src source.Source) time.Duration {
		return timeOp(budget/4, 20, func() {
			if _, _, e := src.Exec(ctx, "q", q, nil, opts); e != nil && err == nil {
				err = e
			}
		})
	}
	changes := func(src source.Source) time.Duration {
		return timeOp(budget/4, 20, func() {
			if _, e := src.ChangesSince("treatment", 0); e != nil && err == nil {
				err = e
			}
		})
	}
	m["remote.exec_roundtrip_us"] = us(exec(client) - exec(local))
	m["remote.changes_since_us"] = us(changes(client) - changes(local))
	return err
}

// probeRelstore measures the storage layer on the visitInfo table: the
// planner's statistics call, an index probe, inserts bare and journaled
// under both flush policies, snapshot, recovery and a change-log read.
func (s *stack) probeRelstore(f *fixture, m map[string]float64, budget time.Duration, outDir string) error {
	visit, err := s.cat.Table("DB1", "visitInfo")
	if err != nil {
		return err
	}
	col := 0
	m["relstore.distinct_count_us"] = us(timeOp(budget, 10, func() {
		visit.DistinctCount(col % len(visit.Schema()))
		col++
	}))
	keys := visit.Rows()
	k := 0
	visit.Lookup([]int{0}, keys[0][:1])
	const batch = 1000
	m["relstore.lookup_ns"] = float64(timeOp(budget, 10, func() {
		for i := 0; i < batch; i++ {
			visit.Lookup([]int{0}, keys[k%len(keys)][:1])
			k++
		}
	})) / batch

	row := func(i int) relstore.Tuple {
		return relstore.Tuple{relstore.String(fmt.Sprintf("w%06d", i)), relstore.String("t0001"), relstore.String("d001")}
	}
	insertAll := func(t *relstore.Table, n int) (time.Duration, int, error) {
		userBytes := 0
		t0 := time.Now()
		for i := 0; i < n; i++ {
			r := row(i)
			if err := t.Insert(r); err != nil {
				return 0, 0, err
			}
			userBytes += r.ByteSize()
		}
		return time.Since(t0) / time.Duration(n), userBytes, nil
	}
	db1, err := s.cat.Database("DB1")
	if err != nil {
		return err
	}
	bare, err := db1.Clone().Table("visitInfo")
	if err != nil {
		return err
	}
	const inserts = 1000
	per, _, err := insertAll(bare, inserts)
	if err != nil {
		return err
	}
	m["relstore.insert_us"] = us(per)
	// The change log holds the last DefaultChangeLogLimit deltas; ask for
	// a window it still covers.
	since := bare.Version() - 100
	m["relstore.changes_since_us"] = us(timeOp(budget, 10, func() { bare.ChangesSince(since) }))

	for _, mode := range []struct {
		metric string
		fsync  relstore.FsyncMode
		n      int
	}{{"relstore.wal_insert_never_us", relstore.FsyncNever, inserts}, {"relstore.wal_insert_always_us", relstore.FsyncAlways, 50}} {
		dir, err := os.MkdirTemp(outDir, "wal-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		opts := relstore.PersistOptions{Dir: dir, Fsync: mode.fsync, SnapshotEvery: -1}
		db := db1.Clone()
		p, err := db.Persist(opts)
		if err != nil {
			return err
		}
		t, err := db.Table("visitInfo")
		if err != nil {
			return err
		}
		walBefore := fileSize(filepath.Join(dir, relstore.WALFile))
		per, userBytes, err := insertAll(t, mode.n)
		if err != nil {
			return err
		}
		m[mode.metric] = us(per)
		if mode.fsync != relstore.FsyncNever {
			if err := p.Close(); err != nil {
				return err
			}
			continue
		}
		if err := p.Sync(); err != nil {
			return err
		}
		m["relstore.wal_bytes_per_user_byte"] = ratio(float64(fileSize(filepath.Join(dir, relstore.WALFile))-walBefore), float64(userBytes))

		// Recovery replays what a crash would leave: the seed snapshot plus
		// the WAL tail of the inserts above, with no closing snapshot.
		t0 := time.Now()
		rdb, rp, err := relstore.Recover("DB1", opts)
		if err != nil {
			return err
		}
		m["relstore.recover_ms"] = ms(time.Since(t0))
		rt, err := rdb.Table("visitInfo")
		if err != nil {
			return err
		}
		if rt.Len() != t.Len() {
			return fmt.Errorf("recovery restored %d visitInfo rows, want %d", rt.Len(), t.Len())
		}
		if err := rp.Close(); err != nil {
			return err
		}
		m["relstore.snapshot_ms"] = ms(timeOp(budget, 3, func() {
			if e := p.Snapshot(); e != nil && err == nil {
				err = e
			}
		}))
		if err != nil {
			return err
		}
		if err := p.Close(); err != nil {
			return err
		}
	}
	return nil
}

func fileSize(path string) int64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return st.Size()
}
