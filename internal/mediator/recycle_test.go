package mediator

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/aigrepro/aig/internal/aig"
	"github.com/aigrepro/aig/internal/datagen"
	"github.com/aigrepro/aig/internal/hospital"
	"github.com/aigrepro/aig/internal/relstore"
	"github.com/aigrepro/aig/internal/source"
	"github.com/aigrepro/aig/internal/sqlmini"
	"github.com/aigrepro/aig/internal/xmltree"
	"github.com/aigrepro/aig/internal/xpath"
)

// TestRecycledRunsMatchFresh is the recycling oracle. One mediator
// settles and emits the 30 bench250 dates in a seeded permuted order and
// releases every run, so each evaluation after a plan's first runs in
// the working memory another date left behind. Every emission must be
// byte-identical to one from a run that nothing was recycled into: a
// reference mediator that never releases. Four kinds of run go through
// it: the served document; the fully guarded grammar, whose guards read
// the recycled dedup; the pruned plan of a wide fragment; and the
// document settled from depth 2, whose depth-2 and depth-4 runs Settle
// itself releases once a deeper unfolding supersedes them (its
// reference is the served document's, as a deeper unfolding changes no
// document). Then two goroutines share the mediator, so two runs of one
// plan recycle concurrently.
func TestRecycledRunsMatchFresh(t *testing.T) {
	reg, sa := bench250View(t, false)
	_, guarded := bench250View(t, true)
	p, v := fragmentVerdict(t, sa, "/report/patient/bill")
	kinds := []struct {
		name, ref string // ref: the kind whose reference bytes it must match
		emit      func(m *Mediator, d int, w io.Writer) (*Run, error)
	}{
		{"document", "document", func(m *Mediator, d int, w io.Writer) (*Run, error) { return settleWrite(m, sa, 8, d, w) }},
		{"guarded", "guarded", func(m *Mediator, d int, w io.Writer) (*Run, error) { return settleWrite(m, guarded, 8, d, w) }},
		{"fragment", "fragment", func(m *Mediator, d int, w io.Writer) (*Run, error) {
			r, _, err := m.Settle(context.Background(), sa, hospital.RootInh(sa, datagen.Date(d)), 8, 64, v)
			if err != nil {
				return nil, err
			}
			s := xpath.NewStream(p, w)
			if err := r.Tag(s); err != nil {
				return nil, err
			}
			return r, s.Err()
		}},
		{"deepening", "document", func(m *Mediator, d int, w io.Writer) (*Run, error) { return settleWrite(m, sa, 2, d, w) }},
	}
	ref := New(reg, DefaultOptions())
	want := make(map[string][]byte)
	for _, k := range kinds[:3] {
		for d := 0; d < bench250.Dates; d++ {
			var buf bytes.Buffer
			if _, err := k.emit(ref, d, &buf); err != nil {
				t.Fatalf("%s, date %d: %v", k.name, d, err)
			}
			want[fmt.Sprint(k.name, d)] = buf.Bytes()
		}
	}

	m := New(reg, DefaultOptions())
	check := func(kind int, d int) error {
		k := kinds[kind]
		var buf bytes.Buffer
		r, err := k.emit(m, d, &buf)
		if err != nil {
			return fmt.Errorf("%s, date %d: %v", k.name, d, err)
		}
		r.Release()
		if w := want[fmt.Sprint(k.ref, d)]; !bytes.Equal(buf.Bytes(), w) {
			return fmt.Errorf("%s, date %d: %d bytes from a recycled run differ from the fresh run's %d bytes", k.name, d, buf.Len(), len(w))
		}
		return nil
	}
	order := rand.New(rand.NewPCG(48, 7)).Perm(bench250.Dates)
	for kind := range kinds {
		for _, d := range order {
			if err := check(kind, d); err != nil {
				t.Fatal(err)
			}
		}
	}

	var wg sync.WaitGroup
	errs := make([]error, 2)
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, d := range order {
				if i%2 == w {
					if errs[w] = check(i%len(kinds), d); errs[w] != nil {
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// settleWrite settles grammar a for date d from unfolding depth est and
// writes the document to w.
func settleWrite(m *Mediator, a *aig.AIG, est, d int, w io.Writer) (*Run, error) {
	r, _, err := m.Settle(context.Background(), a, hospital.RootInh(a, datagen.Date(d)), est, 64, nil)
	if err != nil {
		return nil, err
	}
	_, err = r.WriteTo(w)
	return r, err
}

// TestReleasedRunFailsLoudly holds a released run to its contract: every
// use of it panics, a second Release too, and its Report stays readable.
func TestReleasedRunFailsLoudly(t *testing.T) {
	reg, sa := bench250View(t, false)
	m := New(reg, DefaultOptions())
	r, err := settleWrite(m, sa, 8, 0, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	r.Release()
	if r.Report.NodeCount == 0 {
		t.Error("the released run's Report is empty")
	}
	for name, use := range map[string]func(){
		"WriteTo": func() { r.WriteTo(io.Discard) },
		"Tag":     func() { r.Tag(&xmltree.Builder{}) },
		"Tree":    func() { r.Tree() },
		"Scans":   func() { r.Scans() },
		"Release": func() { r.Release() },
	} {
		func() {
			defer func() {
				if p := recover(); p == nil || !strings.Contains(fmt.Sprint(p), "released Run") {
					t.Errorf("%s on a released run: recovered %v, want the released-Run panic", name, p)
				}
			}()
			use()
		}()
	}
}

// TestReleasedExecHoldsNothing walks every exec the plans keep after
// each release — its contexts' tables and builders, its parameter
// tables, its parts' scratches — and requires every relstore.Value and
// relstore.Tuple in them zero over its array's whole capacity: a
// recycled exec keeps nothing of its runs alive, though release clears
// only up to what each run wrote. The same four kinds of run as
// TestRecycledRunsMatchFresh go through it, over all 30 dates in a
// seeded order, so a date's run follows larger and smaller ones; then
// the random grammars of the Explain goldens, whose rule forms (star
// copies among them) the hospital view does not use.
func TestReleasedExecHoldsNothing(t *testing.T) {
	reg, sa := bench250View(t, false)
	_, guarded := bench250View(t, true)
	p, v := fragmentVerdict(t, sa, "/report/patient/bill")
	m := New(reg, DefaultOptions())
	runs := []func(d int) (*Run, error){
		func(d int) (*Run, error) { return settleWrite(m, sa, 8, d, io.Discard) },
		func(d int) (*Run, error) { return settleWrite(m, guarded, 8, d, io.Discard) },
		func(d int) (*Run, error) { return settleFragment(m, sa, p, v, d, io.Discard) },
		func(d int) (*Run, error) { return settleWrite(m, sa, 2, d, io.Discard) },
	}
	walked := 0
	for _, d := range rand.New(rand.NewPCG(50, 1)).Perm(bench250.Dates) {
		for k, run := range runs {
			r, err := run(d)
			if err != nil {
				t.Fatalf("kind %d, date %d: %v", k, d, err)
			}
			if r.x != nil {
				r.Release()
			}
			for _, e := range m.plans.entries {
				for _, x := range e.p.free {
					if err := execHolds(x); err != nil {
						t.Fatalf("kind %d, date %d: a released exec of plan %+v holds %v", k, d, e.key, err)
					}
					walked++
				}
			}
		}
	}
	for seed := int64(1); seed <= randomSeeds; seed++ {
		inst, a, reg := randomInstance(t, seed)
		m := New(reg, DefaultOptions())
		r, _, err := m.Settle(context.Background(), a, inst.RootInh, 0, 0, nil)
		if err != nil {
			continue // a guard abort or a failing rule; nothing is released
		}
		if _, err := r.WriteTo(io.Discard); err != nil {
			t.Fatalf("randaig seed %d: %v", seed, err)
		}
		x := r.x
		r.Release()
		if err := execHolds(x); err != nil {
			t.Fatalf("randaig seed %d: the released exec holds %v", seed, err)
		}
		walked++
	}
	if walked == 0 {
		t.Fatal("no released exec to walk")
	}
}

var (
	valueType = reflect.TypeFor[relstore.Value]()
	tupleType = reflect.TypeFor[relstore.Tuple]()
)

// execHolds returns an error naming the first relstore.Value or
// relstore.Tuple that the released exec x still holds in its own
// memory: its fields and arrays, over each array's capacity, but not
// what its pointers point to. The store's table pointers must be nil.
func execHolds(x *exec) error {
	for i := range x.st {
		if x.st[i].Load() != nil {
			return fmt.Errorf("the table of context %d", i)
		}
	}
	holds := map[reflect.Type]bool{}
	var canHold func(t reflect.Type) bool
	canHold = func(t reflect.Type) bool {
		if h, ok := holds[t]; ok {
			return h
		}
		holds[t] = false // breaks cycles
		h := false
		switch t.Kind() {
		case reflect.Struct:
			h = t == valueType
			for i := 0; i < t.NumField() && !h; i++ {
				h = canHold(t.Field(i).Type)
			}
		case reflect.Slice, reflect.Array:
			h = canHold(t.Elem())
		case reflect.Map:
			h = canHold(t.Key()) || canHold(t.Elem())
		}
		holds[t] = h
		return h
	}
	// walk returns the path, from v, of the first value v holds; the path
	// is built only for that one.
	var walk func(v reflect.Value) (string, bool)
	walk = func(v reflect.Value) (string, bool) {
		if !canHold(v.Type()) {
			return "", false
		}
		switch {
		case v.Type() == valueType || v.Type() == tupleType:
			return "", !v.IsZero()
		case v.Kind() == reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				if path, ok := walk(v.Field(i)); ok {
					return "." + v.Type().Field(i).Name + path, true
				}
			}
		case v.Kind() == reflect.Slice || v.Kind() == reflect.Array:
			if v.Kind() == reflect.Slice {
				v = v.Slice(0, v.Cap())
			}
			for i := 0; i < v.Len(); i++ {
				if path, ok := walk(v.Index(i)); ok {
					return fmt.Sprintf("[%d]%s", i, path), true
				}
			}
		case v.Kind() == reflect.Map:
			if v.Len() > 0 {
				return fmt.Sprintf(" (%d map entries)", v.Len()), true
			}
		}
		return "", false
	}
	if path, ok := walk(reflect.ValueOf(x).Elem()); ok {
		return errors.New("exec" + path)
	}
	return nil
}

// TestFreeListOutlivesGC holds a plan's free list to its two promises:
// an exec a run released is the plan's next run's, garbage collections
// in between notwithstanding, and the list keeps the execs of as many
// runs as were live at once, more than GOMAXPROCS included, and no more:
// as many runs live at once again make no new exec.
func TestFreeListOutlivesGC(t *testing.T) {
	reg, sa := bench250View(t, false)
	m := New(reg, DefaultOptions())
	r, err := settleWrite(m, sa, 8, 0, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	x := r.x
	r.Release()
	runtime.GC()
	runtime.GC()
	r, err = settleWrite(m, sa, 8, 1, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if r.x != x {
		t.Error("the run after a release and two collections did not reuse the released exec")
	}
	live := runtime.GOMAXPROCS(0) + 2
	hold := func(held []*Run) (map[*exec]bool, []*Run) {
		execs := make(map[*exec]bool)
		for d := 2; len(held) < live; d++ {
			r, err := settleWrite(m, sa, 8, d, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			held = append(held, r)
		}
		for _, r := range held {
			execs[r.x] = true
			r.Release()
		}
		return execs, held[:0]
	}
	first, held := hold([]*Run{r})
	if n := len(x.free); n != live {
		t.Errorf("%d runs released at once left %d execs on the free list, want %d", live, n, live)
	}
	again, _ := hold(held)
	for x := range again {
		if !first[x] {
			t.Errorf("%d runs live at once, after as many were released, made a new exec", live)
			break
		}
	}
	if n := len(x.free); n != live {
		t.Errorf("the free list holds %d execs after a second round of %d runs, want %d", n, live, live)
	}
}

// TestEveryPartRunsOncePerRun guards what lets a part's result live in
// the part's scratch until the run is released: no part executes twice
// in one run, truncation probes included. Structurally, every query
// part of a plan — each scheduled node's, each probe step's — has an
// index of its own and each node is scheduled once; this holds for the
// bench250 view's document, guarded and fragment plans at depths 2 to
// 8, and for the random grammars of the Explain goldens. At run time, a
// source sees each part's scratch once per settled evaluation.
func TestEveryPartRunsOncePerRun(t *testing.T) {
	ctx := context.Background()
	requireOnce := func(what string, m *Mediator, a *aig.AIG, depth int, keep Verdict) {
		t.Helper()
		p, _, _, err := m.prepare(ctx, a, depth, keep, nil, nil)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if err := partsOnce(p); err != nil {
			t.Errorf("%s: %v", what, err)
		}
	}
	reg, sa := bench250View(t, false)
	_, guarded := bench250View(t, true)
	_, v := fragmentVerdict(t, sa, "/report/patient/bill")
	m := New(reg, DefaultOptions())
	for _, depth := range []int{2, 4, 8} {
		requireOnce(fmt.Sprint("document at depth ", depth), m, sa, depth, nil)
		requireOnce(fmt.Sprint("guarded at depth ", depth), m, guarded, depth, nil)
		requireOnce(fmt.Sprint("fragment at depth ", depth), m, sa, depth, v)
	}
	for seed := int64(1); seed <= randomSeeds; seed++ {
		a, reg := randomGrammar(t, seed)
		requireOnce(fmt.Sprint("randaig seed ", seed), New(reg, DefaultOptions()), a, 0, nil)
	}

	seen := &scratchSeen{m: map[*sqlmini.Scratch]bool{}}
	watched := source.NewRegistry()
	for _, name := range reg.Names() {
		src, err := reg.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		watched.Add(scratchWatch{src, seen})
	}
	m = New(watched, DefaultOptions())
	for d := 0; d < bench250.Dates; d++ {
		for _, est := range []int{2, 8} {
			r, err := settleWrite(m, sa, est, d, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			r.Release()
			if err := seen.reset(); err != nil {
				t.Fatalf("date %d from depth %d: %v", d, est, err)
			}
		}
	}
}

// partsOnce reports a query part of plan p that two places of its
// schedule or probes execute, or a node scheduled twice.
func partsOnce(p *preparedPlan) error {
	parts := make([]bool, p.g.nparts)
	nodes := make([]bool, len(p.g.nodes))
	mark := func(pt *part) error {
		if pt.idx < 0 || pt.idx >= len(parts) || parts[pt.idx] {
			return fmt.Errorf("part %s (index %d) executes twice or has no index of its own", pt.name, pt.idx)
		}
		parts[pt.idx] = true
		return nil
	}
	for _, seq := range p.sched.order {
		for _, n := range seq {
			if nodes[n.idx] {
				return fmt.Errorf("node %s is scheduled twice", n.name)
			}
			nodes[n.idx] = true
			for _, pt := range queryParts(n) {
				if err := mark(pt); err != nil {
					return err
				}
			}
		}
	}
	for _, pr := range p.g.probes {
		for _, pt := range pr.steps {
			if err := mark(pt); err != nil {
				return err
			}
		}
	}
	return nil
}

// scratchSeen records the scratches source queries ran in since the
// last reset, and the first one that ran twice.
type scratchSeen struct {
	mu  sync.Mutex
	m   map[*sqlmini.Scratch]bool
	err error
}

func (s *scratchSeen) reset() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.err
	if len(s.m) == 0 && err == nil {
		err = errors.New("no source query ran in a scratch")
	}
	clear(s.m)
	s.err = nil
	return err
}

// scratchWatch is a source that records the scratch of every query it
// executes.
type scratchWatch struct {
	source.Source
	seen *scratchSeen
}

func (w scratchWatch) Exec(ctx context.Context, name string, q *sqlmini.Query, params sqlmini.Params, opts sqlmini.PlanOptions, scratch ...*sqlmini.Scratch) (*relstore.Table, time.Duration, error) {
	w.seen.mu.Lock()
	switch {
	case len(scratch) != 1 || scratch[0] == nil:
		w.seen.err = cmp.Or(w.seen.err, fmt.Errorf("%s executed without a scratch", name))
	case w.seen.m[scratch[0]]:
		w.seen.err = cmp.Or(w.seen.err, fmt.Errorf("%s executed in a scratch another query of the run used", name))
	}
	if len(scratch) == 1 {
		w.seen.m[scratch[0]] = true
	}
	w.seen.mu.Unlock()
	return w.Source.Exec(ctx, name, q, params, opts, scratch...)
}
