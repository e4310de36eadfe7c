package main

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"

	"github.com/aigrepro/aig/internal/aig"
	"github.com/aigrepro/aig/internal/aigspec"
	"github.com/aigrepro/aig/internal/datagen"
	"github.com/aigrepro/aig/internal/hospital"
	"github.com/aigrepro/aig/internal/relstore"
	"github.com/aigrepro/aig/internal/xmltree"
	"github.com/aigrepro/aig/internal/xpath"
)

// bench250 is the common catalog scale: documents of 140–480 KB that take
// 50–160 ms to evaluate cold, so a ten-second run holds a few hundred
// cold evaluations.
var bench250 = datagen.Size{
	Name: "bench250", Patient: 250, VisitInfo: 1100, Cover: 450,
	Billing: 60, Treatment: 60, Procedure: 90,
	Policies: 10, Dates: 30, Levels: 8,
}

const viewName = "report"

// catalogSeed fixes the catalog. Catalogs generated from different seeds
// differ by ±12% in total document bytes and ±20% in the median document
// (the procedure hierarchy is small, so its shape decides how far every
// treatment expands), which would swamp a 10% regression bound. The run's
// seed drives what may vary without changing the amount of work: the
// order dates are requested in, the fragment predicates, and the rows the
// writer inserts.
const catalogSeed = 42

// fixture is everything made before the program under test starts: the
// catalog it will be fed, the seeded request order, and the reference
// bytes every response is compared with.
type fixture struct {
	size  datagen.Size
	seed  int64
	cat   *relstore.Catalog
	spec  *aig.AIG
	dates []string // report dates in seeded request order

	mu   sync.Mutex
	docs map[string]*xmltree.Node // conceptual evaluation per date, filled on demand
}

func newFixture(size datagen.Size, seed int64) (*fixture, error) {
	spec, err := aigspec.Parse(hospital.SpecText)
	if err != nil {
		return nil, fmt.Errorf("parsing the hospital spec: %w", err)
	}
	f := &fixture{size: size, seed: seed, cat: datagen.Generate(size, catalogSeed), spec: spec,
		docs: make(map[string]*xmltree.Node)}
	r := rand.New(rand.NewSource(seed))
	for _, i := range r.Perm(size.Dates) {
		f.dates = append(f.dates, datagen.Date(i))
	}
	return f, nil
}

// spacedDates returns n report dates evenly spaced over the calendar, in
// the seeded request order: the same set for every seed, so the work a
// cycle over them holds does not depend on the seed.
func (f *fixture) spacedDates(n int) []string {
	if n >= len(f.dates) {
		return f.dates
	}
	keep := make(map[string]bool, n)
	for i := 0; i < n; i++ {
		keep[datagen.Date(i*f.size.Dates/n)] = true
	}
	var out []string
	for _, d := range f.dates {
		if keep[d] {
			out = append(out, d)
		}
	}
	return out
}

// rng returns a generator for one named use of the seed, so adding a use
// does not shift the others.
func (f *fixture) rng(use int64) *rand.Rand { return rand.New(rand.NewSource(f.seed*1000 + use)) }

// evalConceptual is the reference evaluator: the tuple-at-a-time aig.Eval
// of the spec as written, which shares no plan, cache or merge logic with
// the mediator the daemon serves from.
func evalConceptual(spec *aig.AIG, cat *relstore.Catalog, date string) (*xmltree.Node, error) {
	return spec.Eval(hospital.EnvFor(cat), hospital.RootInh(spec, date))
}

func render(nodes ...*xmltree.Node) ([]byte, error) {
	var sb strings.Builder
	for _, n := range nodes {
		if err := n.WriteIndented(&sb); err != nil {
			return nil, err
		}
	}
	return []byte(sb.String()), nil
}

// doc returns the reference tree for a date over the base catalog.
func (f *fixture) doc(date string) (*xmltree.Node, error) {
	f.mu.Lock()
	d := f.docs[date]
	f.mu.Unlock()
	if d != nil {
		return d, nil
	}
	d, err := evalConceptual(f.spec, f.cat, date)
	if err != nil {
		return nil, fmt.Errorf("reference evaluation for %s: %w", date, err)
	}
	f.mu.Lock()
	f.docs[date] = d
	f.mu.Unlock()
	return d, nil
}

// fullRef returns the bytes a full-document request for date must return.
func (f *fixture) fullRef(date string) ([]byte, error) {
	d, err := f.doc(date)
	if err != nil {
		return nil, err
	}
	return render(d)
}

// fragRef returns the bytes a fragment request must return: the post-hoc
// xpath.Select over the reference tree, matches rendered back to back.
func (f *fixture) fragRef(date, path string) ([]byte, error) {
	d, err := f.doc(date)
	if err != nil {
		return nil, err
	}
	p, err := xpath.Parse(path)
	if err != nil {
		return nil, err
	}
	return render(xpath.Select(d, p)...)
}

// visitRow is one seeded DB1:visitInfo row the mutate_mix writer inserts
// and deletes, with the document its date must show while it is present.
type visitRow struct {
	date   string
	values string // SSN,trId,date as POST /mutate takes it
	tuple  relstore.Tuple
	with   []byte // reference bytes of date's document with the row present
}

// visitRows picks, for each date, a seeded row absent from visitInfo
// whose insertion changes that date's document, and computes the changed
// document on a private copy of the catalog.
func (f *fixture) visitRows(dates []string) ([]visitRow, error) {
	visit, err := f.cat.Table("DB1", "visitInfo")
	if err != nil {
		return nil, err
	}
	present := make(map[string]bool, visit.Len())
	for _, row := range visit.Rows() {
		present[row.Key()] = true
	}
	r := f.rng(1)
	rows := make([]visitRow, len(dates))
	for i, date := range dates {
		base, err := f.fullRef(date)
		if err != nil {
			return nil, err
		}
		found := false
		for attempt := 0; attempt < 50 && !found; attempt++ {
			ssn := fmt.Sprintf("s%06d", r.Intn(f.size.Patient))
			tr := fmt.Sprintf("t%04d", r.Intn(f.size.Treatment))
			tuple := relstore.Tuple{relstore.String(ssn), relstore.String(tr), relstore.String(date)}
			if present[tuple.Key()] {
				continue
			}
			cat, err := cloneCatalog(f.cat)
			if err != nil {
				return nil, err
			}
			t, err := cat.Table("DB1", "visitInfo")
			if err != nil {
				return nil, err
			}
			if err := t.Insert(tuple); err != nil {
				return nil, err
			}
			d, err := evalConceptual(f.spec, cat, date)
			if err != nil {
				return nil, err
			}
			with, err := render(d)
			if err != nil {
				return nil, err
			}
			if string(with) == string(base) {
				continue
			}
			rows[i] = visitRow{date: date, values: ssn + "," + tr + "," + date, tuple: tuple, with: with}
			found = true
		}
		if !found {
			return nil, fmt.Errorf("no visitInfo row changes the document of %s", date)
		}
	}
	return rows, nil
}

// parallel runs f(0..n-1) on the given number of workers and returns the
// first error.
func parallel(n, workers int, f func(i int) error) error {
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
		next  int
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				stop := first != nil
				mu.Unlock()
				if i >= n || stop {
					return
				}
				if err := f(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return first
}
