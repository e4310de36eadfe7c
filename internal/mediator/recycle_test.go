package mediator

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand/v2"
	"strings"
	"sync"
	"testing"

	"github.com/aigrepro/aig/internal/aig"
	"github.com/aigrepro/aig/internal/datagen"
	"github.com/aigrepro/aig/internal/hospital"
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
