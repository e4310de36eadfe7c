package serve

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"github.com/aigrepro/aig/internal/aigspec"
	"github.com/aigrepro/aig/internal/hospital"
	"github.com/aigrepro/aig/internal/obs"
	"github.com/aigrepro/aig/internal/source"
)

// TestColdRequestsRecycleRuns drives the cold path, which releases every
// settled run once it is rendered, so the next run of the same plan
// writes its tables into the released run's memory. No-store documents
// and fragments (pruned plans) for dates of different sizes go in turn
// and from concurrent clients; every body must equal the date's document
// from a direct evaluation, or that document's matches of the path.
func TestColdRequestsRecycleRuns(t *testing.T) {
	_, ts, _, _ := testServer(t, Config{}, nil)

	a, err := aigspec.Parse(hospital.SpecText)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewServer(source.RegistryFromCatalog(hospital.TinyCatalog()), Config{Metrics: obs.NewRegistry()}).AddView("ref", a)
	if err != nil {
		t.Fatal(err)
	}
	dates := []string{"d1", "d2", "d3"}
	paths := []string{"", "/report/patient/SSN", "/report/patient/bill", "//treatment/tname"}
	type request struct{ date, path, want string }
	var reqs []request
	for _, d := range dates {
		rootInh, err := ref.bindParams(map[string]string{"date": d})
		if err != nil {
			t.Fatal(err)
		}
		res, _, err := ref.med.EvaluateRecursive(ref.sa, rootInh, 4, 64)
		if err != nil {
			t.Fatal(err)
		}
		doc := res.Doc.String()
		for _, p := range paths {
			want := doc
			if p != "" {
				want, _ = oracleFragment(t, doc, p)
			}
			reqs = append(reqs, request{d, p, want})
		}
	}

	fetch := func(r request) error {
		u := ts.URL + "/views/report?date=" + r.date
		if r.path != "" {
			u = fragURL(ts.URL, r.date, r.path)
		}
		req, err := http.NewRequest(http.MethodGet, u, nil)
		if err != nil {
			return err
		}
		req.Header.Set("Cache-Control", "no-store")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return fmt.Errorf("%s %q: %v", r.date, r.path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return fmt.Errorf("%s %q: %v", r.date, r.path, err)
		}
		if resp.StatusCode != http.StatusOK || string(body) != r.want {
			return fmt.Errorf("%s %q: status %d, body differs from the direct evaluation's:\n--- served\n%s\n--- direct\n%s", r.date, r.path, resp.StatusCode, body, r.want)
		}
		return nil
	}
	for range 2 {
		for _, r := range reqs {
			if err := fetch(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for c := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 2 * len(reqs) {
				if errs[c] = fetch(reqs[(i+c*5)%len(reqs)]); errs[c] != nil {
					return
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
	if strings.Count(reqs[0].want, "<patient>") != 3 {
		t.Fatalf("d1's document lists %d patients, want 3", strings.Count(reqs[0].want, "<patient>"))
	}
}
