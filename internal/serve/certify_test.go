package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/aigrepro/aig/internal/aig"
	"github.com/aigrepro/aig/internal/hospital"
	"github.com/aigrepro/aig/internal/mediator"
	"github.com/aigrepro/aig/internal/relstore"
	"github.com/aigrepro/aig/internal/source"
	"github.com/aigrepro/aig/internal/specialize"
)

// uncertifiedSpec is the hospital spec with its source key and foreign
// key declarations stripped, so no constraint is statically provable.
var uncertifiedSpec = regexp.MustCompile(`(?m)^\s*(key|fkey) .*\n`).ReplaceAllString(hospital.SpecText, "")

// guardCount counts the guards compiled into a grammar.
func guardCount(a *aig.AIG) int {
	n := 0
	for _, r := range a.Rules {
		n += len(r.Guards)
	}
	return n
}

// opaqueSource hides a source's direct table access, like a source served
// over TCP: no premise on its tables can be checked.
type opaqueSource struct{ source.Source }

// TestCertifiedViewSkipsVerify: no request runs a post-hoc verify pass;
// guards are the only constraint mechanism. The certified hospital view
// serves a grammar with both guards pruned and keeps a fully guarded one
// for broken premises; the uncertified view compiles both guards into the
// grammar it serves and needs no second one, so its constraints are
// verified as it evaluates. A certified view whose
// premises no source can read evaluates only the guarded grammar. On
// violating data every case answers 500, each in one evaluation.
func TestCertifiedViewSkipsVerify(t *testing.T) {
	cases := []struct {
		name         string
		spec         string
		opaque       bool
		wantPruned   int
		wantPremises string
	}{
		{"certified-skips", hospital.SpecText, false, 2, "held"},
		{"uncertified-verifies", uncertifiedSpec, false, 0, "held"},
		{"certified-unreadable-premises", hospital.SpecText, true, 2, "broken"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, ts, cat, metrics := testServer(t, Config{FlightRecorder: true, TraceSampleRate: 1}, nil)
			if tc.opaque {
				for _, name := range s.reg.Names() {
					src, err := s.reg.Get(name)
					if err != nil {
						t.Fatal(err)
					}
					s.reg.Add(opaqueSource{src})
				}
			}
			v, err := s.AddSpec("report", tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			if v.pruned != tc.wantPruned || guardCount(v.sa) != 2-tc.wantPruned {
				t.Errorf("%d guards pruned, %d compiled; want %d pruned of 2", v.pruned, guardCount(v.sa), tc.wantPruned)
			}
			switch {
			case tc.wantPruned == 0 && v.guarded != nil:
				t.Errorf("nothing pruned, yet a guarded grammar was built")
			case tc.wantPruned > 0 && (v.guarded == nil || guardCount(v.guarded) != 2):
				t.Errorf("guards pruned, but the guarded grammar is %v", v.guarded)
			}

			evals := func() int64 { return counter(metrics, "aig_serve_evaluations_total") }
			code, spans := tracedGet(t, ts.URL, "/views/report?date=d1")
			if code != http.StatusOK || evals() != 1 {
				t.Fatalf("status %d after %d evaluations, want 200 after 1", code, evals())
			}
			if spans["verify"] != nil || spans["render"]["premises"] != tc.wantPremises {
				t.Errorf("verify span %v, render %v; want no verify span and premises=%s", spans["verify"], spans["render"], tc.wantPremises)
			}
			if _, tagged := spans["tag"]; tagged {
				t.Error("a served evaluation was tagged into a tree (tag span); serve emits the settled run")
			}
			if code, _, _, _ := getFrag(t, fragURL(ts.URL, "d1", "//patient/SSN")); code != http.StatusOK {
				t.Fatalf("fragment: status %d", code)
			}

			// s1 visits t9 on d1, a treatment gold covers but nobody bills:
			// s1's report lists a treatment with no bill item.
			tableOf(t, cat, "DB4", "treatment").MustInsert(relstore.Tuple{relstore.String("t9"), relstore.String("laser")})
			tableOf(t, cat, "DB2", "cover").MustInsert(relstore.Tuple{relstore.String("gold"), relstore.String("t9")})
			tableOf(t, cat, "DB1", "visitInfo").MustInsert(relstore.Tuple{relstore.String("s1"), relstore.String("t9"), relstore.String("d1")})
			before := evals()
			code, spans = tracedGet(t, ts.URL, "/views/report?date=d1")
			if code != http.StatusInternalServerError || evals() != before+1 || spans["verify"] != nil {
				t.Errorf("violating data: status %d after %d evaluations, verify span %v; want 500 after 1 and no verify span",
					code, evals()-before, spans["verify"])
			}
		})
	}
}

// TestCertifiedInViewsAndExplain: certification and the guards it
// pruned surface in the /views listing and the Explain plan.
func TestCertifiedInViewsAndExplain(t *testing.T) {
	s, ts, _, _ := testServer(t, Config{}, nil)
	v := s.View("report")
	if !v.Certified() {
		t.Fatalf("hospital view not certified:\n%s", v.Certification().Summary())
	}

	code, body, _ := get(t, ts.URL+"/views")
	if code != http.StatusOK {
		t.Fatalf("GET /views: %d", code)
	}
	var infos []viewInfo
	if err := json.Unmarshal([]byte(body), &infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || !infos[0].Certified || infos[0].GuardsPruned != 2 {
		t.Errorf("GET /views = %s, want a certified view with 2 guards pruned", body)
	}

	code, plan, _ := get(t, ts.URL+"/views/report/explain")
	if code != http.StatusOK {
		t.Fatalf("GET /views/report/explain: %d", code)
	}
	for _, want := range []string{
		"static certification", "must-hold", "certified: all constraints must hold",
		"guard not compiled: patient(item.trId -> item)  (fields determine each output row",
		"guard not compiled: patient(treatment.trId [= item.trId)  (every treatment value reaches DB3:billing",
		"premises, checked once per data version: fkey DB1:visitInfo(trId) -> DB3:billing(trId);",
	} {
		if !strings.Contains(plan, want) {
			t.Errorf("explain output missing %q:\n%s", want, plan)
		}
	}
}

// TestUncertifiedViewStillServes: dropping the declarations must not
// break serving — the guards stay in the grammar and pass at runtime.
func TestUncertifiedViewStillServes(t *testing.T) {
	s, ts, _, _ := testServer(t, Config{}, nil)
	if _, err := s.AddSpec("report", uncertifiedSpec); err != nil {
		t.Fatal(err)
	}
	if s.View("report").Certified() {
		t.Fatal("view certified without any source constraint declarations")
	}
	code, body, _ := get(t, ts.URL+"/views/report?date=d1")
	if code != http.StatusOK {
		t.Fatalf("status %d, body %s", code, body)
	}
	if code, _, _, _ := getFrag(t, fragURL(ts.URL, "d1", "//patient/SSN")); code != http.StatusOK {
		t.Fatalf("fragment of a guarded view: status %d", code)
	}
}

// TestUnreadablePremisesSettleGuarded: over sources without direct
// table access (as over RPC) the premise check reads nothing, which
// counts as broken. AddView warns once, naming the view and the sources
// the premises read; the certified view's document and predicate-fragment
// misses settle the guarded grammar and serve the bytes a run over local
// sources serves.
func TestUnreadablePremisesSettleGuarded(t *testing.T) {
	_, local, _, _ := testServer(t, Config{}, nil)
	var logs bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&logs, nil))
	s, ts, _, _ := testServer(t, Config{FlightRecorder: true, TraceSampleRate: 1, Logger: logger}, nil)
	for _, name := range s.reg.Names() {
		src, err := s.reg.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		s.reg.Add(opaqueSource{src})
	}
	logs.Reset()
	if _, err := s.AddSpec("report", hospital.SpecText); err != nil {
		t.Fatal(err)
	}
	if got := logs.String(); strings.Count(got, "level=WARN") != 1 ||
		!strings.Contains(got, "view=report") || !strings.Contains(got, `sources="[DB1 DB3 DB4]"`) {
		t.Errorf("AddView log %q, want one warning naming view report and sources DB1, DB3, DB4", got)
	}
	for _, u := range []string{"/views/report?date=d1", "/views/report?date=d1&path=%2F%2Fpatient%5B1%5D%2FSSN"} {
		code, body, spans := tracedFetch(t, ts.URL, u)
		if code != http.StatusOK || spans["render"]["premises"] != "broken" || spans["eval.partial"] != nil {
			t.Errorf("%s: status %d, render %v, eval.partial %v; want 200 from the guarded grammar (premises=broken, no partial evaluation)",
				u, code, spans["render"], spans["eval.partial"])
		}
		if _, want, _ := get(t, local.URL+u); body != want {
			t.Errorf("%s: body differs from a run over local sources:\n got %s\nwant %s", u, body, want)
		}
	}
}

// tracedGet fetches u from a flight-recorder server and returns the
// status and the attributes of every recorded span, by span name (the
// last span of a name wins).
func tracedGet(t *testing.T, base, u string) (int, map[string]map[string]any) {
	t.Helper()
	code, _, spans := tracedFetch(t, base, u)
	return code, spans
}

// tracedFetch is tracedGet that also returns the body.
func tracedFetch(t *testing.T, base, u string) (int, string, map[string]map[string]any) {
	t.Helper()
	resp, err := http.Get(base + u)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	tresp, err := http.Get(base + "/debug/traces/" + resp.Header.Get("X-Aig-Trace-Id"))
	if err != nil {
		t.Fatal(err)
	}
	defer tresp.Body.Close()
	type span struct {
		Name     string         `json:"name"`
		Attrs    map[string]any `json:"attrs"`
		Children []span         `json:"children"`
	}
	var trace struct {
		Spans []span `json:"spans"`
	}
	if err := json.NewDecoder(tresp.Body).Decode(&trace); err != nil {
		t.Fatalf("%s: trace: %v", u, err)
	}
	spans := make(map[string]map[string]any)
	var walk func([]span)
	walk = func(ss []span) {
		for _, sp := range ss {
			spans[sp.Name] = sp.Attrs
			walk(sp.Children)
		}
	}
	walk(trace.Spans)
	return resp.StatusCode, string(body), spans
}

// TestBrokenPremiseFallsBackToGuarded: the served grammar has no guard
// for the certified constraints, so once a write breaks a premise of
// their proofs, requests on that stamp evaluate the fully guarded grammar
// and answer exactly as it does: 500 where a guard aborts, the document
// where none does. Fragments select their path on that evaluation's tag
// walk. Undoing the write restores the fast path: the pruned plan for a
// path without predicates, partial evaluation for one with them.
func TestBrokenPremiseFallsBackToGuarded(t *testing.T) {
	s, ts, cat, _ := testServer(t, Config{AllowMutate: true, FlightRecorder: true, TraceSampleRate: 1}, nil)
	// t9 is a treatment s1's gold policy covers but nobody bills. Neither
	// table carries a premise: the view stays on the fast path.
	tableOf(t, cat, "DB4", "treatment").MustInsert(relstore.Tuple{relstore.String("t9"), relstore.String("laser")})
	tableOf(t, cat, "DB2", "cover").MustInsert(relstore.Tuple{relstore.String("gold"), relstore.String("t9")})

	// guardedStatus is what the fully guarded grammar, built here
	// independently of the view, answers for date. An abort re-unrolls up
	// to the maximum depth; 8 is already past the deepest procedure chain
	// of the tiny catalog.
	guarded, err := specialize.CompileConstraints(s.View("report").a)
	if err != nil {
		t.Fatal(err)
	}
	if guarded, err = specialize.DecomposeQueries(guarded, s.reg, s.reg, s.opts.PlanOpts); err != nil {
		t.Fatal(err)
	}
	guardedStatus := func(date string) int {
		if _, _, err := mediator.New(s.reg, s.opts).EvaluateRecursive(guarded, hospital.RootInh(guarded, date), 4, 8); err != nil {
			return http.StatusInternalServerError
		}
		return http.StatusOK
	}
	mutate := func(op string) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/mutate?source=DB1&table=visitInfo&op="+op+"&values=s1,t9,d1", "", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("mutate %s: %d", op, resp.StatusCode)
		}
	}
	full := func(date string) string { return "/views/report?date=" + date }
	frag := func(date string) string { return full(date) + "&path=%2F%2Fpatient%2FSSN" }
	predFrag := func(date string) string { return full(date) + "&path=%2F%2Fpatient%5B1%5D%2FSSN" }
	fastPath := func(when string) {
		t.Helper()
		code, spans := tracedGet(t, ts.URL, frag("d1"))
		pruned, _ := spans["evaluate"]["pruned_contexts"].(float64)
		if code != guardedStatus("d1") || spans["render"]["premises"] != "held" || spans["evaluate"]["path"] != "//patient/SSN" || pruned == 0 {
			t.Errorf("%s: fragment status %d (guarded grammar %d), render %v, evaluate %v; want the pruned plan",
				when, code, guardedStatus("d1"), spans["render"], spans["evaluate"])
		}
		code, spans = tracedGet(t, ts.URL, predFrag("d1"))
		if code != guardedStatus("d1") || spans["eval.partial"]["premises"] != "held" {
			t.Errorf("%s: fragment status %d (guarded grammar %d), eval.partial %v; want partial evaluation",
				when, code, guardedStatus("d1"), spans["eval.partial"])
		}
		code, spans = tracedGet(t, ts.URL, full("d1"))
		if code != http.StatusOK || code != guardedStatus("d1") {
			t.Fatalf("%s: status %d, guarded grammar %d", when, code, guardedStatus("d1"))
		}
		if spans["verify"] != nil || spans["render"]["premises"] != "held" {
			t.Errorf("%s: want premises=held and no verify span, got verify %v, render %v", when, spans["verify"], spans["render"])
		}
	}
	fastPath("before the write")

	// s1 visits t9 on d1: the visit's trId is not billed (the foreign key
	// premise breaks) and s1's d1 report lists a treatment with no bill
	// item. The d2 report does not mention t9.
	mutate("insert")
	if guardedStatus("d1") != http.StatusInternalServerError || guardedStatus("d2") != http.StatusOK {
		t.Fatalf("guarded grammar answers %d for d1 and %d for d2; the test needs an abort and a pass",
			guardedStatus("d1"), guardedStatus("d2"))
	}
	for _, date := range []string{"d1", "d2"} {
		want := guardedStatus(date)
		for _, u := range []string{frag(date), predFrag(date), full(date)} {
			code, spans := tracedGet(t, ts.URL, u)
			if code != want || spans["eval.partial"] != nil || spans["verify"] != nil || spans["evaluate"]["path"] != nil {
				t.Errorf("broken premise, %s: status %d (guarded grammar %d), eval.partial %v, verify %v; want the full-render path",
					u, code, want, spans["eval.partial"], spans["verify"])
			}
			if want == http.StatusOK && spans["render"]["premises"] != "broken" {
				t.Errorf("broken premise, %s: render %v, want premises=broken", u, spans["render"])
			}
		}
	}

	mutate("delete")
	fastPath("after undoing the write")
}

// TestFallbackFragmentMatchesOracle: where the path's verdict cannot
// serve a fragment (a premise is broken), the fill settles the whole
// guarded grammar and the path sink selects the path on its tag walk;
// the bytes must equal the post-hoc filter of the full document at the
// same stamp, streamed or cached alike.
func TestFallbackFragmentMatchesOracle(t *testing.T) {
	_, ts, cat, _ := testServer(t, Config{}, nil)
	tableOf(t, cat, "DB4", "treatment").MustInsert(relstore.Tuple{relstore.String("t9"), relstore.String("laser")})
	tableOf(t, cat, "DB2", "cover").MustInsert(relstore.Tuple{relstore.String("gold"), relstore.String("t9")})
	// An unbilled visit breaks the billing foreign key; d2 still serves.
	tableOf(t, cat, "DB1", "visitInfo").MustInsert(relstore.Tuple{relstore.String("s1"), relstore.String("t9"), relstore.String("d1")})
	noStore := func(u string) (int, string, string) {
		t.Helper()
		req, _ := http.NewRequest(http.MethodGet, u, nil)
		req.Header.Set("Cache-Control", "no-store")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body), resp.Trailer.Get("X-Aig-Fragment-Matches")
	}
	code, full, _ := noStore(ts.URL + "/views/report?date=d2")
	if code != http.StatusOK {
		t.Fatalf("full d2 document: status %d", code)
	}
	for _, path := range []string{"/report", "//patient", "//patient[2]/pname", "//bill/item", "//treatment[tname='xray']", "/nothing"} {
		want, n := oracleFragment(t, full, path)
		code, streamed, matches := noStore(fragURL(ts.URL, "d2", path))
		if code != http.StatusOK || streamed != want || (n > 0 && matches != fmt.Sprint(n)) {
			t.Errorf("%s streamed: status %d, matches %q (want %d)\n--- served\n%s\n--- oracle\n%s", path, code, matches, n, streamed, want)
		}
		code, cached, _, matches := getFrag(t, fragURL(ts.URL, "d2", path))
		if code != http.StatusOK || cached != want || matches != fmt.Sprint(n) {
			t.Errorf("%s cached: status %d, matches %q (want %d)\n--- served\n%s\n--- oracle\n%s", path, code, matches, n, cached, want)
		}
	}
}

// TestNoUnverifiedViolationUnderConcurrentWrites: while a writer keeps
// breaking and restoring a premise, concurrent cold requests may answer
// 200 only with the clean document — a request whose stamp moved under
// it must not trust the verdict it started with.
func TestNoUnverifiedViolationUnderConcurrentWrites(t *testing.T) {
	_, ts, cat, _ := testServer(t, Config{}, nil)
	tableOf(t, cat, "DB4", "treatment").MustInsert(relstore.Tuple{relstore.String("t9"), relstore.String("laser")})
	tableOf(t, cat, "DB2", "cover").MustInsert(relstore.Tuple{relstore.String("gold"), relstore.String("t9")})
	cold := func() (int, string) {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/views/report?date=d1", nil)
		req.Header.Set("Cache-Control", "no-store")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return 0, err.Error()
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	code, clean := cold()
	if code != http.StatusOK {
		t.Fatalf("clean document: status %d", code)
	}

	stop := make(chan struct{})
	done := make(chan struct{})
	var served, refused atomic.Int64
	for i := 0; i < 4; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for {
				select {
				case <-stop:
					return
				default:
				}
				switch code, body := cold(); {
				case code == http.StatusOK && body == clean:
					served.Add(1)
				case code == http.StatusInternalServerError:
					refused.Add(1)
				default:
					t.Errorf("status %d served without verification:\n%s", code, body)
					return
				}
			}
		}()
	}
	// Toggle until both outcomes were seen a few times (or a bound on
	// writes is hit, which the checks below then report).
	db1, err := cat.Database("DB1")
	if err != nil {
		t.Fatal(err)
	}
	bad := []string{"s1", "t9", "d1"}
	for i := 0; i < 100_000 && (served.Load() < 20 || refused.Load() < 20); i++ {
		if _, err := db1.Mutate("visitInfo", relstore.OpInsert, bad); err != nil {
			t.Fatal(err)
		}
		if _, err := db1.Mutate("visitInfo", relstore.OpDelete, bad); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	for i := 0; i < 4; i++ {
		<-done
	}
	if served.Load() == 0 || refused.Load() == 0 {
		t.Errorf("vacuous: %d served, %d refused", served.Load(), refused.Load())
	}
	t.Logf("%d served, %d refused", served.Load(), refused.Load())
}
