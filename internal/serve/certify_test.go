package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/aigrepro/aig/internal/hospital"
	"github.com/aigrepro/aig/internal/mediator"
	"github.com/aigrepro/aig/internal/relstore"
	"github.com/aigrepro/aig/internal/specialize"
)

// uncertifiedSpec is the hospital spec with its source key and foreign
// key declarations stripped, so no constraint is statically provable.
var uncertifiedSpec = regexp.MustCompile(`(?m)^\s*(key|fkey) .*\n`).ReplaceAllString(hospital.SpecText, "")

// guardCount counts the guards compiled into a view's served grammar.
func guardCount(v *View) int {
	n := 0
	for _, r := range v.sa.Rules {
		n += len(r.Guards)
	}
	return n
}

// TestCertifiedViewSkipsVerify: the certified hospital view must not run
// the verify span even with VerifyOutput on; VerifyAlways restores it on
// the same pruned grammar; an uncertified view keeps its guards and
// always verifies.
func TestCertifiedViewSkipsVerify(t *testing.T) {
	cases := []struct {
		name       string
		cfg        Config
		spec       string
		wantVerify bool
		wantPruned int
	}{
		{"certified-skips", Config{VerifyOutput: true, TraceRequests: true}, hospital.SpecText, false, 2},
		{"verify-always", Config{VerifyOutput: true, VerifyAlways: true, TraceRequests: true}, hospital.SpecText, true, 2},
		{"uncertified-verifies", Config{VerifyOutput: true, TraceRequests: true}, uncertifiedSpec, true, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, ts, _, _ := testServer(t, tc.cfg, nil)
			if tc.spec != hospital.SpecText {
				if _, err := s.AddSpec("report", tc.spec); err != nil {
					t.Fatal(err)
				}
			}
			v := s.View("report")
			if v.pruned != tc.wantPruned || guardCount(v) != 2-tc.wantPruned {
				t.Errorf("%d guards pruned, %d compiled; want %d pruned of 2", v.pruned, guardCount(v), tc.wantPruned)
			}
			code, body, _ := get(t, ts.URL+"/views/report?date=d1")
			if code != http.StatusOK {
				t.Fatalf("status %d, body %s", code, body)
			}
			if !strings.Contains(body, "<report>") {
				t.Fatalf("unexpected body:\n%s", body)
			}
			trace := s.View("report").LastTrace()
			if trace == nil {
				t.Fatal("no trace recorded")
			}
			hasVerify := strings.Contains(string(trace), `"verify"`)
			if hasVerify != tc.wantVerify {
				t.Errorf("verify span present=%v, want %v; trace:\n%s", hasVerify, tc.wantVerify, trace)
			}
			if !strings.Contains(string(trace), `"premises": "held"`) {
				t.Errorf("trace does not record premises=held:\n%s", trace)
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
// break serving — verification stays on and passes at runtime.
func TestUncertifiedViewStillServes(t *testing.T) {
	s, ts, _, _ := testServer(t, Config{VerifyOutput: true}, nil)
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

// tracedGet fetches u from a flight-recorder server and returns the
// status and the attributes of every recorded span, by span name (the
// last span of a name wins).
func tracedGet(t *testing.T, base, u string) (int, map[string]map[string]any) {
	t.Helper()
	resp, err := http.Get(base + u)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
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
	return resp.StatusCode, spans
}

// TestBrokenPremiseFallsBackToVerify: the served grammar has no guard
// for the certified constraints, so once a write breaks a premise of
// their proofs, the next cold request must verify post hoc and answer
// exactly as the fully guarded grammar would; fragments fall back to
// full render on that stamp. Undoing the write restores the fast path.
func TestBrokenPremiseFallsBackToVerify(t *testing.T) {
	s, ts, cat, _ := testServer(t, Config{AllowMutate: true, FlightRecorder: true, TraceSampleRate: 1}, nil)
	// t9 is a treatment s1's gold policy covers but nobody bills. Neither
	// table carries a premise: the view stays on the fast path.
	tableOf(t, cat, "DB4", "treatment").MustInsert(relstore.Tuple{relstore.String("t9"), relstore.String("laser")})
	tableOf(t, cat, "DB2", "cover").MustInsert(relstore.Tuple{relstore.String("gold"), relstore.String("t9")})

	// guardedStatus is what the fully guarded grammar answers for d1. An
	// abort re-unrolls up to the maximum depth; 8 is already past the
	// deepest procedure chain of the tiny catalog.
	guarded, err := specialize.CompileConstraints(s.View("report").a)
	if err != nil {
		t.Fatal(err)
	}
	if guarded, err = specialize.DecomposeQueries(guarded, s.reg, s.reg, s.opts.PlanOpts); err != nil {
		t.Fatal(err)
	}
	guardedStatus := func() int {
		if _, _, err := mediator.New(s.reg, s.opts).EvaluateRecursive(guarded, hospital.RootInh(guarded, "d1"), 4, 8); err != nil {
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
	const full, frag = "/views/report?date=d1", "/views/report?date=d1&path=%2F%2Fpatient%2FSSN"
	// The fragment goes first: with the full document cached at the same
	// stamp it would be derived from that instead of evaluated.
	fastPath := func(when string) {
		t.Helper()
		code, spans := tracedGet(t, ts.URL, frag)
		if code != http.StatusOK || spans["eval.partial"]["premises"] != "held" {
			t.Errorf("%s: fragment status %d, eval.partial %v; want partial evaluation", when, code, spans["eval.partial"])
		}
		code, spans = tracedGet(t, ts.URL, full)
		if code != http.StatusOK || code != guardedStatus() {
			t.Fatalf("%s: status %d, guarded grammar %d", when, code, guardedStatus())
		}
		if spans["verify"] != nil || spans["render"]["premises"] != "held" {
			t.Errorf("%s: want premises=held and no verify span, got verify %v, render %v", when, spans["verify"], spans["render"])
		}
	}
	fastPath("before the write")

	// s1 visits t9 on d1: the visit's trId is not billed (the foreign key
	// premise breaks) and s1's report lists a treatment with no bill item.
	mutate("insert")
	want := guardedStatus()
	if want != http.StatusInternalServerError {
		t.Fatalf("guarded grammar answers %d on the violating data; the test needs an abort", want)
	}
	code, spans := tracedGet(t, ts.URL, full)
	if code != want {
		t.Errorf("broken premise: status %d, guarded grammar %d", code, want)
	}
	if spans["verify"]["premises"] != "broken" {
		t.Errorf("broken premise: verify span %v, want premises=broken", spans["verify"])
	}
	code, spans = tracedGet(t, ts.URL, frag)
	if code != want || spans["eval.partial"] != nil || spans["verify"]["premises"] != "broken" {
		t.Errorf("broken premise: fragment status %d (want %d), eval.partial %v, verify %v; want the full-render path",
			code, want, spans["eval.partial"], spans["verify"])
	}

	mutate("delete")
	fastPath("after undoing the write")
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
	visit := tableOf(t, cat, "DB1", "visitInfo")
	bad := relstore.Tuple{relstore.String("s1"), relstore.String("t9"), relstore.String("d1")}
	key := bad.Key()
	for i := 0; i < 100_000 && (served.Load() < 20 || refused.Load() < 20); i++ {
		visit.MustInsert(bad.Clone())
		visit.DeleteWhere(func(r relstore.Tuple) bool { return r.Key() == key })
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
