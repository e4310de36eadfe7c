package xpath_test

import (
	"strings"
	"testing"

	"github.com/aigrepro/aig/internal/hospital"
	"github.com/aigrepro/aig/internal/xmltree"
	"github.com/aigrepro/aig/internal/xpath"
)

// feed hands a tree to a stream as the events the mediator's tag walk
// emits for it.
func feed(t *testing.T, s *xpath.Stream, n *xmltree.Node) {
	t.Helper()
	switch {
	case len(n.Children) == 0:
		s.Empty(n.Label)
	case len(n.Children) == 1 && n.Children[0].IsText():
		s.Leaf(n.Label, n.Children[0].Text)
	default:
		s.Open(n.Label)
		for _, c := range n.Children {
			if c.IsText() {
				t.Fatalf("%s: mixed content has no tag-walk events", n.Label)
			}
			feed(t, s, c)
		}
		s.Close(n.Label)
	}
}

// TestStreamMatchesSelect requires the streaming matcher to write, for
// every path, the bytes of Select's matches, and to count them: child
// and descendant steps, wildcards, [N] per parent walk, [child='X'] on
// buffered candidates (matching or holding matches below), predicates in
// both orders, nested and root matches.
func TestStreamMatchesSelect(t *testing.T) {
	a := hospital.Sigma0(false)
	hosp, err := a.Eval(hospital.EnvFor(hospital.TinyCatalog()), hospital.RootInh(a, "d1"))
	if err != nil {
		t.Fatal(err)
	}
	docs := []*xmltree.Node{
		hosp,
		mustDoc(t, `<r><a><n>x</n></a><a><n>y</n><a><n>x</n></a></a><b><a><n>x</n></a></b><a/></r>`),
		mustDoc(t, `<r><g><a>1</a><a>2</a></g><g><a>3</a><a>4</a></g></r>`),
		mustDoc(t, `<r><a><k>v</k><m>1</m></a><a><m>2</m></a><a><k>v</k><m>3</m><a><k>v</k></a></a></r>`),
		mustDoc(t, `<r><r><x>nested</x></r></r>`),
	}
	exprs := []string{
		"/report", "//report", "/report/patient", "//patient", "/report/patient/SSN", "//SSN",
		"//trId", "//treatment", "//treatment[1]", "//treatment[2]/tname", "/report/patient[2]/bill/item[2]",
		"//procedure//trId", "/report/*", "//*[1]", "//patient[pname='alice']/bill",
		"//treatment[trId='t2']/procedure", "//patient[treatments='']", "/report/patient[3]/bill",
		"/r/a", "//a", "//a[n='x']", "//a[n='y']", "/r/a[2]", "/r/*[3]", "//n", "/r//n[1]", "//a[2]",
		"/r/a[k='v'][2]", "/r/a[2][k='v']", "//a[k='v']/m", "//a[k='v']//k", "/r[a='x']/b", "//r", "//r/x",
		"/nothing", "//nothing", "/r/nothing", "//*",
	}
	for _, doc := range docs {
		for _, expr := range exprs {
			p := mustParse(t, expr)
			want := xpath.Select(doc, p)
			var got strings.Builder
			s := xpath.NewStream(p, &got)
			feed(t, s, doc)
			if s.Err() != nil {
				t.Fatal(s.Err())
			}
			if w := render(t, want); got.String() != w {
				t.Errorf("%s over <%s>: stream != Select\nstream:\n%s\nselect:\n%s", expr, doc.Label, got.String(), w)
			}
			if s.Matches() != len(want) {
				t.Errorf("%s over <%s>: %d matches counted, Select has %d", expr, doc.Label, s.Matches(), len(want))
			}
		}
	}
}

// flushes records the writes a stream makes.
type flushes []string

func (f *flushes) Write(b []byte) (int, error) {
	*f = append(*f, string(b))
	return len(b), nil
}

// TestStreamFlushesEachMatch requires a match's bytes to reach the
// writer as the match closes, before the next event arrives.
func TestStreamFlushesEachMatch(t *testing.T) {
	var w flushes
	s := xpath.NewStream(mustParse(t, "/r/a"), &w)
	s.Open("r")
	s.Open("a")
	s.Leaf("n", "x")
	if len(w) != 0 {
		t.Fatalf("wrote %q before the match closed", w)
	}
	s.Close("a")
	if len(w) != 1 || w[0] != "<a>\n  <n>x</n>\n</a>\n" {
		t.Fatalf("after the first match closed: %q", w)
	}
	s.Leaf("a", "y")
	if len(w) != 2 || w[1] != "<a>y</a>\n" {
		t.Fatalf("after the second match: %q", w)
	}
	s.Close("r")
	if s.Matches() != 2 {
		t.Fatalf("%d matches, want 2", s.Matches())
	}
}
