package xmltree

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func buildSample() *Node {
	root := NewElement("report")
	p := root.AppendElement("patient")
	p.AppendElement("SSN").AppendText("s1")
	p.AppendElement("pname").AppendText("alice")
	return root
}

func TestBuilderAndAccessors(t *testing.T) {
	root := buildSample()
	if !root.IsElement() || root.Label != "report" {
		t.Fatalf("root wrong: %+v", root)
	}
	p := root.Child("patient")
	if p == nil || p.Parent != root {
		t.Fatal("Child/Parent broken")
	}
	if p.Child("nope") != nil {
		t.Error("Child on missing label should be nil")
	}
	ssn := p.Child("SSN")
	if ssn.StringValue() != "s1" {
		t.Errorf("StringValue = %q", ssn.StringValue())
	}
	if root.StringValue() != "s1alice" {
		t.Errorf("root StringValue = %q", root.StringValue())
	}
	if got := len(p.Elements()); got != 2 {
		t.Errorf("Elements() = %d, want 2", got)
	}
	if got := root.CountNodes(); got != 6 {
		t.Errorf("CountNodes = %d, want 6", got)
	}
	if got := root.Depth(); got != 4 {
		t.Errorf("Depth = %d, want 4", got)
	}
	text := ssn.Children[0]
	if !text.IsText() || text.Path() != "/report/patient/SSN/#text" {
		t.Errorf("Path = %q", text.Path())
	}
}

func TestDescendants(t *testing.T) {
	root := NewElement("a")
	root.AppendElement("x").AppendText("1")
	b := root.AppendElement("b")
	b.AppendElement("x").AppendText("2")
	b.AppendElement("x").AppendText("3")
	got := root.Descendants("x")
	if len(got) != 3 {
		t.Fatalf("Descendants = %d, want 3", len(got))
	}
	if got[0].StringValue() != "1" || got[2].StringValue() != "3" {
		t.Error("Descendants not in document order")
	}
	// Descendants excludes the node itself.
	if len(b.Descendants("b")) != 0 {
		t.Error("Descendants included self")
	}
}

func TestWalkPrune(t *testing.T) {
	root := buildSample()
	var visited []string
	root.Walk(func(n *Node) bool {
		if n.IsElement() {
			visited = append(visited, n.Label)
		}
		return n.Label != "patient" // prune below patient
	})
	if strings.Join(visited, ",") != "report,patient" {
		t.Errorf("visited = %v", visited)
	}
}

func TestEqualAndClone(t *testing.T) {
	a := buildSample()
	b := buildSample()
	if !a.Equal(b) {
		t.Error("identical trees not Equal")
	}
	c := a.Clone()
	if !a.Equal(c) {
		t.Error("Clone not Equal to original")
	}
	c.Child("patient").AppendElement("extra")
	if a.Equal(c) {
		t.Error("mutated clone still Equal")
	}
	b.Child("patient").Child("SSN").Children[0].Text = "other"
	if a.Equal(b) {
		t.Error("different text still Equal")
	}
}

func TestSerializeParseRoundTrip(t *testing.T) {
	a := buildSample()
	s := a.String()
	b, err := ParseString(s)
	if err != nil {
		t.Fatalf("parsing %q: %v", s, err)
	}
	if !a.Equal(b) {
		t.Errorf("round trip changed tree:\n%s\n%s", a, b)
	}
}

func TestSerializeEscaping(t *testing.T) {
	root := NewElement("a")
	root.AppendText("x < y & z > w")
	s := root.String()
	if strings.Contains(s, "x < y") {
		t.Errorf("unescaped output: %q", s)
	}
	back, err := ParseString(s)
	if err != nil {
		t.Fatal(err)
	}
	if back.StringValue() != "x < y & z > w" {
		t.Errorf("escaped round trip = %q", back.StringValue())
	}
}

func TestSerializeEmptyElement(t *testing.T) {
	root := NewElement("a")
	root.AppendElement("b")
	s := root.String()
	if !strings.Contains(s, "<b/>") {
		t.Errorf("empty element serialized as %q", s)
	}
	back, err := ParseString(s)
	if err != nil {
		t.Fatal(err)
	}
	if !root.Equal(back) {
		t.Error("empty element round trip failed")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"   ",
		"<a><b></a></b>",
		"<a></a><b></b>",
		"text only",
		"<a>",
	}
	for _, s := range bad {
		if _, err := ParseString(s); err == nil {
			t.Errorf("ParseString(%q) succeeded, want error", s)
		}
	}
}

func TestParseDropsIndentation(t *testing.T) {
	doc, err := ParseString("<a>\n  <b>hi</b>\n</a>")
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Children) != 1 {
		t.Errorf("indentation text kept: %d children", len(doc.Children))
	}
}

// randomTree builds an arbitrary small tree for the round-trip property.
func randomTree(r *rand.Rand, depth int) *Node {
	n := NewElement(string(rune('a' + r.Intn(5))))
	kids := r.Intn(3)
	for i := 0; i < kids; i++ {
		if depth <= 0 || r.Intn(2) == 0 {
			// Random printable text without leading/trailing space (the
			// parser trims inter-element whitespace).
			words := []string{"x", "hello", "a&b", "<tag>", "q'q"}
			n.AppendText(words[r.Intn(len(words))])
		} else {
			n.AppendChild(randomTree(r, depth-1))
		}
	}
	return n
}

type quickTree struct{ N *Node }

func (quickTree) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(quickTree{N: randomTree(r, 3)})
}

// Property: serialize-then-parse is identity up to merging of adjacent
// text nodes; we avoid adjacent text in the generator by checking Equal
// only when no node has consecutive text children.
func TestSerializeParseProperty(t *testing.T) {
	hasAdjacentText := func(n *Node) bool {
		bad := false
		n.Walk(func(d *Node) bool {
			for i := 1; i < len(d.Children); i++ {
				if d.Children[i].IsText() && d.Children[i-1].IsText() {
					bad = true
				}
			}
			return !bad
		})
		return bad
	}
	f := func(qt quickTree) bool {
		if hasAdjacentText(qt.N) {
			return true
		}
		back, err := ParseString(qt.N.String())
		if err != nil {
			return false
		}
		return qt.N.Equal(back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
