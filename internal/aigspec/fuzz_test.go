package aigspec

import (
	"testing"

	"github.com/aigrepro/aig/internal/hospital"
	"github.com/aigrepro/aig/internal/srcpos"
)

// FuzzParse throws arbitrary text at the spec parser. Invariants: Parse
// never panics; errors carry valid positions when positioned at all; and
// any grammar that parses must survive the Format/Parse round trip (the
// formatter emits only parseable canonical text, which formats to
// itself).
func FuzzParse(f *testing.F) {
	f.Add(hospital.SpecText)
	f.Add("dtd\n  <!ELEMENT a (#PCDATA)>\nend\n")
	f.Add("dtd\n  <!ELEMENT r (a | b)>\n  <!ELEMENT a (#PCDATA)>\n  <!ELEMENT b (#PCDATA)>\nend\n\nrule r\n  cond query []: select t.n from S:t t;\nend\n\nsources\n  S:t(n:int)\nend\n")
	f.Add("dtd\n  <!ELEMENT a (b*)>\n  <!ELEMENT b (#PCDATA)>\nend\ninh b (v)\nrule a\n  child b from query [p = inh(a)]: select t.v as v from S:t t;\nend\n")
	f.Add("dtd\n  <!ELEMENT a (#PCDATA)>\nend\nconstraints\n  a(b.v -> b)\nend\n")
	f.Add("inh a (x, set s(f1, f2:int), bag b(g))\n")
	f.Add("dtd\n<!ELEMENT0(0)+> \nend")
	f.Add("dtd\n  <!ELEMENT r (a+, b?, (a | b)*)>\n  <!ELEMENT a (#PCDATA)>\n  <!ELEMENT b (a, (b, a?)+)>\nend\n")
	f.Fuzz(func(t *testing.T, text string) {
		a, err := Parse(text)
		if err != nil {
			if p := srcpos.PosOf(err); p.Line < 0 || p.Col < 0 {
				t.Fatalf("negative error position %v for %q", p, text)
			}
			return
		}
		out, err := Format(a)
		if err != nil {
			t.Fatalf("parsed but does not format: %v\ninput: %q", err, text)
		}
		back, err := Parse(out)
		if err != nil {
			t.Fatalf("canonical form does not reparse: %v\ncanonical: %q\ninput: %q", err, out, text)
		}
		if again, err := Format(back); err != nil || again != out {
			t.Fatalf("canonical form is not a fixed point (%v)\nfirst:  %q\nsecond: %q", err, out, again)
		}
	})
}
