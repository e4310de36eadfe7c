package aigspec

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/aigrepro/aig/internal/hospital"
	"github.com/aigrepro/aig/internal/specialize"
	"github.com/aigrepro/aig/internal/sqlmini"
)

// TestCanonicalFixtureCurrent keeps testdata/sigma0.canonical.aig — the
// checked-in canonical form of σ0 that CI's `aigfmt -l` gate runs over —
// in sync with what Format actually emits for hospital.SpecText.
func TestCanonicalFixtureCurrent(t *testing.T) {
	a, err := Parse(hospital.SpecText)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Format(a)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "sigma0.canonical.aig")
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Errorf("%s is stale; regenerate it with: go run ./cmd/aigfmt -w %s", path, filepath.Join("internal", "aigspec", path))
	}
}

// TestFormatRoundTripSigma0: serializing the programmatic σ0 and parsing
// the result yields a grammar that validates and produces the same
// document.
func TestFormatRoundTripSigma0(t *testing.T) {
	orig := hospital.Sigma0(true)
	text, err := Format(orig)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(text)
	if err != nil {
		t.Fatalf("re-parsing formatted spec: %v\n%s", err, text)
	}
	cat := hospital.TinyCatalog()
	if err := back.Validate(sqlmini.CatalogSchemas{Catalog: cat}); err != nil {
		t.Fatalf("round-tripped grammar invalid: %v", err)
	}
	env := hospital.EnvFor(cat)
	want, err := orig.Eval(env, hospital.RootInh(orig, "d1"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := back.Eval(env, hospital.RootInh(back, "d1"))
	if err != nil {
		t.Fatal(err)
	}
	if !want.Equal(got) {
		t.Errorf("round trip changed the document:\n%s\n%s", want, got)
	}
	if len(back.Constraints) != 2 {
		t.Errorf("round trip lost constraints: %v", back.Constraints)
	}
}

// TestFormatIsIdempotent: Format(Parse(Format(a))) == Format(a).
func TestFormatIsIdempotent(t *testing.T) {
	orig := hospital.Sigma0(true)
	first, err := Format(orig)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(first)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Format(back)
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Errorf("Format not idempotent:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
}

// TestFormatRoundTripSpecText: the shipped spec text survives
// parse-format-parse.
func TestFormatRoundTripSpecText(t *testing.T) {
	a, err := Parse(hospital.SpecText)
	if err != nil {
		t.Fatal(err)
	}
	text, err := Format(a)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Parse(text); err != nil {
		t.Fatalf("re-parsing: %v\n%s", err, text)
	}
}

func TestFormatRejectsChains(t *testing.T) {
	cat := hospital.TinyCatalog()
	a := hospital.Sigma0(false)
	dec, err := specialize.DecomposeQueries(a,
		sqlmini.CatalogSchemas{Catalog: cat}, sqlmini.CatalogStats{Catalog: cat}, sqlmini.PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Format(dec); err == nil || !strings.Contains(err.Error(), "chain") {
		t.Errorf("chains serialized without error: %v", err)
	}
}

// A content model with +, ? or a nested group formats as declared: the
// entity types the DTD's simplification introduces never reach the
// text, which reparses and formats to itself.
func TestFormatKeepsDeclaredContentModels(t *testing.T) {
	for _, text := range []string{
		"dtd\n  <!ELEMENT r (a+)>\n  <!ELEMENT a (#PCDATA)>\nend\n",
		"dtd\n<!ELEMENT0(0)+> \nend",
	} {
		a, err := Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		out, err := Format(a)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(out, "#1") {
			t.Errorf("formatted text names an entity type:\n%s", out)
		}
		back, err := Parse(out)
		if err != nil {
			t.Fatalf("formatted text does not reparse: %v\n%s", err, out)
		}
		if again, err := Format(back); err != nil || again != out {
			t.Errorf("formatting is not a fixed point (%v):\n%s\nvs\n%s", err, out, again)
		}
	}
}
