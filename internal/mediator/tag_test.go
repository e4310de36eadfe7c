package mediator

import (
	"bytes"
	"context"
	"testing"

	"github.com/aigrepro/aig/internal/aig"
	"github.com/aigrepro/aig/internal/hospital"
	"github.com/aigrepro/aig/internal/source"
)

// TestRunEmitsItsTree checks the one tag walk's two sinks agree: a
// settled run streams exactly the indented serialization of the tree it
// builds, on the hospital view (stars, empty stars, text leaves) and on
// the choice fixture.
func TestRunEmitsItsTree(t *testing.T) {
	cat := hospital.TinyCatalog()
	hosp, reg := prepared(t, cat, 4, true)
	choice, ccat := choiceFixture(t)
	for _, tc := range []struct {
		name string
		m    *Mediator
		a    *aig.AIG
		inh  *aig.AttrValue
	}{
		{"hospital", New(reg, DefaultOptions()), hosp, hospital.RootInh(hosp, "d1")},
		{"choice", New(source.RegistryFromCatalog(ccat), DefaultOptions()), choice, nil},
	} {
		r, _, err := tc.m.Settle(context.Background(), tc.a, tc.inh, 0, 0, nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var got, want bytes.Buffer
		n, err := r.WriteTo(&got)
		if err != nil || n != int64(got.Len()) {
			t.Fatalf("%s: WriteTo = %d, %v for %d bytes", tc.name, n, err, got.Len())
		}
		doc, err := r.Tree()
		if err != nil {
			t.Fatal(err)
		}
		if err := doc.WriteIndented(&want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%s: streamed document differs from its tree:\n%s\nwant\n%s", tc.name, got.Bytes(), want.Bytes())
		}
	}
}
