package aig

import (
	"testing"

	"github.com/aigrepro/aig/internal/relstore"
)

// TestSubsetGuard exercises the subset guard both passing and failing.
func TestSubsetGuard(t *testing.T) {
	decl := Attr(SetMember("small", "v:string"), SetMember("big", "v:string"))
	v := NewAttrValue(decl)
	if err := v.SetCollection("small", []relstore.Tuple{{relstore.String("a")}}); err != nil {
		t.Fatal(err)
	}
	if err := v.SetCollection("big", []relstore.Tuple{{relstore.String("a")}, {relstore.String("b")}}); err != nil {
		t.Fatal(err)
	}
	g := Guard{Kind: GuardSubset, Sub: "small", Super: "big"}
	ok, err := evalGuard(g, v)
	if err != nil || !ok {
		t.Errorf("subset guard: %v, %v", ok, err)
	}
	if err := v.SetCollection("small", []relstore.Tuple{{relstore.String("z")}}); err != nil {
		t.Fatal(err)
	}
	ok, err = evalGuard(g, v)
	if err != nil || ok {
		t.Errorf("violated subset guard passed: %v, %v", ok, err)
	}
	// Guards over missing members error.
	if _, err := evalGuard(Guard{Kind: GuardSubset, Sub: "ghost", Super: "big"}, v); err == nil {
		t.Error("guard over missing member accepted")
	}
	if _, err := evalGuard(Guard{Kind: GuardUnique, Member: "ghost"}, v); err == nil {
		t.Error("unique guard over missing member accepted")
	}
}
