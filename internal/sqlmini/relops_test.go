package sqlmini

import (
	"sort"
	"strings"
	"testing"

	"github.com/aigrepro/aig/internal/relstore"
)

func mkTable(name string, cols []string, rows ...[]any) *relstore.Table {
	t := relstore.NewTable(name, relstore.MustSchema(cols...))
	for _, r := range rows {
		if err := t.InsertValues(r...); err != nil {
			panic(err)
		}
	}
	return t
}

func TestOuterUnion(t *testing.T) {
	a := mkTable("a", []string{"x:string", "y:int"}, []any{"p", 1}, []any{"q", 2})
	b := mkTable("b", []string{"x:string", "z:string"}, []any{"r", "Z"})
	u, err := OuterUnion("u", []*relstore.Table{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if got := u.Schema().Names(); len(got) != 4 || got[0] != "x" || got[1] != "y" || got[2] != "z" || got[3] != TagColumn {
		t.Fatalf("union schema = %v", got)
	}
	if u.Len() != 3 {
		t.Fatalf("union has %d rows, want 3", u.Len())
	}
	// b's row must have Null y and tag 1.
	last := u.Row(2)
	if !last[1].IsNull() || last[3].AsInt() != 1 || last[2].AsString() != "Z" {
		t.Errorf("padded row wrong: %v", last)
	}

	// Extraction restores the original parts exactly.
	backA, err := ExtractPart("a", u, 0, a.Schema())
	if err != nil {
		t.Fatal(err)
	}
	if !backA.Equal(a) {
		t.Errorf("ExtractPart(0) = %v, want %v", backA, a)
	}
	backB, err := ExtractPart("b", u, 1, b.Schema())
	if err != nil {
		t.Fatal(err)
	}
	if !backB.Equal(b) {
		t.Errorf("ExtractPart(1) = %v, want %v", backB, b)
	}
}

func TestOuterUnionConflictsAndErrors(t *testing.T) {
	a := mkTable("a", []string{"x:string"}, []any{"p"})
	b := mkTable("b", []string{"x:int"}, []any{1})
	if _, err := OuterUnion("u", []*relstore.Table{a, b}); err == nil {
		t.Error("kind-conflicting union accepted")
	}
	c := mkTable("c", []string{TagColumn + ":int"}, []any{1})
	if _, err := OuterUnion("u", []*relstore.Table{c}); err == nil {
		t.Error("tag-colliding union accepted")
	}
	if _, err := ExtractPart("p", a, 0, a.Schema()); err == nil {
		t.Error("ExtractPart on non-union accepted")
	}
	u, _ := OuterUnion("u", []*relstore.Table{a})
	if _, err := ExtractPart("p", u, 0, relstore.MustSchema("zz:string")); err == nil {
		t.Error("ExtractPart with unknown column accepted")
	}
}

func TestLeftOuterJoin(t *testing.T) {
	l := mkTable("l", []string{"k:string", "a:int"}, []any{"x", 1}, []any{"y", 2}, []any{"z", 3})
	r := mkTable("r", []string{"k:string", "b:string"}, []any{"x", "bx"}, []any{"x", "bx2"}, []any{"y", "by"})
	j, err := LeftOuterJoin("j", l, r, []int{0}, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if j.Len() != 4 {
		t.Fatalf("outer join has %d rows, want 4", j.Len())
	}
	// z row must be null-padded.
	var sawNull bool
	for _, row := range j.Rows() {
		if row[0].AsString() == "z" {
			if !row[2].IsNull() || !row[3].IsNull() {
				t.Errorf("unmatched row not padded: %v", row)
			}
			sawNull = true
		}
	}
	if !sawNull {
		t.Error("unmatched left row missing from outer join")
	}
	// Schema disambiguation: right "k" becomes "k_2".
	if names := j.Schema().Names(); names[2] != "k_2" {
		t.Errorf("joined schema = %v", names)
	}
	if _, err := LeftOuterJoin("j", l, r, []int{0}, []int{0, 1}); err == nil {
		t.Error("mismatched key arity accepted")
	}
}

func TestProjectColumns(t *testing.T) {
	a := mkTable("a", []string{"x:string", "y:int"}, []any{"p", 1})
	p, err := ProjectColumns("p", a, []string{"y"})
	if err != nil {
		t.Fatal(err)
	}
	if p.Schema().Names()[0] != "y" || p.Row(0)[0].AsInt() != 1 {
		t.Errorf("projection wrong: %v", p)
	}
	if _, err := ProjectColumns("p", a, []string{"nope"}); err == nil {
		t.Error("projecting missing column accepted")
	}
}

func TestUnion(t *testing.T) {
	a := mkTable("a", []string{"x:int"}, []any{1})
	b := mkTable("b", []string{"x:int"}, []any{2}, []any{1})
	u, err := Union("u", a, b)
	if err != nil {
		t.Fatal(err)
	}
	if u.Len() != 3 {
		t.Errorf("union has %d rows, want 3 (bag union)", u.Len())
	}
	c := mkTable("c", []string{"y:int"}, []any{9})
	if _, err := Union("u", a, c); err == nil {
		t.Error("schema-mismatched union accepted")
	}
	if _, err := Union("u"); err == nil {
		t.Error("empty union accepted")
	}
}

// TestLeftOuterJoinCompositeKeyManyProbes probes one index many times
// with a two-column key: repeated and unmatched keys, Null key values,
// and a right side built in bulk.
func TestLeftOuterJoinCompositeKeyManyProbes(t *testing.T) {
	l := mkTable("l", []string{"a:string", "b:int", "v:string"},
		[]any{"x", 1, "l1"}, []any{"x", 2, "l2"}, []any{"x", 1, "l3"}, []any{"y", 1, "l4"}, []any{"x", nil, "l5"})
	r, err := Union("r",
		mkTable("r1", []string{"b:int", "a:string", "w:string"}, []any{1, "x", "r1"}, []any{2, "x", "r2"}),
		mkTable("r2", []string{"b:int", "a:string", "w:string"}, []any{1, "x", "r3"}, []any{nil, "x", "r4"}))
	if err != nil {
		t.Fatal(err)
	}
	j, err := LeftOuterJoin("j", l, r, []int{0, 1}, []int{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, row := range j.Rows() {
		got = append(got, row[2].Text()+">"+row[5].Text())
	}
	sort.Strings(got)
	want := "l1>r1,l1>r3,l2>r2,l3>r1,l3>r3,l4>,l5>r4"
	if strings.Join(got, ",") != want {
		t.Errorf("joined pairs %v, want %s", got, want)
	}
	// The join left its inputs as they were.
	if l.Len() != 5 || r.Len() != 4 {
		t.Errorf("inputs changed: %d left rows, %d right rows", l.Len(), r.Len())
	}
}
