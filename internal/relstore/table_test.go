package relstore

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func sampleTable(t *testing.T) *Table {
	t.Helper()
	tbl := NewTable("patient", MustSchema("SSN:int", "pname:string", "policy:string"))
	tbl.MustInsert(Tuple{Int(1), String("alice"), String("gold")})
	tbl.MustInsert(Tuple{Int(2), String("bob"), String("silver")})
	tbl.MustInsert(Tuple{Int(3), String("carol"), String("gold")})
	return tbl
}

// TestIndexCarriesItsSnapshot pins the index contract the executor
// relies on: an index keeps answering against the snapshot it was built
// from after writers publish, its positions ascend in that snapshot's
// order, and the next Index call sees the new snapshot.
func TestIndexCarriesItsSnapshot(t *testing.T) {
	tbl := sampleTable(t)
	gold := Tuple{String("gold")}
	ix := tbl.Index([]int{2})
	if again := tbl.Index([]int{2}); again != ix {
		t.Fatal("index not cached")
	}
	before := ix.Rows()
	if _, err := tbl.DeleteWhere(func(row Tuple) bool { return row[1].AsString() == "alice" }); err != nil {
		t.Fatal(err)
	}
	tbl.MustInsert(Tuple{Int(1), String("alice"), String("gold")})
	if len(ix.Rows()) != len(before) || &ix.Rows()[0] != &before[0] {
		t.Fatal("index rows moved with the table")
	}
	var names []string
	for _, p := range ix.Lookup(gold) {
		names = append(names, ix.Rows()[p][1].AsString())
	}
	if strings.Join(names, ",") != "alice,carol" {
		t.Errorf("old index answers %v, want alice,carol", names)
	}
	fresh := tbl.Index([]int{2})
	names = names[:0]
	rows, pos := tbl.Lookup([]int{2}, gold)
	for _, p := range pos {
		names = append(names, rows[p][1].AsString())
	}
	if fresh == ix || strings.Join(names, ",") != "carol,alice" {
		t.Errorf("after the writes Lookup answers %v, want carol,alice from a new index", names)
	}
	if got := ix.Lookup(Tuple{String("platinum")}); len(got) != 0 {
		t.Errorf("absent key matched %v", got)
	}
}

func TestSchemaParse(t *testing.T) {
	s, err := ParseSchema([]string{"a:int", "b", "c:string"})
	if err != nil {
		t.Fatal(err)
	}
	want := Schema{{"a", KindInt}, {"b", KindString}, {"c", KindString}}
	if !s.Equal(want) {
		t.Errorf("ParseSchema = %v, want %v", s, want)
	}
	if _, err := ParseSchema([]string{"a:int", "a:string"}); err == nil {
		t.Error("duplicate column accepted")
	}
	if _, err := ParseSchema([]string{":int"}); err == nil {
		t.Error("empty column name accepted")
	}
	if _, err := ParseSchema([]string{"a:bogus"}); err == nil {
		t.Error("bogus kind accepted")
	}
}

func TestSchemaColumnIndex(t *testing.T) {
	s := MustSchema("a:int", "b:string")
	if s.ColumnIndex("a") != 0 || s.ColumnIndex("b") != 1 || s.ColumnIndex("z") != -1 {
		t.Errorf("ColumnIndex wrong: %d %d %d", s.ColumnIndex("a"), s.ColumnIndex("b"), s.ColumnIndex("z"))
	}
	if !s.HasColumn("a") || s.HasColumn("z") {
		t.Error("HasColumn wrong")
	}
}

func TestSchemaConcatDisambiguates(t *testing.T) {
	s := MustSchema("a:int", "b:string").Concat(MustSchema("a:string", "c:int"))
	names := s.Names()
	want := []string{"a", "b", "a_2", "c"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("Concat names = %v, want %v", names, want)
	}
}

func TestSchemaValidate(t *testing.T) {
	s := MustSchema("a:int", "b:string")
	if err := s.Validate(Tuple{Int(1), String("x")}); err != nil {
		t.Errorf("valid tuple rejected: %v", err)
	}
	if err := s.Validate(Tuple{Null, Null}); err != nil {
		t.Errorf("null tuple rejected: %v", err)
	}
	if err := s.Validate(Tuple{String("1"), String("x")}); err == nil {
		t.Error("kind mismatch accepted")
	}
	if err := s.Validate(Tuple{Int(1)}); err == nil {
		t.Error("arity mismatch accepted")
	}
}

func TestTableInsertAndLookup(t *testing.T) {
	tbl := sampleTable(t)
	if tbl.Len() != 3 {
		t.Fatalf("Len = %d, want 3", tbl.Len())
	}
	rows, pos := tbl.Lookup([]int{2}, Tuple{String("gold")})
	if len(pos) != 2 {
		t.Fatalf("Lookup(policy=gold) = %d rows, want 2", len(pos))
	}
	if got := rows[pos[0]][1].AsString(); got != "alice" {
		t.Errorf("first gold patient = %q, want alice", got)
	}
	// Index invalidation after insert.
	tbl.MustInsert(Tuple{Int(4), String("dan"), String("gold")})
	if _, pos := tbl.Lookup([]int{2}, Tuple{String("gold")}); len(pos) != 3 {
		t.Errorf("after insert Lookup = %d rows, want 3", len(pos))
	}
}

func TestTableInsertRejectsBadTuples(t *testing.T) {
	tbl := sampleTable(t)
	if err := tbl.Insert(Tuple{String("oops"), String("x"), String("y")}); err == nil {
		t.Error("kind-mismatched insert accepted")
	}
	if err := tbl.Insert(Tuple{Int(9)}); err == nil {
		t.Error("short insert accepted")
	}
}

func TestTableInsertValues(t *testing.T) {
	tbl := NewTable("t", MustSchema("a:int", "b:string"))
	if err := tbl.InsertValues(1, "x"); err != nil {
		t.Fatal(err)
	}
	if err := tbl.InsertValues("2", "y"); err != nil { // int parsed from string
		t.Fatal(err)
	}
	if err := tbl.InsertValues(nil, "z"); err != nil {
		t.Fatal(err)
	}
	if err := tbl.InsertValues(Int(4), String("w")); err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 4 || tbl.Row(1)[0].AsInt() != 2 {
		t.Errorf("InsertValues produced %v", tbl)
	}
	if err := tbl.InsertValues(1); err == nil {
		t.Error("wrong arity accepted")
	}
	if err := tbl.InsertValues(1.5, "x"); err == nil {
		t.Error("unsupported type accepted")
	}
}

func TestTableEqualIsMultisetEqual(t *testing.T) {
	a := NewTable("a", MustSchema("x:int"))
	b := NewTable("b", MustSchema("x:int"))
	for _, v := range []int64{1, 2, 2} {
		a.MustInsert(Tuple{Int(v)})
	}
	for _, v := range []int64{2, 1, 2} {
		b.MustInsert(Tuple{Int(v)})
	}
	if !a.Equal(b) {
		t.Error("permuted tables not Equal")
	}
	b.MustInsert(Tuple{Int(2)})
	if a.Equal(b) {
		t.Error("different-cardinality tables Equal")
	}
	c := NewTable("c", MustSchema("x:int"))
	for _, v := range []int64{1, 1, 2} {
		c.MustInsert(Tuple{Int(v)})
	}
	if a.Equal(c) {
		t.Error("different multiplicities Equal")
	}
}

func TestTableDistinctCount(t *testing.T) {
	tbl := sampleTable(t)
	if got := tbl.DistinctCount(2); got != 2 {
		t.Errorf("DistinctCount(policy) = %d, want 2", got)
	}
	if got := tbl.DistinctCount(0); got != 3 {
		t.Errorf("DistinctCount(SSN) = %d, want 3", got)
	}
}

func TestTableCloneIsDeep(t *testing.T) {
	tbl := sampleTable(t)
	cp := tbl.Clone()
	cp.MustInsert(Tuple{Int(4), String("dan"), String("gold")})
	if tbl.Len() != 3 || cp.Len() != 4 {
		t.Errorf("Clone not independent: %d vs %d", tbl.Len(), cp.Len())
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tbl := sampleTable(t)
	tbl.MustInsert(Tuple{Int(5), String("has,comma"), String("\"quoted\"")})
	var buf bytes.Buffer
	if err := tbl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV("patient", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !tbl.Equal(got) {
		t.Errorf("CSV round trip changed table:\n%v\n%v", tbl, got)
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV("t", strings.NewReader("a:bogus\n1\n")); err == nil {
		t.Error("bad header accepted")
	}
	if _, err := ReadCSV("t", strings.NewReader("a:int\nxyz\n")); err == nil {
		t.Error("bad int cell accepted")
	}
	if _, err := ReadCSV("t", strings.NewReader("a:int,b:string\n1\n")); err == nil {
		t.Error("short row accepted")
	}
}

func TestDatabaseAndCatalog(t *testing.T) {
	db := NewDatabase("DB1")
	db.AddTable(sampleTable(t))
	if !db.HasTable("patient") {
		t.Fatal("HasTable(patient) = false")
	}
	if _, err := db.Table("nope"); err == nil {
		t.Error("missing table lookup succeeded")
	}
	db.CreateTable("visitInfo", MustSchema("SSN:int", "trId:string", "date:string"))
	names := db.TableNames()
	if len(names) != 2 || names[0] != "patient" || names[1] != "visitInfo" {
		t.Errorf("TableNames = %v", names)
	}
	db.DropTable("visitInfo")
	if db.HasTable("visitInfo") {
		t.Error("DropTable did not drop")
	}

	cat := NewCatalog()
	cat.Add(db)
	if _, err := cat.Table("DB1", "patient"); err != nil {
		t.Errorf("catalog lookup failed: %v", err)
	}
	if _, err := cat.Table("DBX", "patient"); err == nil {
		t.Error("missing database lookup succeeded")
	}
	if got := cat.DatabaseNames(); len(got) != 1 || got[0] != "DB1" {
		t.Errorf("DatabaseNames = %v", got)
	}
}

func TestDatabaseSaveLoadDir(t *testing.T) {
	dir := t.TempDir()
	db := NewDatabase("DB1")
	db.AddTable(sampleTable(t))
	if err := db.SaveDir(filepath.Join(dir, "db1")); err != nil {
		t.Fatal(err)
	}
	got, err := LoadDir("DB1", filepath.Join(dir, "db1"))
	if err != nil {
		t.Fatal(err)
	}
	orig, _ := db.Table("patient")
	loaded, err := got.Table("patient")
	if err != nil {
		t.Fatal(err)
	}
	if !orig.Equal(loaded) {
		t.Error("SaveDir/LoadDir round trip changed data")
	}
}

type quickTuple struct{ T Tuple }

func (quickTuple) Generate(r *rand.Rand, _ int) reflect.Value {
	n := r.Intn(5)
	tup := make(Tuple, n)
	for i := range tup {
		tup[i] = randomValue(r)
	}
	return reflect.ValueOf(quickTuple{T: tup})
}

// Property: Tuple.Key is injective on tuples (distinct tuples get distinct
// keys, equal tuples get equal keys).
func TestTupleKeyProperty(t *testing.T) {
	f := func(a, b quickTuple) bool {
		return a.T.Equal(b.T) == (a.T.Key() == b.T.Key())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: Compare is a total order consistent with Equal.
func TestTupleCompareProperty(t *testing.T) {
	f := func(a, b quickTuple) bool {
		c1, c2 := a.T.Compare(b.T), b.T.Compare(a.T)
		return c1 == -c2 && (c1 == 0) == a.T.Equal(b.T)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTupleProjectConcat(t *testing.T) {
	tup := Tuple{Int(1), String("a"), Int(3)}
	p := tup.Project([]int{2, 0})
	if !p.Equal(Tuple{Int(3), Int(1)}) {
		t.Errorf("Project = %v", p)
	}
	c := p.Concat(Tuple{String("z")})
	if !c.Equal(Tuple{Int(3), Int(1), String("z")}) {
		t.Errorf("Concat = %v", c)
	}
	if tup.KeyOn([]int{2, 0}) != p.Key() {
		t.Error("KeyOn disagrees with Project().Key()")
	}
}
