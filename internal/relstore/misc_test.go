package relstore

import (
	"strings"
	"testing"
)

func TestValueString(t *testing.T) {
	if Int(5).String() != "5" || String("x").String() != "'x'" || Null.String() != "NULL" {
		t.Errorf("Value.String: %s %s %s", Int(5), String("x"), Null)
	}
}

func TestSchemaProjectAndString(t *testing.T) {
	s := MustSchema("a:int", "b:string", "c:string")
	p := s.Project([]int{2, 0})
	if len(p) != 2 || p[0].Name != "c" || p[1].Name != "a" {
		t.Errorf("Project = %v", p)
	}
	if got := s.String(); got != "(a:int, b:string, c:string)" {
		t.Errorf("Schema.String = %q", got)
	}
	if s.Equal(p) || !s.Equal(MustSchema("a:int", "b:string", "c:string")) {
		t.Error("Schema.Equal wrong")
	}
	if s.Equal(MustSchema("a:int", "b:string", "c:int")) {
		t.Error("kind-differing schemas Equal")
	}
}

func TestTableMisc(t *testing.T) {
	tbl := NewTable("t", MustSchema("k:string", "n:int"))
	tbl.MustInsert(Tuple{String("a"), Int(1)})
	tbl.MustInsert(Tuple{String("b"), Int(2)})
	if tbl.Schema().String() != "(k:string, n:int)" {
		t.Errorf("Schema() = %v", tbl.Schema())
	}
	if len(tbl.Rows()) != 2 {
		t.Errorf("Rows() = %d", len(tbl.Rows()))
	}
	if got := tbl.Index([]int{0}).Lookup(Tuple{String("b")}); len(got) != 1 || got[0] != 1 {
		t.Errorf("Index.Lookup = %v", got)
	}
	if tbl.ByteSize() != tbl.Row(0).ByteSize()+tbl.Row(1).ByteSize() {
		t.Error("Table.ByteSize inconsistent with row sizes")
	}
	if s := tbl.String(); !strings.Contains(s, "t(k:string, n:int) [2 rows]") {
		t.Errorf("Table.String = %q", s)
	}
	// Truncated rendering beyond 20 rows.
	for i := 0; i < 25; i++ {
		tbl.MustInsert(Tuple{String("x"), Int(int64(i))})
	}
	if s := tbl.String(); !strings.Contains(s, "...") {
		t.Error("Table.String does not truncate")
	}
}

func TestMustInsertPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustInsert with bad tuple did not panic")
		}
	}()
	NewTable("t", MustSchema("a:int")).MustInsert(Tuple{String("no")})
}

func TestTupleStringAndByteSize(t *testing.T) {
	tup := Tuple{Int(1), String("ab"), Null}
	if tup.String() != "(1, 'ab', NULL)" {
		t.Errorf("Tuple.String = %q", tup.String())
	}
	if tup.ByteSize() != 8+6+1 {
		t.Errorf("Tuple.ByteSize = %d", tup.ByteSize())
	}
}

func TestDatabaseClone(t *testing.T) {
	db := NewDatabase("D")
	tbl := db.CreateTable("t", MustSchema("a:int"))
	tbl.MustInsert(Tuple{Int(1)})
	cp := db.Clone()
	cpt, err := cp.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	cpt.MustInsert(Tuple{Int(2)})
	if tbl.Len() != 1 || cpt.Len() != 2 {
		t.Error("Database.Clone not deep")
	}
}
