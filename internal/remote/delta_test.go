package remote

import (
	"reflect"
	"testing"

	"github.com/aigrepro/aig/internal/hospital"
	"github.com/aigrepro/aig/internal/relstore"
)

func TestDeltaAPIOverWire(t *testing.T) {
	cat := hospital.TinyCatalog()
	reg := serveCatalog(t, cat)
	src, err := reg.Get("DB1")
	if err != nil {
		t.Fatal(err)
	}
	db, err := cat.Database("DB1")
	if err != nil {
		t.Fatal(err)
	}

	before, err := src.TableVersions()
	if err != nil {
		t.Fatal(err)
	}
	local := db.TableVersions()
	if !reflect.DeepEqual(before, local) {
		t.Fatalf("remote TableVersions = %v, local = %v", before, local)
	}

	visit, err := db.Table("visitInfo")
	if err != nil {
		t.Fatal(err)
	}
	since := visit.Version()
	if err := visit.InsertValues("s9", "t9", "d9"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Mutate("visitInfo", relstore.OpDelete, visit.Row(0).Texts()); err != nil {
		t.Fatal(err)
	}

	cs, err := src.ChangesSince("visitInfo", since)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Truncated {
		t.Fatal("unexpected truncation")
	}
	want := visit.ChangesSince(since)
	if !reflect.DeepEqual(cs, want) {
		t.Fatalf("wire ChangeSet = %+v, local = %+v", cs, want)
	}
	if len(cs.Changes) != 2 ||
		cs.Changes[0].Op != relstore.ChangeInsert ||
		cs.Changes[1].Op != relstore.ChangeDelete {
		t.Fatalf("changes = %+v, want insert+delete", cs.Changes)
	}

	// Unknown-window requests report truncation, not an error.
	cs, err = src.ChangesSince("visitInfo", visit.Version()+100)
	if err != nil {
		t.Fatal(err)
	}
	if !cs.Truncated {
		t.Fatal("future window must be truncated")
	}

	// Unknown tables are an error, matching the local source.
	if _, err := src.ChangesSince("nope", 0); err == nil {
		t.Fatal("expected error for unknown table")
	}
}
