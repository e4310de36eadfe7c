package relstore

import "testing"

// newVersionedDB builds a database with one registered two-column table.
func newVersionedDB(t *testing.T) (*Database, *Table) {
	t.Helper()
	db := NewDatabase("DB1")
	tab := db.CreateTable("patient", MustSchema("SSN:string", "pname:string"))
	if err := tab.InsertValues("s1", "alice"); err != nil {
		t.Fatal(err)
	}
	return db, tab
}

func TestVersionBumpsOnMutations(t *testing.T) {
	db, tab := newVersionedDB(t)

	steps := []struct {
		name string
		op   func()
	}{
		{"Insert", func() { tab.MustInsert(Tuple{String("s2"), String("bob")}) }},
		{"InsertValues", func() { must(tab.InsertValues("s3", "carol")) }},
		{"Delete", func() { tab.DeleteWhere(Tuple{String("s2"), String("bob")}.Equal) }},
		{"AddTable", func() { db.AddTable(NewTable("extra", MustSchema("x:int"))) }},
		{"CreateTable", func() { db.CreateTable("extra2", MustSchema("y:int")) }},
		{"DropTable", func() { db.DropTable("extra") }},
	}
	for _, s := range steps {
		before := db.Version()
		s.op()
		if after := db.Version(); after <= before {
			t.Errorf("%s: version %d -> %d, want a bump", s.name, before, after)
		}
	}
}

func TestVersionBumpsThroughLateRegisteredTable(t *testing.T) {
	// A table built standalone and registered afterwards must still bump
	// the database on subsequent inserts.
	db := NewDatabase("DB1")
	tab := NewTable("billing", MustSchema("trId:string", "price:int"))
	tab.MustInsert(Tuple{String("t1"), Int(100)}) // pre-registration: no db yet
	db.AddTable(tab)
	before := db.Version()
	tab.MustInsert(Tuple{String("t2"), Int(250)})
	if after := db.Version(); after <= before {
		t.Fatalf("insert into registered table did not bump: %d -> %d", before, after)
	}
}

func TestVersionStableOnReads(t *testing.T) {
	db, tab := newVersionedDB(t)
	before := db.Version()

	if _, err := db.Table("patient"); err != nil {
		t.Fatal(err)
	}
	db.HasTable("patient")
	db.TableNames()
	tab.Len()
	tab.Rows()
	tab.Row(0)
	tab.Schema()
	tab.Lookup([]int{0}, Tuple{String("s1")})
	tab.Index([]int{1}).Lookup(Tuple{String("alice")})
	tab.DistinctCount(0)
	tab.ByteSize()
	tab.Equal(tab.Clone())
	_ = tab.String()

	if after := db.Version(); after != before {
		t.Fatalf("reads moved the version: %d -> %d", before, after)
	}
}

func TestVersionCloneIsIndependent(t *testing.T) {
	db, _ := newVersionedDB(t)
	clone := db.Clone()
	if clone.Version() != 0 {
		t.Fatalf("clone starts at version %d, want 0", clone.Version())
	}
	origBefore := db.Version()
	ct, err := clone.Table("patient")
	if err != nil {
		t.Fatal(err)
	}
	ct.MustInsert(Tuple{String("s9"), String("zoe")})
	if clone.Version() == 0 {
		t.Fatal("mutating the clone's table did not bump the clone")
	}
	if db.Version() != origBefore {
		t.Fatalf("mutating the clone bumped the original: %d -> %d", origBefore, db.Version())
	}
}

func TestVersionSeqlockParity(t *testing.T) {
	db, tab := newVersionedDB(t)
	if !db.Quiesced() {
		t.Fatal("quiescent database reports a mutation in flight")
	}
	// A probe hook registered after the database's own hooks observes the
	// version mid-mutation: it must be odd (write in flight), and land
	// even again once the mutation is complete.
	var during []uint64
	tab.hookMutations(func() { during = append(during, db.Version()) }, func() {})
	tab.MustInsert(Tuple{String("s4"), String("dave")})
	if len(during) != 1 || during[0]%2 == 0 {
		t.Fatalf("version during mutation = %v, want one odd value", during)
	}
	if v := db.Version(); v%2 != 0 {
		t.Fatalf("version %d after mutation, want even", v)
	}
	tab.MustInsert(Tuple{String("s4"), String("dave")})
	if _, err := tab.DeleteWhere(Tuple{String("s4"), String("dave")}.Equal); err != nil {
		t.Fatal(err)
	}
	if v := db.Version(); v%2 != 0 {
		t.Fatalf("version %d after mutation burst, want even", v)
	}
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
