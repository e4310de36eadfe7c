package relstore

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
)

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

// TestVersionSeqlockParity holds Insert, DeleteWhere and ApplyChanges
// to the seqlock proof result caches rely on. Each write moves the
// version by exactly 2 and leaves it even; and an observer that reads an
// even version, then the data, then the same version sees exactly the
// state that version names. A write that published its rows outside its
// odd bracket would let the observer pair a version with rows it does
// not name.
func TestVersionSeqlockParity(t *testing.T) {
	db, tab := newVersionedDB(t)
	if db.Version()%2 != 0 {
		t.Fatal("quiescent database reports a mutation in flight")
	}
	row := Tuple{String("s4"), String("dave")}
	mirror := func(op ChangeOp) func() {
		return func() {
			v := tab.Version()
			cs := ChangeSet{Table: tab.Name(), Since: v, Now: v + 1,
				Changes: []Change{{Ver: v + 1, Op: op, Row: row}}}
			if _, err := tab.ApplyChanges(cs); err != nil {
				t.Error(err)
			}
		}
	}
	// The cycle alternates 2 and 1 rows, so the rows an even version
	// names follow from how many writes it counts.
	writes := []func(){
		func() { tab.MustInsert(row) },
		func() { must2(tab.DeleteWhere(row.Equal)) },
		mirror(ChangeInsert),
		mirror(ChangeDelete),
	}
	base := db.Version()
	want := func(v uint64) int { return 1 + int((v-base)/2)%2 }

	var stop atomic.Bool
	defer stop.Store(true)
	done := make(chan struct{})
	var checked, torn int
	go func() {
		defer close(done)
		for !stop.Load() {
			v := db.Version()
			n := tab.Len()
			if v%2 == 0 && db.Version() == v {
				checked++
				if n != want(v) {
					torn++
				}
			}
		}
	}()
	for i := 0; i < 20000; i++ {
		before := db.Version()
		writes[i%len(writes)]()
		if after := db.Version(); after != before+2 {
			t.Fatalf("write %d moved the version %d -> %d, want +2", i, before, after)
		}
	}
	stop.Store(true)
	<-done
	if torn > 0 {
		t.Fatalf("%d of %d even-version reads saw rows their version does not name", torn, checked)
	}
}

// TestTableHasOneOwner: a table's writes bracket exactly one database —
// the one it is registered in — once per write.
func TestTableHasOneOwner(t *testing.T) {
	db, tab := newVersionedDB(t)
	moves := func(tab *Table, row Tuple) (uint64, bool) {
		before, sig := db.Version(), db.ChangeSignal()
		tab.MustInsert(row)
		select {
		case <-sig:
			return db.Version() - before, true
		default:
			return db.Version() - before, false
		}
	}

	db.AddTable(tab)
	if d, woke := moves(tab, Tuple{String("s2"), String("bob")}); d != 2 || !woke {
		t.Errorf("re-added table's insert moved the version by %d (woke %v), want 2 and a wakeup", d, woke)
	}

	db.AddTable(NewTable("patient", tab.Schema()))
	if d, woke := moves(tab, Tuple{String("s3"), String("carol")}); d != 0 || woke {
		t.Errorf("replaced table's insert moved the version by %d (woke %v), want 0 and no wakeup", d, woke)
	}
	dropped, err := db.Table("patient")
	if err != nil {
		t.Fatal(err)
	}
	db.DropTable("patient")
	if d, woke := moves(dropped, Tuple{String("s4"), String("dave")}); d != 0 || woke {
		t.Errorf("dropped table's insert moved the version by %d (woke %v), want 0 and no wakeup", d, woke)
	}

	other := NewDatabase("DB2")
	foreign := other.CreateTable("billing", MustSchema("trId:string"))
	func() {
		defer func() {
			msg := fmt.Sprint(recover())
			if !strings.Contains(msg, `"DB1"`) || !strings.Contains(msg, `"DB2"`) {
				t.Errorf("adding DB2's table to DB1 panicked with %q, want both databases named", msg)
			}
		}()
		db.AddTable(foreign)
	}()
	// A retired table is free to join another database.
	other.AddTable(dropped)
	before := other.Version()
	dropped.MustInsert(Tuple{String("s5"), String("eve")})
	if d := other.Version() - before; d != 2 {
		t.Errorf("retired table's insert moved its new owner by %d, want 2", d)
	}

	clone := other.Clone()
	ct, err := clone.Table("billing")
	if err != nil {
		t.Fatal(err)
	}
	origBefore, cloneBefore := other.Version(), clone.Version()
	ct.MustInsert(Tuple{String("t1")})
	if other.Version() != origBefore || clone.Version() != cloneBefore+2 {
		t.Errorf("clone's insert moved original %d -> %d and clone %d -> %d, want only the clone by 2",
			origBefore, other.Version(), cloneBefore, clone.Version())
	}
}

func must2(_ int, err error) { must(err) }

func must(err error) {
	if err != nil {
		panic(err)
	}
}
