package relstore

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// recount is the reference for the memoized DistinctCount: a fresh scan
// of the rows a reader sees now.
func recount(rows []Tuple, col int) int {
	seen := make(map[string]struct{})
	for _, row := range rows {
		seen[row[col].Key()] = struct{}{}
	}
	return len(seen)
}

func checkDistinct(t *testing.T, tab *Table, after string) {
	t.Helper()
	for pass := 0; pass < 2; pass++ { // the second pass reads the memo
		for col := range tab.Schema() {
			if got, want := tab.DistinctCount(col), recount(tab.Rows(), col); got != want {
				t.Fatalf("after %s (pass %d): DistinctCount(%d) = %d, recount %d", after, pass, col, got, want)
			}
		}
	}
}

// TestDistinctCountMemoTracksEveryMutator drives seeded random sequences
// of every operation that publishes a new snapshot — Insert,
// DeleteWhere, replicated deltas, replacement through AddTable, and WAL
// recovery — and after each one compares the memoized
// count of every column with a recount, with the memo warm before the
// mutation so a missed invalidation cannot hide.
func TestDistinctCountMemoTracksEveryMutator(t *testing.T) {
	schema := MustSchema("k:string", "n:int")
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		row := func() Tuple {
			return Tuple{String(fmt.Sprintf("k%d", rng.Intn(6))), Int(int64(rng.Intn(4)))}
		}
		dir := t.TempDir()
		db := NewDatabase("DB")
		tab := db.CreateTable("t", schema)
		p, err := db.Persist(PersistOptions{Dir: dir, Fsync: FsyncNever, SnapshotEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		checkDistinct(t, tab, "create")
		for step := 0; step < 60; step++ {
			op := ""
			switch k := rng.Intn(7); {
			case k < 3 || tab.Len() == 0:
				op = "Insert"
				tab.MustInsert(row())
			case k == 3:
				op = "DeleteWhere"
				victim := tab.Row(rng.Intn(tab.Len()))[0]
				if _, err := tab.DeleteWhere(func(r Tuple) bool { return r[0].Equal(victim) }); err != nil {
					t.Fatal(err)
				}
			case k == 4:
				op = "Delete row"
				if _, err := tab.DeleteWhere(tab.Row(rng.Intn(tab.Len())).Equal); err != nil {
					t.Fatal(err)
				}
			case k == 5:
				op = "ApplyChanges"
				// A mirror at the same version receives the next delta.
				ver := tab.Version()
				cs := ChangeSet{Table: "t", Since: ver, Now: ver + 1,
					Changes: []Change{{Ver: ver + 1, Op: ChangeInsert, Row: row()}}}
				mirror := NewTableWithState("t", schema, append([]Tuple(nil), tab.Rows()...), ver, TruncateNone)
				checkDistinct(t, mirror, "NewTableWithState")
				if _, err := mirror.ApplyChanges(cs); err != nil {
					t.Fatal(err)
				}
				checkDistinct(t, mirror, op)
			default:
				op = "AddTable replacement"
				// A persisted database's tables are fixed, so the
				// replacement runs on an unpersisted one.
				mem := NewDatabase("M")
				mem.AddTable(tab.Clone())
				next, err := TableFromRows("t", schema, []Tuple{row(), row(), row()})
				if err != nil {
					t.Fatal(err)
				}
				checkDistinct(t, next, "TableFromRows")
				mem.AddTable(next)
				checkDistinct(t, next, op)
			}
			checkDistinct(t, tab, op)
		}
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
		rdb, rp, err := Recover("DB", PersistOptions{Dir: dir, Fsync: FsyncNever, SnapshotEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		rtab, err := rdb.Table("t")
		if err != nil {
			t.Fatal(err)
		}
		if !rtab.Equal(tab) {
			t.Fatalf("seed %d: recovered table differs", seed)
		}
		checkDistinct(t, rtab, "Recover")
		rtab.MustInsert(row())
		checkDistinct(t, rtab, "Insert after Recover")
		if err := rp.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDistinctCountConcurrentReader reads counts while a writer inserts
// a known sequence: the table only grows and every k-th row brings a new
// value, so a count can never fall, and once the writer is done the memo
// must equal a recount. Run under -race.
func TestDistinctCountConcurrentReader(t *testing.T) {
	tab := NewTable("t", MustSchema("k:int", "c:int"))
	const rows = 2000
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rows; i++ {
			tab.MustInsert(Tuple{Int(int64(i / 4)), Int(7)})
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := 0
			for tab.Len() < rows {
				n := tab.DistinctCount(0)
				if n < last || n > rows/4 {
					t.Errorf("DistinctCount went %d -> %d under a growing table", last, n)
					return
				}
				last = n
				if c := tab.DistinctCount(1); c > 1 {
					t.Errorf("constant column has %d distinct values", c)
					return
				}
			}
		}()
	}
	wg.Wait()
	checkDistinct(t, tab, "concurrent inserts")
}

func TestTableFromRows(t *testing.T) {
	schema := MustSchema("k:string", "n:int")
	rows := make([]Tuple, 0, 8) // spare capacity the table must never write into
	rows = append(rows, Tuple{String("a"), Int(1)}, Tuple{String("b"), Null}, Tuple{String("a"), Int(1)})
	tab, err := TableFromRows("tmp", schema, rows)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Len() != 3 || tab.Version() != 0 {
		t.Errorf("Len %d Version %d, want 3 rows at version 0", tab.Len(), tab.Version())
	}
	if cs := tab.ChangesSince(0); cs.Truncated || len(cs.Changes) != 0 {
		t.Errorf("bulk-built table logged changes: %+v", cs)
	}
	if _, got := tab.Lookup([]int{0}, Tuple{String("a")}); len(got) != 2 {
		t.Errorf("Lookup = %v, want two positions", got)
	}

	// Mutating the table afterwards must leave the caller's slice alone.
	tab.MustInsert(Tuple{String("c"), Int(3)})
	if extra := rows[:4][3]; extra != nil {
		t.Errorf("Insert wrote into the caller's spare capacity: %v", extra)
	}
	if tab.Len() != 4 || tab.DistinctCount(0) != 3 {
		t.Errorf("after Insert: Len %d, DistinctCount %d", tab.Len(), tab.DistinctCount(0))
	}

	if _, err := TableFromRows("tmp", schema, []Tuple{{String("a")}}); err == nil {
		t.Error("short row accepted")
	}
	if _, err := TableFromRows("tmp", schema, []Tuple{{Int(1), Int(1)}}); err == nil {
		t.Error("wrong-kind value accepted")
	}
	if empty, err := TableFromRows("tmp", schema, nil); err != nil || empty.Len() != 0 {
		t.Errorf("empty build: %v, %v", empty, err)
	}

	kept, dropped := DistinctRows(rows)
	if len(kept) != 2 || len(dropped) != 1 || len(rows) != 3 {
		t.Errorf("DistinctRows kept %d, dropped %d (input now %d)", len(kept), len(dropped), len(rows))
	}
}

// BenchmarkDistinctCount is the planner's per-column statistics call on a
// visitInfo-sized table: "cold" invalidates the memo before every call
// (what every call cost before memoization), "memoized" is what a plan
// pays now.
func BenchmarkDistinctCount(b *testing.B) {
	tab := NewTable("visitInfo", MustSchema("SSN:string", "trId:string", "date:string"))
	for i := 0; i < 1100; i++ {
		tab.MustInsert(Tuple{String(fmt.Sprintf("s%04d", i%250)), String(fmt.Sprintf("t%04d", i%60)), String(fmt.Sprintf("d%03d", i%30))})
	}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tab.mu.Lock()
			tab.distinct = nil
			tab.mu.Unlock()
			benchCount = tab.DistinctCount(i % 3)
		}
	})
	b.Run("memoized", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchCount = tab.DistinctCount(i % 3)
		}
	})
}

var (
	benchCount int
	benchTable *Table
)

// BenchmarkTableFromRows builds a 100-row temporary (a typical query
// result) in one step and, for comparison, the way temporaries were built
// before: row-wise Insert.
func BenchmarkTableFromRows(b *testing.B) {
	schema := MustSchema("__parent:int", "trId:string", "tname:string")
	rows := make([]Tuple, 100)
	for i := range rows {
		rows[i] = Tuple{Int(int64(i)), String(fmt.Sprintf("t%04d", i)), String("name")}
	}
	b.Run("bulk", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			t, err := TableFromRows("q", schema, rows)
			if err != nil {
				b.Fatal(err)
			}
			benchTable = t
		}
	})
	b.Run("insert", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			t := NewTable("q", schema)
			for _, row := range rows {
				if err := t.Insert(row); err != nil {
					b.Fatal(err)
				}
			}
			benchTable = t
		}
	})
}
