package relstore

import (
	"fmt"
	"sync"
	"testing"
)

func deltaTable(t *testing.T) *Table {
	t.Helper()
	tab := NewTable("p", Schema{{Name: "id", Kind: KindString}, {Name: "n", Kind: KindInt}})
	tab.MustInsert(Tuple{String("a"), Int(1)})
	tab.MustInsert(Tuple{String("b"), Int(2)})
	tab.MustInsert(Tuple{String("c"), Int(3)})
	return tab
}

func TestVersionAdvancesPerMutation(t *testing.T) {
	tab := deltaTable(t)
	if got := tab.Version(); got != 3 {
		t.Fatalf("version after 3 inserts = %d, want 3", got)
	}
	if n, err := tab.DeleteWhere(Tuple{String("b"), Int(2)}.Equal); err != nil || n != 1 {
		t.Fatalf("delete: %d rows, %v", n, err)
	}
	if got := tab.Version(); got != 4 {
		t.Fatalf("version after delete = %d, want 4", got)
	}
	if tab.Len() != 2 {
		t.Fatalf("len after delete = %d, want 2", tab.Len())
	}
}

func TestChangesSinceReplaysToCurrentState(t *testing.T) {
	tab := deltaTable(t)
	base := tab.Version()
	baseRows := tab.Rows()
	tab.MustInsert(Tuple{String("d"), Int(4)})
	if _, err := tab.DeleteWhere(Tuple{String("a"), Int(1)}.Equal); err != nil {
		t.Fatal(err)
	}
	cs := tab.ChangesSince(base)
	if cs.Truncated {
		t.Fatal("unexpected truncation")
	}
	if cs.Since != base || cs.Now != tab.Version() {
		t.Fatalf("window = (%d,%d], want (%d,%d]", cs.Since, cs.Now, base, tab.Version())
	}
	// Replay the deltas over the base snapshot; the multiset must equal
	// the current rows.
	counts := make(map[string]int)
	for _, row := range baseRows {
		counts[row.Key()]++
	}
	for _, ch := range cs.Changes {
		switch ch.Op {
		case ChangeInsert:
			counts[ch.Row.Key()]++
		case ChangeDelete:
			counts[ch.Row.Key()]--
		}
	}
	for _, row := range tab.Rows() {
		counts[row.Key()]--
	}
	for k, n := range counts {
		if n != 0 {
			t.Fatalf("replay mismatch at %q: %+d", k, n)
		}
	}
}

func TestChangesSinceBeyondNowIsTruncated(t *testing.T) {
	tab := deltaTable(t)
	cs := tab.ChangesSince(tab.Version() + 10)
	if !cs.Truncated {
		t.Fatal("future since must report truncated")
	}
}

// TestDisablingLogResetsIt: turning delta logging off resets the log, so
// a window spanning the switch is truncated with cause reset, and logging
// turned back on covers windows from then on.
func TestDisablingLogResetsIt(t *testing.T) {
	tab := deltaTable(t)
	base := tab.Version()
	tab.SetChangeLogLimit(-1)
	tab.MustInsert(Tuple{String("d"), Int(4)})
	if cs := tab.ChangesSince(base); !cs.Truncated || cs.Cause != TruncateReset {
		t.Fatalf("window spanning the reset = %+v, want truncated by reset", cs)
	}
	tab.SetChangeLogLimit(0)
	since := tab.Version()
	tab.MustInsert(Tuple{String("e"), Int(5)})
	if cs := tab.ChangesSince(since); cs.Truncated || len(cs.Changes) != 1 {
		t.Fatalf("window after re-enabling = %+v, want one insert", cs)
	}
}

func TestBoundedLogTruncates(t *testing.T) {
	tab := NewTable("p", Schema{{Name: "n", Kind: KindInt}})
	tab.SetChangeLogLimit(4)
	for i := 0; i < 10; i++ {
		tab.MustInsert(Tuple{Int(int64(i))})
	}
	if cs := tab.ChangesSince(0); !cs.Truncated {
		t.Fatal("window older than the bounded log must be truncated")
	}
	cs := tab.ChangesSince(6)
	if cs.Truncated || len(cs.Changes) != 4 {
		t.Fatalf("recent window = %+v, want 4 changes", cs)
	}
}

func TestDisabledLogAlwaysTruncates(t *testing.T) {
	tab := NewTable("p", Schema{{Name: "n", Kind: KindInt}})
	tab.SetChangeLogLimit(-1)
	v := tab.Version()
	tab.MustInsert(Tuple{Int(1)})
	if cs := tab.ChangesSince(v); !cs.Truncated {
		t.Fatal("disabled log must truncate every non-empty window")
	}
}

func TestDeleteWhereLogsEachRow(t *testing.T) {
	tab := deltaTable(t)
	base := tab.Version()
	n, err := tab.DeleteWhere(func(row Tuple) bool { return row[1].Compare(Int(2)) <= 0 })
	if err != nil || n != 2 {
		t.Fatalf("DeleteWhere removed %d (%v), want 2", n, err)
	}
	if got := tab.Version(); got != base+1 {
		t.Fatalf("DeleteWhere bumped version to %d, want %d", got, base+1)
	}
	cs := tab.ChangesSince(base)
	if cs.Truncated || len(cs.Changes) != 2 {
		t.Fatalf("changes = %+v, want 2 deletes", cs)
	}
}

func TestAddTableReplacementKeepsVersionsMonotonic(t *testing.T) {
	db := NewDatabase("DB1")
	a := NewTable("p", Schema{{Name: "n", Kind: KindInt}})
	db.AddTable(a)
	a.MustInsert(Tuple{Int(1)})
	a.MustInsert(Tuple{Int(2)})
	seen := a.Version()

	b := NewTable("p", Schema{{Name: "n", Kind: KindInt}})
	b.MustInsert(Tuple{Int(9)})
	db.AddTable(b)
	if b.Version() <= seen {
		t.Fatalf("replacement version %d not past predecessor's %d", b.Version(), seen)
	}
	cs, err := db.ChangesSince("p", seen)
	if err != nil {
		t.Fatal(err)
	}
	if !cs.Truncated {
		t.Fatal("delta window across a table replacement must be truncated")
	}
	vers := db.TableVersions()
	if vers["p"] != b.Version() {
		t.Fatalf("TableVersions = %v, want p=%d", vers, b.Version())
	}
}

func TestConcurrentReadersSeeConsistentSnapshots(t *testing.T) {
	tab := NewTable("p", Schema{{Name: "id", Kind: KindString}, {Name: "n", Kind: KindInt}})
	tab.MustInsert(Tuple{String("seed"), Int(0)})
	const writes = 400
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := tab.Version()
				rows := tab.Rows()
				// A snapshot loaded after observing version v must
				// contain at least the rows present at v (inserts only
				// grow this table).
				if uint64(len(rows)) < v {
					t.Errorf("version %d but snapshot has %d rows", v, len(rows))
					return
				}
				for _, row := range rows {
					_ = row.Key() // must never observe torn tuples
				}
				_ = tab.DistinctCount(1)
				_ = tab.ByteSize()
			}
		}()
	}
	for i := 0; i < writes; i++ {
		tab.MustInsert(Tuple{String(fmt.Sprintf("w%d", i)), Int(int64(i))})
	}
	close(stop)
	wg.Wait()
}
