package relstore

import (
	"sync"
	"testing"
	"time"
)

func replicaSchema(t *testing.T) Schema {
	t.Helper()
	s, err := ParseSchema([]string{"k:string", "n:int"})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestChangeSignalWakesOnMutation(t *testing.T) {
	db := NewDatabase("D")
	tab := db.CreateTable("t", replicaSchema(t))

	sig := db.ChangeSignal()
	select {
	case <-sig:
		t.Fatal("signal fired before any mutation")
	default:
	}
	if err := tab.InsertValues("a", 1); err != nil {
		t.Fatal(err)
	}
	select {
	case <-sig:
	case <-time.After(2 * time.Second):
		t.Fatal("signal did not fire after a row mutation")
	}

	// Catalog-level operations signal too.
	sig = db.ChangeSignal()
	db.DropTable("t")
	select {
	case <-sig:
	case <-time.After(2 * time.Second):
		t.Fatal("signal did not fire after DropTable")
	}
}

func TestChangeSignalNoMissedWakeup(t *testing.T) {
	// The contract: grab the channel, read state, wait. A mutation
	// landing between grab and wait must still wake the waiter.
	db := NewDatabase("D")
	tab := db.CreateTable("t", replicaSchema(t))
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		sig := db.ChangeSignal()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tab.MustInsert(Tuple{String("x"), Int(int64(i))})
		}(i)
		select {
		case <-sig:
		case <-time.After(5 * time.Second):
			t.Error("missed wakeup")
		}
		wg.Wait()
	}
}

func TestCaptureSnapshotCertified(t *testing.T) {
	db := NewDatabase("D")
	a := db.CreateTable("a", replicaSchema(t))
	b := db.CreateTable("b", replicaSchema(t))
	a.MustInsert(Tuple{String("x"), Int(1)})
	b.MustInsert(Tuple{String("y"), Int(2)})
	b.MustInsert(Tuple{String("z"), Int(3)})

	snaps, dbv, consistent := db.CaptureSnapshot(5)
	if !consistent {
		t.Fatal("quiescent capture should certify")
	}
	if dbv != db.Version() {
		t.Fatalf("capture version %d, database at %d", dbv, db.Version())
	}
	if len(snaps) != 2 || snaps[0].Name != "a" || snaps[1].Name != "b" {
		t.Fatalf("snaps = %+v, want sorted [a b]", snaps)
	}
	if len(snaps[1].Rows) != 2 || snaps[1].Version != b.Version() {
		t.Fatalf("table b snap = %+v", snaps[1])
	}
}

func TestNewTableWithStateFloorsLog(t *testing.T) {
	rows := []Tuple{{String("a"), Int(1)}}
	tab := NewTableWithState("t", replicaSchema(t), rows, 42, TruncateRolled)
	if tab.Version() != 42 || tab.Len() != 1 {
		t.Fatalf("version=%d len=%d, want 42/1", tab.Version(), tab.Len())
	}
	// Windows from before the snapshot report the install cause.
	cs := tab.ChangesSince(40)
	if !cs.Truncated || cs.Cause != TruncateRolled {
		t.Fatalf("pre-snapshot window = %+v, want truncated (rolled)", cs)
	}
	// The snapshot version itself is a clean (empty) window.
	if cs := tab.ChangesSince(42); cs.Truncated || len(cs.Changes) != 0 {
		t.Fatalf("at-snapshot window = %+v, want empty untruncated", cs)
	}
}

func TestInstallSnapshotTableKeepsLowerVersion(t *testing.T) {
	db := NewDatabase("D")
	old := NewTableWithState("t", replicaSchema(t), nil, 100, TruncateRestart)
	if err := db.InstallSnapshotTable(old); err != nil {
		t.Fatal(err)
	}
	// An origin restart hands the mirror a LOWER version; unlike
	// AddTable, the install must keep it (watermark fidelity).
	fresh := NewTableWithState("t", replicaSchema(t), []Tuple{{String("a"), Int(1)}}, 3, TruncateRestart)
	if err := db.InstallSnapshotTable(fresh); err != nil {
		t.Fatal(err)
	}
	got, err := db.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	if got.Version() != 3 {
		t.Fatalf("installed version = %d, want 3", got.Version())
	}
}

func TestApplyChangesReplaysAtOriginVersions(t *testing.T) {
	origin := NewDatabase("O")
	src := origin.CreateTable("t", replicaSchema(t))
	src.MustInsert(Tuple{String("a"), Int(1)})

	mirror := NewTableWithState("t", replicaSchema(t), []Tuple{{String("a"), Int(1)}}, src.Version(), TruncateRestart)
	base := src.Version()

	src.MustInsert(Tuple{String("b"), Int(2)})
	src.MustInsert(Tuple{String("c"), Int(3)})
	if _, err := src.DeleteWhere(Tuple{String("a"), Int(1)}.Equal); err != nil {
		t.Fatal(err)
	}
	n, err := src.DeleteWhere(func(r Tuple) bool { return r[1].AsInt() >= 2 }) // multi-row, one version
	if err != nil || n != 2 {
		t.Fatalf("DeleteWhere removed %d (%v), want 2", n, err)
	}

	cs := src.ChangesSince(base)
	if cs.Truncated {
		t.Fatalf("origin window truncated: %+v", cs)
	}
	applied, err := mirror.ApplyChanges(cs)
	if err != nil {
		t.Fatal(err)
	}
	if applied != len(cs.Changes) {
		t.Fatalf("applied %d of %d changes", applied, len(cs.Changes))
	}
	if mirror.Version() != src.Version() || !mirror.Equal(src) {
		t.Fatalf("mirror (v%d, %d rows) != origin (v%d, %d rows)",
			mirror.Version(), mirror.Len(), src.Version(), src.Len())
	}

	// Idempotence: re-applying the same window is a no-op (overlap skip).
	if n, err := mirror.ApplyChanges(cs); err != nil || n != 0 {
		t.Fatalf("re-apply = (%d, %v), want (0, nil)", n, err)
	}

	// A gap (window starting past the mirror) must be rejected, not
	// silently absorbed.
	gap := ChangeSet{Table: "t", Since: src.Version() + 5, Now: src.Version() + 6,
		Changes: []Change{{Ver: src.Version() + 6, Op: ChangeInsert, Row: Tuple{String("z"), Int(9)}}}}
	if _, err := mirror.ApplyChanges(gap); err == nil {
		t.Fatal("gap window applied without error")
	}

	// A delete for a row the mirror does not have is divergence.
	bad := ChangeSet{Table: "t", Since: mirror.Version(), Now: mirror.Version() + 1,
		Changes: []Change{{Ver: mirror.Version() + 1, Op: ChangeDelete, Row: Tuple{String("nope"), Int(0)}}}}
	if _, err := mirror.ApplyChanges(bad); err == nil {
		t.Fatal("divergent delete applied without error")
	}
}

func TestApplyChangesAdvancesEmptyWindows(t *testing.T) {
	origin := NewDatabase("O")
	src := origin.CreateTable("t", replicaSchema(t))
	src.MustInsert(Tuple{String("a"), Int(1)})
	src.MustInsert(Tuple{String("a"), Int(1)})
	mirrorRows := make([]Tuple, len(src.Rows()))
	copy(mirrorRows, src.Rows())
	mirror := NewTableWithState("t", replicaSchema(t), mirrorRows, src.Version(), TruncateRestart)

	base := src.Version()
	if _, err := src.DeleteWhere(Tuple{String("a"), Int(1)}.Equal); err != nil { // both copies, one version
		t.Fatal(err)
	}
	cs := src.ChangesSince(base)
	if _, err := mirror.ApplyChanges(cs); err != nil {
		t.Fatal(err)
	}
	if mirror.Version() != src.Version() || !mirror.Equal(src) {
		t.Fatalf("mirror diverged after multi-row version: v%d vs v%d", mirror.Version(), src.Version())
	}

	// A version advance with no row deltas still moves the watermark, or
	// the subscriber re-fetches forever.
	base = src.Version()
	cs = ChangeSet{Table: "t", Since: base, Now: base + 1}
	if _, err := mirror.ApplyChanges(cs); err != nil {
		t.Fatal(err)
	}
	if mirror.Version() != base+1 {
		t.Fatalf("empty window did not advance mirror: v%d, want v%d", mirror.Version(), base+1)
	}
}
