package remote

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"github.com/aigrepro/aig/internal/relstore"
)

// subTestDB builds a database with one logged table "visit".
func subTestDB(t *testing.T, rows int) *relstore.Database {
	t.Helper()
	db := relstore.NewDatabase("DB1")
	visit := db.CreateTable("visit", mustSchema(t, "ssn:string", "day:string"))
	for i := 0; i < rows; i++ {
		if err := visit.InsertValues(sprintfRow("s", i), sprintfRow("d", i)); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func mustSchema(t *testing.T, spec ...string) relstore.Schema {
	t.Helper()
	s, err := relstore.ParseSchema(spec)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func sprintfRow(prefix string, i int) string {
	return prefix + string(rune('0'+i%10)) + string(rune('0'+(i/10)%10))
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// mirrorMatches reports whether the mirror's table equals the origin's,
// rows and version both.
func mirrorMatches(origin, mirror *relstore.Database, table string) bool {
	ot, err1 := origin.Table(table)
	mt, err2 := mirror.Table(table)
	if err1 != nil || err2 != nil {
		return false
	}
	return ot.Version() == mt.Version() && ot.Equal(mt)
}

func TestMirrorInitialSyncAndDeltaTail(t *testing.T) {
	db := subTestDB(t, 7)
	srv := NewServer(db)
	srv.HeartbeatEvery = 50 * time.Millisecond
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var kicks atomic.Int64
	m := OpenMirror("DB1", addr, MirrorOptions{
		Timeouts:     Timeouts{Dial: 2 * time.Second, Read: 2 * time.Second},
		ReconnectMin: 10 * time.Millisecond,
		OnApply:      func() { kicks.Add(1) },
	})
	defer m.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := m.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}
	if !mirrorMatches(db, m.DB(), "visit") {
		t.Fatalf("mirror does not match origin after initial sync")
	}
	if st := m.Stats(); st.InitialSyncs != 1 {
		t.Fatalf("initial syncs = %d, want 1", st.InitialSyncs)
	}
	if kicks.Load() == 0 {
		t.Fatal("OnApply did not fire for the initial sync")
	}

	// The delta tail: inserts and deletes at the origin flow through the
	// push stream and land at the origin's version numbers.
	visit, _ := db.Table("visit")
	before := visit.Version()
	if err := visit.InsertValues("s99", "d99"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Mutate("visit", relstore.OpDelete, visit.Row(0).Texts()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "delta tail to apply", func() bool {
		return mirrorMatches(db, m.DB(), "visit")
	})
	mt, _ := m.DB().Table("visit")
	if mt.Version() != before+2 {
		t.Fatalf("mirror version = %d, want %d (origin watermarks must survive)", mt.Version(), before+2)
	}

	// The mirror answers ChangesSince with origin-meaningful watermarks:
	// the window covering the two deltas replays them exactly.
	cs := mt.ChangesSince(before)
	if cs.Truncated || len(cs.Changes) != 2 {
		t.Fatalf("mirror ChangesSince(%d) = %+v, want 2 untruncated changes", before, cs)
	}
	if cs.Changes[0].Op != relstore.ChangeInsert || cs.Changes[1].Op != relstore.ChangeDelete {
		t.Fatalf("mirror replayed ops = %v,%v, want insert,delete", cs.Changes[0].Op, cs.Changes[1].Op)
	}
}

// TestMirrorTruncationCausePropagation is the end-to-end check that an
// ErrLogTruncated cause survives the whole subscription path: a
// subscriber that falls past the origin's bounded change-log horizon is
// caught up by snapshot, the catch-up is metered under the origin's
// cause (rolled), AND the mirror's own ChangesSince re-reports that
// cause to ITS consumers (the serving-side refresher) for windows older
// than the snapshot.
func TestMirrorTruncationCausePropagation(t *testing.T) {
	db := subTestDB(t, 3)
	visit, _ := db.Table("visit")
	visit.SetChangeLogLimit(4)

	srv := NewServer(db)
	srv.HeartbeatEvery = 50 * time.Millisecond
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	m := OpenMirror("DB1", addr, MirrorOptions{
		Timeouts:     Timeouts{Dial: 2 * time.Second, Read: time.Second},
		ReconnectMin: 10 * time.Millisecond,
	})
	defer m.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := m.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}
	stale := func() uint64 {
		mt, _ := m.DB().Table("visit")
		return mt.Version()
	}()

	// Partition the subscriber, then roll the origin's log far past its
	// watermark.
	srv.Close()
	for i := 0; i < 10; i++ {
		if err := visit.InsertValues(sprintfRow("x", i), sprintfRow("e", i)); err != nil {
			t.Fatal(err)
		}
	}
	if cs := visit.ChangesSince(stale); !cs.Truncated || cs.Cause != relstore.TruncateRolled {
		t.Fatalf("origin window should be truncated (rolled), got %+v", cs)
	}

	srv2 := NewServer(db)
	srv2.HeartbeatEvery = 50 * time.Millisecond
	if _, err := srv2.Listen(addr); err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()

	waitFor(t, 10*time.Second, "catch-up after log roll", func() bool {
		return mirrorMatches(db, m.DB(), "visit")
	})
	if st := m.Stats(); st.CatchupRolled < 1 {
		t.Fatalf("catch-up not metered under cause rolled: %+v", st)
	}

	// The cause must propagate to the mirror's own consumers: a stale
	// watermark against the mirror yields a typed *ErrLogTruncated with
	// the origin's cause.
	mt, _ := m.DB().Table("visit")
	cs := mt.ChangesSince(stale)
	terr := cs.TruncationError()
	var lt *relstore.ErrLogTruncated
	if !errors.As(terr, &lt) {
		t.Fatalf("mirror ChangesSince(%d) error = %v, want *ErrLogTruncated", stale, terr)
	}
	if lt.Cause != relstore.TruncateRolled {
		t.Fatalf("propagated cause = %s, want rolled", lt.Cause)
	}
}

func TestMirrorCatchupOnLogReset(t *testing.T) {
	db := subTestDB(t, 5)
	srv := NewServer(db)
	srv.HeartbeatEvery = 20 * time.Millisecond
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	m := OpenMirror("DB1", addr, MirrorOptions{
		Timeouts:     Timeouts{Dial: 2 * time.Second, Read: 2 * time.Second},
		ReconnectMin: 10 * time.Millisecond,
	})
	defer m.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := m.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}

	// Replacing a table under its name is not expressible as deltas: the
	// origin resets its log, and the live stream must interpose a
	// catch-up with cause reset.
	visit, _ := db.Table("visit")
	replacement := relstore.NewTable("visit", visit.Schema())
	if err := replacement.InsertValues("s99", "d99"); err != nil {
		t.Fatal(err)
	}
	db.AddTable(replacement)
	waitFor(t, 5*time.Second, "catch-up after reset", func() bool {
		return mirrorMatches(db, m.DB(), "visit") && m.Stats().CatchupReset >= 1
	})
}

func TestMirrorCatchupOnOriginRestart(t *testing.T) {
	db := subTestDB(t, 6)
	srv := NewServer(db)
	srv.HeartbeatEvery = 20 * time.Millisecond
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	m := OpenMirror("DB1", addr, MirrorOptions{
		Timeouts:     Timeouts{Dial: 2 * time.Second, Read: time.Second},
		ReconnectMin: 10 * time.Millisecond,
	})
	defer m.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := m.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}
	srv.Close()

	// The origin comes back cold: same tables, fresh (lower) versions.
	// The mirror's watermarks are from a future the new incarnation never
	// reached — TruncateRestart — and must be replaced by snapshot.
	db2 := subTestDB(t, 2)
	srv2 := NewServer(db2)
	srv2.HeartbeatEvery = 20 * time.Millisecond
	if _, err := srv2.Listen(addr); err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()

	waitFor(t, 10*time.Second, "catch-up after origin restart", func() bool {
		return mirrorMatches(db2, m.DB(), "visit") && m.Stats().CatchupRestart >= 1
	})
}

func TestMirrorTracksNewAndDroppedTables(t *testing.T) {
	db := subTestDB(t, 3)
	srv := NewServer(db)
	srv.HeartbeatEvery = 20 * time.Millisecond
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	m := OpenMirror("DB1", addr, MirrorOptions{
		Timeouts:     Timeouts{Dial: 2 * time.Second, Read: 2 * time.Second},
		ReconnectMin: 10 * time.Millisecond,
	})
	defer m.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := m.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}

	// A table appearing at the origin is not expressible as row deltas;
	// the stream falls back to a catch-up that carries it.
	extra := db.CreateTable("extra", mustSchema(t, "k:int"))
	if err := extra.InsertValues(41); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "new table to appear", func() bool {
		return mirrorMatches(db, m.DB(), "extra")
	})

	db.DropTable("extra")
	waitFor(t, 5*time.Second, "dropped table to disappear", func() bool {
		return !m.DB().HasTable("extra")
	})
}
