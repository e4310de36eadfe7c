package relstore

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fingerprint renders the full persistent state of a database — rows in
// order, versions, and the complete ChangesSince behaviour at every
// watermark — so recovery tests can assert byte-exact equality.
func fingerprint(db *Database) string {
	var b strings.Builder
	pr := func(format string, args ...any) { fmt.Fprintf(&b, format, args...) }
	pr("db %s v%d\n", db.Name(), db.Version())
	for _, name := range db.TableNames() {
		t, err := db.Table(name)
		if err != nil {
			pr("table %s: %v\n", name, err)
			continue
		}
		pr("table %s %s v%d\n", name, t.Schema(), t.Version())
		for _, row := range t.Rows() {
			pr("  row %s\n", row)
		}
		for since := uint64(0); since <= t.Version()+1; since++ {
			cs := t.ChangesSince(since)
			pr("  since %d: now=%d trunc=%v cause=%s", since, cs.Now, cs.Truncated, cs.Cause)
			for _, ch := range cs.Changes {
				pr(" [v%d %s %s]", ch.Ver, ch.Op, ch.Row)
			}
			pr("\n")
		}
	}
	return b.String()
}

func testOptions(t *testing.T) PersistOptions {
	t.Helper()
	return PersistOptions{Dir: t.TempDir(), Fsync: FsyncAlways}
}

func buildPersisted(t *testing.T, opts PersistOptions) (*Database, *Persister) {
	t.Helper()
	db := NewDatabase("DB1")
	tab := db.CreateTable("t", MustSchema("k:string", "n:int"))
	tab.MustInsert(Tuple{String("a"), Int(1)})
	tab.MustInsert(Tuple{String("b"), Int(2)})
	p, err := db.Persist(opts)
	if err != nil {
		t.Fatalf("Persist: %v", err)
	}
	return db, p
}

func TestRecoverRoundTrip(t *testing.T) {
	opts := testOptions(t)
	db, _ := buildPersisted(t, opts)
	tab, _ := db.Table("t")
	tab.MustInsert(Tuple{String("c"), Int(3)})
	if _, err := tab.DeleteWhere(func(r Tuple) bool { return r[0].Text() == "a" }); err != nil {
		t.Fatal(err)
	}
	tab.MustInsert(Tuple{String("c"), Int(3)})
	if n, err := tab.DeleteWhere(Tuple{String("c"), Int(3)}.Equal); err != nil || n != 2 {
		t.Fatalf("multi-row delete: %d rows, %v", n, err)
	}
	want := fingerprint(db)

	rdb, rp, err := Recover("DB1", opts)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	defer rp.Close()
	if got := fingerprint(rdb); got != want {
		t.Errorf("recovered state differs:\nwant:\n%s\ngot:\n%s", want, got)
	}
}

func TestRecoverAfterSnapshotAndMore(t *testing.T) {
	opts := testOptions(t)
	db, p := buildPersisted(t, opts)
	tab, _ := db.Table("t")
	tab.MustInsert(Tuple{String("c"), Int(3)})
	if err := p.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	tab.MustInsert(Tuple{String("d"), Int(4)})
	want := fingerprint(db)

	rdb, rp, err := Recover("DB1", opts)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	defer rp.Close()
	if got := fingerprint(rdb); got != want {
		t.Errorf("recovered state differs:\nwant:\n%s\ngot:\n%s", want, got)
	}
	if rp.Seq() != p.Seq() {
		t.Errorf("recovered seq %d, want %d", rp.Seq(), p.Seq())
	}
}

func TestRecoverTruncatedTail(t *testing.T) {
	opts := testOptions(t)
	db, _ := buildPersisted(t, opts)
	tab, _ := db.Table("t")
	before := fingerprint(db)
	tab.MustInsert(Tuple{String("c"), Int(3)})

	// Tear the tail record: every proper prefix of the final frame must
	// recover to the pre-insert state and keep accepting writes.
	walPath := filepath.Join(opts.Dir, WALFile)
	wal, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	_, ends, err := InspectWAL(wal)
	if err != nil {
		t.Fatal(err)
	}
	if len(ends) < 2 {
		t.Fatalf("want at least header+1 record, got ends %v", ends)
	}
	prevEnd := ends[len(ends)-2]
	for off := prevEnd; off < int64(len(wal)); off++ {
		dir := t.TempDir()
		copyDir(t, opts.Dir, dir)
		if err := os.Truncate(filepath.Join(dir, WALFile), off); err != nil {
			t.Fatal(err)
		}
		ropts := PersistOptions{Dir: dir, Fsync: FsyncAlways}
		rdb, rp, err := Recover("DB1", ropts)
		if err != nil {
			t.Fatalf("truncate@%d: Recover: %v", off, err)
		}
		if got := fingerprint(rdb); got != before {
			t.Fatalf("truncate@%d: recovered state differs:\nwant:\n%s\ngot:\n%s", off, before, got)
		}
		// The journal must keep working past the cut.
		rt, _ := rdb.Table("t")
		rt.MustInsert(Tuple{String("z"), Int(9)})
		after := fingerprint(rdb)
		rp.Close()
		rdb2, rp2, err := Recover("DB1", ropts)
		if err != nil {
			t.Fatalf("truncate@%d: re-recover: %v", off, err)
		}
		if got := fingerprint(rdb2); got != after {
			t.Fatalf("truncate@%d: second recovery differs:\nwant:\n%s\ngot:\n%s", off, after, got)
		}
		rp2.Close()
	}
}

func TestRecoverEmptyDirIsFreshStart(t *testing.T) {
	opts := testOptions(t)
	if HasPersistedState(opts) {
		t.Fatal("empty dir reports persisted state")
	}
	db, p, err := Recover("DB1", opts)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	defer p.Close()
	if len(db.TableNames()) != 0 || db.Version() != 0 {
		t.Errorf("fresh recovery not empty: tables=%v v=%d", db.TableNames(), db.Version())
	}
	// The fresh journal's header is state: a restart recovers this
	// (empty) database instead of seeding a new one.
	if !HasPersistedState(opts) {
		t.Error("no persisted state after a fresh recovery")
	}
}

func TestRecoverWrongName(t *testing.T) {
	opts := testOptions(t)
	buildPersisted(t, opts)
	if _, _, err := Recover("DB2", opts); err == nil {
		t.Fatal("recovering under the wrong name succeeded")
	}
}

// refusal runs op on a persisted database and requires a panic whose
// message names call, with rows, versions and the journal untouched.
func refusal(t *testing.T, db *Database, p *Persister, call string, op func()) {
	t.Helper()
	before, seq := fingerprint(db), p.Seq()
	func() {
		defer func() {
			r := recover()
			if msg := fmt.Sprint(r); r == nil || !strings.Contains(msg, call) || !strings.Contains(msg, db.Name()) {
				t.Errorf("%s on a persisted database: panic %v, want one naming %s and %q", call, r, call, db.Name())
			}
		}()
		op()
	}()
	if got := fingerprint(db); got != before {
		t.Errorf("refused %s changed the database:\nbefore:\n%s\nafter:\n%s", call, before, got)
	}
	if p.Seq() != seq {
		t.Errorf("refused %s journaled: seq %d -> %d", call, seq, p.Seq())
	}
}

func TestPersistedRefusesAddTable(t *testing.T) {
	db, p := buildPersisted(t, testOptions(t))
	refusal(t, db, p, "AddTable", func() { db.AddTable(NewTable("u", MustSchema("x:int"))) })
}

func TestPersistedRefusesCreateTable(t *testing.T) {
	db, p := buildPersisted(t, testOptions(t))
	refusal(t, db, p, "CreateTable", func() { db.CreateTable("u", MustSchema("x:int")) })
}

func TestPersistedRefusesDropTable(t *testing.T) {
	db, p := buildPersisted(t, testOptions(t))
	refusal(t, db, p, "DropTable", func() { db.DropTable("t") })
}

// TestPersistedRefusesSetChangeLogLimit: a limit set before Persist is
// durable through the snapshot; changing it afterwards is refused.
func TestPersistedRefusesSetChangeLogLimit(t *testing.T) {
	opts := testOptions(t)
	db := NewDatabase("DB1")
	tab := db.CreateTable("t", MustSchema("k:string", "n:int"))
	tab.SetChangeLogLimit(1)
	p, err := db.Persist(opts)
	if err != nil {
		t.Fatal(err)
	}
	tab.MustInsert(Tuple{String("c"), Int(3)})
	tab.MustInsert(Tuple{String("d"), Int(4)})
	refusal(t, db, p, "SetChangeLogLimit", func() { tab.SetChangeLogLimit(8) })
	want := fingerprint(db)
	rdb, rp, err := Recover("DB1", opts)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	defer rp.Close()
	if got := fingerprint(rdb); got != want {
		t.Errorf("recovered state differs:\nwant:\n%s\ngot:\n%s", want, got)
	}
}

// appendRecord journals rec as the next WAL frame of the state in dir,
// numbered after p's last record.
func appendRecord(t *testing.T, dir string, p *Persister, rec walRecord) {
	t.Helper()
	rec.Seq = p.Seq() + 1
	frame, err := encodeFrame(&rec)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, WALFile), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(frame); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverRejectsRetiredKinds: the log-limit, add-table, drop-table
// and bump kinds (6-9) are retired; a log holding one fails recovery.
func TestRecoverRejectsRetiredKinds(t *testing.T) {
	for kind := walKind(6); kind <= 9; kind++ {
		opts := testOptions(t)
		_, p := buildPersisted(t, opts)
		appendRecord(t, opts.Dir, p, walRecord{Kind: kind, Table: "t"})
		_, _, err := Recover("DB1", opts)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("unknown kind %d", kind)) {
			t.Errorf("kind %d: Recover error %v, want the unknown-kind error", kind, err)
		}
	}
}

// TestRecoverRejectsBadDeletePositions: a CRC-valid delete record whose
// positions are not strictly ascending inside the table fails recovery
// instead of applying the positions that happen to fit.
func TestRecoverRejectsBadDeletePositions(t *testing.T) {
	for _, idx := range [][]int{{0, 7}, {2}, {-1}, {1, 0}, {0, 0}, nil} {
		opts := testOptions(t)
		db, p := buildPersisted(t, opts) // t holds [a b]
		tab, _ := db.Table("t")
		appendRecord(t, opts.Dir, p, walRecord{Kind: recDeleteRows, Table: "t", Ver: tab.Version() + 1, Indices: idx})
		_, _, err := Recover("DB1", opts)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("wal record %d deletes positions", p.Seq()+1)) {
			t.Errorf("indices %v: Recover error %v, want one naming the record", idx, err)
		}
	}
}

// TestChangesSinceSurvivesRestart is the headline behaviour: a watermark
// taken before a crash still yields exact deltas after recovery, so IVM
// does not fall back to full refreshes on restart.
func TestChangesSinceSurvivesRestart(t *testing.T) {
	opts := testOptions(t)
	db, _ := buildPersisted(t, opts)
	tab, _ := db.Table("t")
	mark := tab.Version()
	tab.MustInsert(Tuple{String("c"), Int(3)})
	tab.MustInsert(Tuple{String("d"), Int(4)})

	rdb, rp, err := Recover("DB1", opts)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	defer rp.Close()
	rt, _ := rdb.Table("t")
	cs := rt.ChangesSince(mark)
	if cs.Truncated {
		t.Fatalf("pre-crash watermark truncated after recovery: %+v", cs)
	}
	if len(cs.Changes) != 2 {
		t.Fatalf("want 2 deltas, got %+v", cs.Changes)
	}
}

func TestTruncationCauses(t *testing.T) {
	db := NewDatabase("DB1")
	tab := db.CreateTable("t", MustSchema("x:int"))
	tab.MustInsert(Tuple{Int(1)})

	if cs := tab.ChangesSince(tab.Version() + 5); !cs.Truncated || cs.Cause != TruncateRestart {
		t.Errorf("future watermark: got %+v, want restart truncation", cs)
	}
	if err := tab.ChangesSince(tab.Version() + 5).TruncationError(); err == nil {
		t.Error("TruncationError nil for truncated set")
	} else if e, ok := err.(*ErrLogTruncated); !ok || e.Cause != TruncateRestart {
		t.Errorf("TruncationError: got %#v", err)
	}

	tab.SetChangeLogLimit(1)
	tab.MustInsert(Tuple{Int(2)})
	tab.MustInsert(Tuple{Int(3)})
	if cs := tab.ChangesSince(0); !cs.Truncated || cs.Cause != TruncateRolled {
		t.Errorf("rolled log: got %+v, want rolled truncation", cs)
	}

	tab.SetChangeLogLimit(-1)
	if cs := tab.ChangesSince(0); !cs.Truncated || cs.Cause != TruncateReset {
		t.Errorf("after disabling the log: got %+v, want reset truncation", cs)
	}
	if cs := tab.ChangesSince(tab.Version()); cs.Truncated {
		t.Errorf("current watermark truncated: %+v", cs)
	}
}

func copyDir(t *testing.T, from, to string) {
	t.Helper()
	entries, err := os.ReadDir(from)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(from, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(to, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
