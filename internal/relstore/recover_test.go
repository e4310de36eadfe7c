package relstore_test

// Crash-recovery torture tests, in an external test package so they can
// use the fault-injecting filesystem (which imports relstore). The bulk
// seeded sweep lives in difftest.CheckRecovery / `aigdiff -recover`;
// these tests pin the individual fault-injection invariants:
//
//   - a failed WAL append aborts the mutation (no half-applied state,
//     no half-applied ChangeSet), and failure is sticky;
//   - recovery from any crash image lands on an exact prefix of the
//     mutation history, multi-row operations applied whole or not at all;
//   - a failed snapshot leaves the previous snapshot intact and
//     recoverable.

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"strings"
	"testing"

	"github.com/aigrepro/aig/internal/relstore"
	"github.com/aigrepro/aig/internal/relstore/iofault"
)

// fp renders the recovery-relevant state of a database through the
// exported API: rows in order, versions, and every ChangesSince window.
func fp(db *relstore.Database) string {
	var b strings.Builder
	fmt.Fprintf(&b, "db %s v%d\n", db.Name(), db.Version())
	for _, name := range db.TableNames() {
		t, err := db.Table(name)
		if err != nil {
			continue
		}
		fmt.Fprintf(&b, "table %s %s v%d\n", name, t.Schema(), t.Version())
		for _, row := range t.Rows() {
			fmt.Fprintf(&b, "  row %s\n", row)
		}
		for since := uint64(0); since <= t.Version()+1; since++ {
			cs := t.ChangesSince(since)
			fmt.Fprintf(&b, "  since %d: now=%d trunc=%v cause=%s", since, cs.Now, cs.Truncated, cs.Cause)
			for _, ch := range cs.Changes {
				fmt.Fprintf(&b, " [v%d %s %s]", ch.Ver, ch.Op, ch.Row)
			}
			b.WriteString("\n")
		}
	}
	return b.String()
}

func newFaultDB(t *testing.T) (*relstore.Database, *relstore.Persister, *iofault.FS) {
	t.Helper()
	fs := iofault.New()
	db := relstore.NewDatabase("DB1")
	tab := db.CreateTable("t", relstore.MustSchema("k:string", "n:int"))
	for i := 0; i < 4; i++ {
		tab.MustInsert(relstore.Tuple{relstore.String(fmt.Sprintf("k%d", i)), relstore.Int(int64(i))})
	}
	p, err := db.Persist(relstore.PersistOptions{FS: fs, Fsync: relstore.FsyncAlways})
	if err != nil {
		t.Fatalf("Persist: %v", err)
	}
	return db, p, fs
}

func recoverImage(t *testing.T, fs *iofault.FS) *relstore.Database {
	t.Helper()
	db, _, err := relstore.Recover("DB1", relstore.PersistOptions{FS: fs, Fsync: relstore.FsyncAlways})
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	return db
}

func TestShortWriteAbortsInsertAndIsSticky(t *testing.T) {
	db, _, fs := newFaultDB(t)
	tab, _ := db.Table("t")
	before := fp(db)

	fs.InjectShortWrite(1)
	if err := tab.Insert(relstore.Tuple{relstore.String("x"), relstore.Int(9)}); err == nil {
		t.Fatal("insert succeeded through a short write")
	}
	if got := fp(db); got != before {
		t.Errorf("aborted insert changed in-memory state:\nbefore:\n%s\nafter:\n%s", before, got)
	}
	// Sticky: the journal is torn, so the database stops taking writes.
	if err := tab.Insert(relstore.Tuple{relstore.String("y"), relstore.Int(10)}); err == nil {
		t.Fatal("insert succeeded after a sticky journal failure")
	}
	// The torn tail recovers to exactly the pre-fault state.
	if got := fp(recoverImage(t, fs.Image())); got != before {
		t.Errorf("recovery after torn append diverges:\nwant:\n%s\ngot:\n%s", before, got)
	}
}

func TestShortWriteNeverHalfAppliesDeleteWhere(t *testing.T) {
	db, _, fs := newFaultDB(t)
	tab, _ := db.Table("t")
	before := fp(db)

	fs.InjectShortWrite(1)
	if n, err := tab.DeleteWhere(func(r relstore.Tuple) bool { return true }); err == nil || n != 0 {
		t.Fatalf("DeleteWhere reported %d rows and error %v through a failed append", n, err)
	}
	if got := fp(db); got != before {
		t.Errorf("failed DeleteWhere changed state:\nbefore:\n%s\nafter:\n%s", before, got)
	}
	rdb := recoverImage(t, fs.Image())
	rt, _ := rdb.Table("t")
	// Whole-or-nothing: either all four rows survive with no delete
	// deltas, or none do — never a partial application.
	if rt.Len() != 4 {
		t.Errorf("recovered %d rows, want 4 (delete must not half-apply)", rt.Len())
	}
	if cs := rt.ChangesSince(rt.Version()); cs.Truncated || len(cs.Changes) != 0 {
		t.Errorf("recovered log has trailing deltas: %+v", cs)
	}
}

// TestMutateReportsJournalFailure: a write the WAL refuses is reported as
// ErrJournal by both ops, and the table's rows and version are unchanged.
func TestMutateReportsJournalFailure(t *testing.T) {
	for _, op := range []string{relstore.OpInsert, relstore.OpDelete} {
		t.Run(op, func(t *testing.T) {
			db, _, fs := newFaultDB(t)
			tab, _ := db.Table("t")
			rows, ver := fmt.Sprint(tab.Rows()), tab.Version()

			fs.InjectShortWrite(1)
			res, err := db.Mutate("t", op, []string{"k1", "1"})
			if !errors.Is(err, relstore.ErrJournal) {
				t.Fatalf("Mutate = %+v, %v; want ErrJournal", res, err)
			}
			if got := fmt.Sprint(tab.Rows()); got != rows || tab.Version() != ver {
				t.Errorf("failed %s changed the table: rows %s v%d, want %s v%d", op, got, tab.Version(), rows, ver)
			}
		})
	}
}

func TestFailedSnapshotLeavesPreviousIntact(t *testing.T) {
	for _, tc := range []struct {
		name string
		arm  func(fs *iofault.FS)
	}{
		// The snapshot's tmp-file fsync fails mid-protocol.
		{"fsync", func(fs *iofault.FS) { fs.InjectSyncError(1) }},
		// The rename that publishes the snapshot is torn.
		{"rename", func(fs *iofault.FS) { fs.InjectRenameError(1) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db, p, fs := newFaultDB(t)
			tab, _ := db.Table("t")
			tab.MustInsert(relstore.Tuple{relstore.String("x"), relstore.Int(9)})
			want := fp(db)
			prevSnap := fs.Bytes(relstore.SnapshotFile)

			tc.arm(fs)
			if err := p.Snapshot(); err == nil {
				t.Fatal("snapshot succeeded through an injected fault")
			}
			if got := fs.Bytes(relstore.SnapshotFile); string(got) != string(prevSnap) {
				t.Error("failed snapshot replaced the previous snapshot file")
			}
			// The store must still recover — previous snapshot + WAL tail.
			if got := fp(recoverImage(t, fs.Image())); got != want {
				t.Errorf("recovery after failed snapshot diverges:\nwant:\n%s\ngot:\n%s", want, got)
			}
		})
	}
}

func TestJournalingContinuesAfterFailedSnapshot(t *testing.T) {
	db, p, fs := newFaultDB(t)
	tab, _ := db.Table("t")

	fs.InjectRenameError(1)
	if err := p.Snapshot(); err == nil {
		t.Fatal("snapshot succeeded through an injected fault")
	}
	// The WAL was not rotated, so appends still extend the valid prefix.
	tab.MustInsert(relstore.Tuple{relstore.String("x"), relstore.Int(9)})
	want := fp(db)
	if got := fp(recoverImage(t, fs.Image())); got != want {
		t.Errorf("post-failed-snapshot writes lost:\nwant:\n%s\ngot:\n%s", want, got)
	}
}

func TestCrashImageAtEveryWALPrefixIsConsistent(t *testing.T) {
	fs := iofault.New()
	db := relstore.NewDatabase("DB1")
	tab := db.CreateTable("t", relstore.MustSchema("k:string", "n:int"))
	if _, err := db.Persist(relstore.PersistOptions{FS: fs, Fsync: relstore.FsyncAlways}); err != nil {
		t.Fatal(err)
	}
	// One mutation per step; fingerprints indexed by WAL record count.
	fps := []string{fp(db)}
	tab.MustInsert(relstore.Tuple{relstore.String("a"), relstore.Int(1)})
	fps = append(fps, fp(db))
	tab.MustInsert(relstore.Tuple{relstore.String("b"), relstore.Int(2)})
	fps = append(fps, fp(db))
	tab.DeleteWhere(func(r relstore.Tuple) bool { return true })
	fps = append(fps, fp(db))

	wal := fs.Bytes(relstore.WALFile)
	startSeq, ends, err := relstore.InspectWAL(wal)
	if err != nil {
		t.Fatal(err)
	}
	if startSeq != 1 || len(ends) != 4 {
		t.Fatalf("unexpected wal shape: startSeq=%d ends=%v", startSeq, ends)
	}
	for off := int64(0); off <= int64(len(wal)); off++ {
		img := fs.Image()
		img.Truncate(relstore.WALFile, off)
		rdb, _, err := relstore.Recover("DB1", relstore.PersistOptions{FS: img, Fsync: relstore.FsyncAlways})
		if err != nil {
			t.Fatalf("truncate@%d: %v", off, err)
		}
		// Count the record frames wholly inside the cut.
		records := 0
		for i, end := range ends {
			if i > 0 && end <= off {
				records++
			}
		}
		if got := fp(rdb); got != fps[records] {
			t.Fatalf("truncate@%d (%d records): recovered state diverges:\nwant:\n%s\ngot:\n%s",
				off, records, fps[records], got)
		}
	}
}

// fuzzRecord and fuzzValue mirror the journal's record and value
// fields; gob matches fields by name, so their encodings are records
// recovery decodes.
type fuzzRecord struct {
	Seq     uint64
	Kind    uint8
	Table   string
	Ver     uint64
	Row     []fuzzValue
	Indices []int
}

type fuzzValue struct {
	Kind uint8
	I    int64
	S    string
}

func gobPayload(t testing.TB, v any) []byte {
	var b bytes.Buffer
	if err := gob.NewEncoder(&b).Encode(v); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// frame wraps a payload in the WAL's frame header: big-endian length,
// then the payload's IEEE CRC32.
func frame(payload []byte) []byte {
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	return append(hdr[:], payload...)
}

// FuzzRecoverWAL appends two fuzzed payloads, each framed with a valid
// length and CRC, after a valid WAL prefix. Recover must never panic, and
// when it succeeds, recovering the files it left must land on the same
// state and sequence number: replay either applies a record exactly or
// refuses the log.
func FuzzRecoverWAL(f *testing.F) {
	fs := iofault.New()
	db := relstore.NewDatabase("DB1")
	tab := db.CreateTable("t", relstore.MustSchema("k:string", "n:int"))
	tab.MustInsert(relstore.Tuple{relstore.String("a"), relstore.Int(0)})
	tab.MustInsert(relstore.Tuple{relstore.String("b"), relstore.Int(1)})
	opts := relstore.PersistOptions{FS: fs, Fsync: relstore.FsyncAlways, SnapshotEvery: -1}
	if _, err := db.Persist(opts); err != nil {
		f.Fatal(err)
	}
	tab.MustInsert(relstore.Tuple{relstore.String("c"), relstore.Int(2)})
	base := fs.Image() // snapshot of [a b] plus one journaled insert

	// Seeds: the two records real writes would journal next, then
	// hand-made ones the store never writes.
	tab.MustInsert(relstore.Tuple{relstore.String("d"), relstore.Int(3)})
	if _, err := tab.DeleteWhere(func(r relstore.Tuple) bool { return r[1].AsInt() < 2 }); err != nil {
		f.Fatal(err)
	}
	wal := fs.Bytes(relstore.WALFile)
	_, ends, err := relstore.InspectWAL(wal)
	if err != nil || len(ends) != 4 {
		f.Fatalf("wal frames %v, %v", ends, err)
	}
	ins, del := wal[ends[1]+8:ends[2]], wal[ends[2]+8:ends[3]]
	f.Add(ins, del)
	f.Add(ins, ins)
	f.Add(gobPayload(f, fuzzRecord{Seq: 2, Kind: 3, Table: "t", Ver: 4, Indices: []int{0, 7}}), []byte(nil))
	f.Add(gobPayload(f, fuzzRecord{Seq: 2, Kind: 6, Table: "t"}), []byte(nil))
	f.Add(gobPayload(f, fuzzRecord{Seq: 2, Kind: 1, Table: "t", Ver: 4,
		Row: []fuzzValue{{Kind: uint8(relstore.KindString), S: "e"}, {Kind: uint8(relstore.KindInt), I: 4}}}), []byte("junk"))

	f.Fuzz(func(t *testing.T, a, b []byte) {
		img := base.Image()
		w, _, err := img.OpenAppend(relstore.WALFile)
		if err != nil {
			t.Fatal(err)
		}
		w.Write(append(frame(a), frame(b)...))
		w.Close()
		ropts := relstore.PersistOptions{FS: img, Fsync: relstore.FsyncAlways, SnapshotEvery: -1}
		rdb, rp, err := relstore.Recover("DB1", ropts)
		if err != nil {
			return
		}
		want, seq := fp(rdb), rp.Seq()
		ropts.FS = img.Image()
		rdb2, rp2, err := relstore.Recover("DB1", ropts)
		if err != nil {
			t.Fatalf("first recovery succeeded at seq %d, second failed: %v", seq, err)
		}
		if got := fp(rdb2); got != want || rp2.Seq() != seq {
			t.Fatalf("second recovery differs: seq %d, want %d\nwant:\n%s\ngot:\n%s", rp2.Seq(), seq, want, got)
		}
	})
}
