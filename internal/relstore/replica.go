package relstore

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
)

// Replica support: a mirror database tracks an origin database by
// applying the origin's row deltas at the origin's own version numbers,
// so the mirror answers TableVersions/ChangesSince with watermarks that
// mean the same thing they mean at the origin. When the mirror has no
// state (first boot) or has fallen past the origin's change-log horizon,
// it installs a consistent snapshot (CaptureSnapshot on the origin,
// InstallSnapshotTable on the mirror) and resumes from the snapshot's
// versions. ChangeSignal is the push half and the program's one change
// notification: subscription fan-out and the serving refresher block on
// it instead of polling the version counter, and a mirror's applied
// deltas fire it like any local write.

// changeSignal is the notification slot shared by all waiters: a channel
// that is closed (and replaced lazily) on the next data-version advance.
type changeSignal struct {
	mu sync.Mutex
	ch chan struct{}
}

// next returns the channel the next notify will close. Callers must grab
// it BEFORE reading the state they wait on, so an advance between the
// read and the wait still wakes them.
func (s *changeSignal) next() <-chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ch == nil {
		s.ch = make(chan struct{})
	}
	return s.ch
}

// notify wakes every waiter holding the current channel.
func (s *changeSignal) notify() {
	s.mu.Lock()
	if s.ch != nil {
		close(s.ch)
		s.ch = nil
	}
	s.mu.Unlock()
}

// ChangeSignal returns a channel that is closed after the next operation
// that advances the database's data version (row mutations, table
// registration or removal). Waiters must call this before
// reading TableVersions and select on the result; a closed channel means
// "state may have moved, re-read". The channel is one-shot: call again
// for the next wakeup.
func (db *Database) ChangeSignal() <-chan struct{} { return db.sig.next() }

// notifyChanged wakes ChangeSignal waiters. Called after every
// version-advancing operation, outside the database lock.
func (db *Database) notifyChanged() { db.sig.notify() }

// TableSnap is one table's state captured for replication: schema, rows
// and the version the rows are exactly at. Rows alias the table's
// immutable published snapshot; callers must not mutate them.
type TableSnap struct {
	Name    string
	Schema  Schema
	Rows    []Tuple
	Version uint64
}

// snapState captures the table's rows and version under its mutex, so
// the pair is mutually consistent even against concurrent writers.
func (t *Table) snapState() TableSnap {
	t.mu.Lock()
	defer t.mu.Unlock()
	return TableSnap{Name: t.name, Schema: t.schema, Rows: t.rowsSnap(), Version: t.version.Load()}
}

// CaptureSnapshot captures every table's (rows, version) pair and tries
// to certify the whole set as one consistent cut using the database's
// seqlock version: read an even database version, capture, read the same
// even version again, and the capture provably contains no torn
// multi-table state. Up to attempts tries are made; if writers keep the
// database moving, the last capture is returned with consistent=false —
// each table is still internally consistent (rows match version), and a
// subscriber converges by replaying the delta tail from the per-table
// versions, so an uncertified snapshot costs catch-up time, not
// correctness.
func (db *Database) CaptureSnapshot(attempts int) (snaps []TableSnap, dbVersion uint64, consistent bool) {
	if attempts < 1 {
		attempts = 1
	}
	capture := func() ([]TableSnap, uint64) {
		v := db.version.Load()
		db.mu.RLock()
		tables := make([]*Table, 0, len(db.tables))
		for _, t := range db.tables {
			tables = append(tables, t)
		}
		db.mu.RUnlock()
		out := make([]TableSnap, 0, len(tables))
		for _, t := range tables {
			out = append(out, t.snapState())
		}
		sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
		return out, v
	}
	for i := 0; i < attempts; i++ {
		got, v := capture()
		snaps, dbVersion = got, v
		if v%2 == 0 && db.version.Load() == v {
			return snaps, v, true
		}
		runtime.Gosched()
	}
	return snaps, dbVersion, false
}

// NewTableWithState builds a table that starts at an explicit version
// with the given rows — the receiving end of a replication snapshot. The
// change-log floor is set at version with the given cause, so windows
// older than the snapshot are answered truncated with the reason the
// origin gave for the catch-up (or TruncateRestart for an initial sync).
// The table takes ownership of rows.
func NewTableWithState(name string, schema Schema, rows []Tuple, version uint64, cause TruncateCause) *Table {
	t := NewTable(name, schema)
	t.buf = rows
	t.publishLocked()
	t.version.Store(version)
	if cause == TruncateNone {
		cause = TruncateRestart
	}
	t.log.resetLocked(version, cause)
	return t
}

// InstallSnapshotTable registers a snapshot-built table, keeping the
// version exactly as the table carries it. AddTable is wrong for this:
// its replacement semantics force the newcomer's version past the
// predecessor's, but a mirror must track origin versions faithfully even
// when the origin restarted to a LOWER version (that is precisely the
// TruncateRestart catch-up case). Mirror databases are in-memory only;
// installing into a persisted database is not supported.
func (db *Database) InstallSnapshotTable(t *Table) error {
	if db.persist.Load() != nil {
		return fmt.Errorf("relstore: InstallSnapshotTable on persisted database %q unsupported", db.name)
	}
	db.register(t)
	db.begin()
	db.end()
	return nil
}

// ApplyChanges replays an origin table's ChangeSet onto this mirror
// table at the origin's version numbers. The set must be untruncated and
// must start at or before the mirror's current version (overlapping
// deltas are skipped — reconnects and snapshot/tail seams deliver them —
// but a window starting past the mirror is a gap and an error). On
// success the mirror's version equals cs.Now exactly, so the next
// ChangesSince watermark resumes where this set ended. Returns how many
// deltas were applied. Mirror tables are in-memory only: a journaled
// table rejects ApplyChanges rather than silently skipping its WAL.
func (t *Table) ApplyChanges(cs ChangeSet) (int, error) {
	if cs.Truncated {
		return 0, cs.TruncationError()
	}
	db, p := t.owner()
	if p != nil {
		return 0, fmt.Errorf("relstore: ApplyChanges on journaled table %q unsupported", t.name)
	}
	t.mu.Lock()
	start := t.version.Load()
	if cs.Now <= start {
		t.mu.Unlock()
		return 0, nil // already caught up past this window
	}
	if cs.Since > start {
		t.mu.Unlock()
		return 0, fmt.Errorf("relstore: delta gap on %q: window starts at %d, mirror is at %d",
			t.name, cs.Since, start)
	}
	db.begin()
	applied, lastVer := 0, start
	// The published snapshot may alias buf, so the first delete of the
	// window copies it once; later deletes shift the private copy.
	private := false
	var failure error
	for _, ch := range cs.Changes {
		if ch.Ver <= start {
			continue // overlap with already-applied state
		}
		switch ch.Op {
		case ChangeInsert:
			if err := t.schema.Validate(ch.Row); err != nil {
				failure = fmt.Errorf("relstore: replicated insert into %q: %v", t.name, err)
			} else {
				t.buf = append(t.buf, ch.Row)
			}
		case ChangeDelete:
			pos := len(t.buf) - 1
			for pos >= 0 && !t.buf[pos].Equal(ch.Row) {
				pos--
			}
			if pos < 0 {
				failure = fmt.Errorf("relstore: replicated delete from %q: row %s not present", t.name, ch.Row)
			} else {
				if !private {
					t.buf, private = slices.Clone(t.buf), true
				}
				t.buf = slices.Delete(t.buf, pos, pos+1)
			}
		default:
			failure = fmt.Errorf("relstore: replicated change op %d on %q unknown", ch.Op, t.name)
		}
		if failure != nil {
			break
		}
		t.log.appendLocked(ch)
		lastVer = ch.Ver
		applied++
	}
	if failure == nil {
		lastVer = cs.Now // empty or version-only windows still advance
	}
	t.publishLocked()
	t.version.Store(lastVer)
	t.mu.Unlock()
	db.end()
	return applied, failure
}
