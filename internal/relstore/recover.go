package relstore

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"os"
)

// Recover rebuilds a database from its persisted state — the latest
// snapshot plus the WAL tail — and re-attaches persistence so the
// journal continues where it left off.
//
// Recovery invariants:
//
//   - The recovered state is a prefix of the pre-crash mutation history:
//     the snapshot's cut plus every complete, CRC-valid WAL record after
//     it, in order, stopping at the first torn frame.
//   - Records are applied whole or not at all — a multi-row DeleteWhere
//     is one record, so a recovered change log never exposes half of a
//     mutation's deltas.
//   - Tuples, per-table versions, change logs, and the database's
//     seqlock version are restored exactly: a data-version stamp taken
//     before the crash still names the same state after it.
//   - The torn tail is truncated before the WAL reopens for appending,
//     so the valid-prefix property holds across repeated crashes.
//
// A directory with no state yields an empty database with fresh
// persistence attached, so Recover subsumes first-boot.
func Recover(name string, opts PersistOptions) (*Database, *Persister, error) {
	fs := opts.fs()
	if fs == nil {
		return nil, nil, errors.New("relstore: PersistOptions needs Dir or FS")
	}
	db := NewDatabase(name)

	hdr, tables, err := readSnapshot(fs, name)
	if err != nil {
		return nil, nil, err
	}
	for _, st := range tables {
		t, err := restoreTable(st)
		if err != nil {
			return nil, nil, err
		}
		db.AddTable(t)
	}
	seq, dbVer := hdr.LastSeq, hdr.DBVersion

	validOff, freshHeader, err := replayWAL(db, fs, name, seq, &seq, &dbVer)
	if err != nil {
		return nil, nil, err
	}

	// Replaying through the public mutation methods advanced the version
	// through the tables' owner brackets; overwrite with the exact
	// pre-crash value (snapshot cut plus two per replayed record).
	db.version.Store(dbVer)

	p := &Persister{db: db, fs: fs, mode: opts.Fsync, snapEvery: opts.snapEvery()}
	p.gate.Lock()
	defer p.gate.Unlock()
	p.seq = seq
	if freshHeader {
		if err := p.rotateWALLocked(); err != nil {
			return nil, nil, fmt.Errorf("relstore: writing wal header: %w", err)
		}
	} else {
		f, size, err := fs.OpenAppend(WALFile)
		if err != nil {
			return nil, nil, fmt.Errorf("relstore: reopening wal: %w", err)
		}
		if size > validOff {
			// Cut the torn tail so appended records follow the valid prefix.
			if err := f.Truncate(validOff); err != nil {
				f.Close()
				return nil, nil, fmt.Errorf("relstore: truncating wal: %w", err)
			}
			metricWALTruncations.Inc()
		}
		if err := f.Sync(); err != nil && opts.Fsync == FsyncAlways {
			f.Close()
			return nil, nil, fmt.Errorf("relstore: wal fsync: %w", err)
		}
		p.wal = f
	}
	db.persist.Store(p)
	metricRecoveries.Inc()
	return db, p, nil
}

// readSnapshot loads and validates the snapshot file. Missing is not an
// error (fresh start: a zero header and no tables); anything unreadable
// is.
func readSnapshot(fs FS, name string) (hdr snapHeader, tables []walTableState, err error) {
	b, err := fs.ReadFile(SnapshotFile)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return hdr, nil, nil
		}
		return hdr, nil, fmt.Errorf("relstore: reading snapshot: %w", err)
	}
	payload, _, err := readFrame(b, 0)
	if err != nil {
		return hdr, nil, fmt.Errorf("relstore: snapshot for %q is corrupt: %w", name, err)
	}
	dec := gob.NewDecoder(bytes.NewReader(payload))
	if err := dec.Decode(&hdr); err != nil {
		return hdr, nil, fmt.Errorf("relstore: snapshot decode: %w", err)
	}
	if hdr.Magic != snapMagic {
		return hdr, nil, fmt.Errorf("relstore: snapshot magic %q, want %q", hdr.Magic, snapMagic)
	}
	if hdr.Name != name {
		return hdr, nil, fmt.Errorf("relstore: snapshot is for database %q, not %q", hdr.Name, name)
	}
	if err := dec.Decode(&tables); err != nil {
		return hdr, nil, fmt.Errorf("relstore: snapshot decode: %w", err)
	}
	return hdr, tables, nil
}

// replayWAL applies the WAL tail beyond the snapshot cut. It returns the
// offset just past the last valid frame and whether the WAL needs a
// fresh header (missing file, or a header torn by a crash mid-rotation —
// safe to discard because rotation only runs after a durable snapshot).
// seq and dbVer advance past each applied record.
func replayWAL(db *Database, fs FS, name string, snapSeq uint64, seq, dbVer *uint64) (validOff int64, freshHeader bool, err error) {
	b, err := fs.ReadFile(WALFile)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return 0, true, nil
		}
		return 0, false, fmt.Errorf("relstore: reading wal: %w", err)
	}
	hdr, end, err := readWALHeader(b)
	if errors.Is(err, errTornFrame) {
		return 0, true, nil
	}
	if err != nil {
		return 0, false, err
	}
	if hdr.Name != name {
		return 0, false, fmt.Errorf("relstore: wal is for database %q, not %q", hdr.Name, name)
	}
	if hdr.StartSeq > snapSeq+1 {
		return 0, false, fmt.Errorf("relstore: wal starts at seq %d but snapshot covers only through %d", hdr.StartSeq, snapSeq)
	}
	validOff = end
	next := hdr.StartSeq
	for {
		payload, end, ferr := readFrame(b, validOff)
		if ferr != nil {
			return validOff, false, nil
		}
		var rec walRecord
		if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&rec); err != nil {
			// A CRC-valid frame that does not decode is a torn tail as
			// far as safety goes: stop here and keep the prefix.
			return validOff, false, nil
		}
		if rec.Seq != next {
			return 0, false, fmt.Errorf("relstore: wal sequence gap: record %d after %d", rec.Seq, next-1)
		}
		next++
		validOff = end
		if rec.Seq <= snapSeq {
			continue // already covered by the snapshot
		}
		if err := applyRecord(db, &rec); err != nil {
			return 0, false, err
		}
		*seq = rec.Seq
		*dbVer += 2 // one bracketed table mutation
		metricWALReplayed.Inc()
	}
}

// applyRecord replays one journaled row write against the recovering
// database. The database has no persister attached yet, so replay does
// not re-journal. Deterministic re-execution (deletes by recorded positions)
// reproduces the original's rows, versions and change-log entries
// exactly, which the version cross-check enforces.
func applyRecord(db *Database, rec *walRecord) error {
	if rec.Kind != recInsert && rec.Kind != recDeleteRows {
		return fmt.Errorf("relstore: wal record %d has unknown kind %d", rec.Seq, rec.Kind)
	}
	t, err := db.Table(rec.Table)
	if err != nil {
		return fmt.Errorf("relstore: wal record %d: %w", rec.Seq, err)
	}
	switch rec.Kind {
	case recInsert:
		if err := t.Insert(rec.Row); err != nil {
			return fmt.Errorf("relstore: wal record %d: %w", rec.Seq, err)
		}
	case recDeleteRows:
		// Recovery is single-threaded, so the rows checked are the rows
		// deleteIndices walks.
		if !ascendingWithin(rec.Indices, t.Len()) {
			return fmt.Errorf("relstore: wal record %d deletes positions %v, not strictly ascending within table %q's %d rows",
				rec.Seq, rec.Indices, rec.Table, t.Len())
		}
		t.mu.Lock()
		t.deleteIndices(rec.Indices)
	}
	if got := t.Version(); got != rec.Ver {
		return fmt.Errorf("relstore: wal record %d left table %q at version %d, want %d", rec.Seq, rec.Table, got, rec.Ver)
	}
	return nil
}

// ascendingWithin reports whether idx is a non-empty, strictly ascending
// list of positions in a table of n rows — what DeleteWhere journals.
func ascendingWithin(idx []int, n int) bool {
	for i, x := range idx {
		if x < 0 || x >= n || (i > 0 && x <= idx[i-1]) {
			return false
		}
	}
	return len(idx) > 0
}
