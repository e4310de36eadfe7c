package relstore

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"sync"
)

// FsyncMode selects when the write-ahead log is fsynced.
type FsyncMode uint8

const (
	// FsyncNever leaves flushing to the operating system: appends are
	// plain writes. A crash may lose the unflushed tail of the log, but
	// recovery still lands on a consistent prefix of the history.
	FsyncNever FsyncMode = iota
	// FsyncAlways fsyncs after every appended record: an acknowledged
	// mutation survives power loss.
	FsyncAlways
)

// String returns "never" or "always".
func (m FsyncMode) String() string {
	if m == FsyncAlways {
		return "always"
	}
	return "never"
}

// ParseFsyncMode parses the -fsync flag values "never" and "always".
func ParseFsyncMode(s string) (FsyncMode, error) {
	switch s {
	case "never":
		return FsyncNever, nil
	case "always":
		return FsyncAlways, nil
	default:
		return FsyncNever, fmt.Errorf("relstore: fsync mode %q (want never or always)", s)
	}
}

// DefaultSnapshotEvery is the automatic snapshot cadence: a snapshot is
// taken after this many WAL records unless configured otherwise.
const DefaultSnapshotEvery = 4096

// PersistOptions configures the durability layer of one database.
type PersistOptions struct {
	// Dir is the state directory on the OS filesystem; ignored when FS
	// is set.
	Dir string
	// FS overrides the filesystem, for fault injection.
	FS FS
	// Fsync is the WAL flushing policy.
	Fsync FsyncMode
	// SnapshotEvery is the number of WAL records between automatic
	// snapshots; 0 means DefaultSnapshotEvery, negative disables
	// automatic snapshots (explicit Snapshot calls still work).
	SnapshotEvery int
}

func (o PersistOptions) fs() FS {
	if o.FS != nil {
		return o.FS
	}
	if o.Dir != "" {
		return DirFS(o.Dir)
	}
	return nil
}

func (o PersistOptions) snapEvery() int {
	if o.SnapshotEvery == 0 {
		return DefaultSnapshotEvery
	}
	return o.SnapshotEvery
}

// errPersistClosed is the sticky error of a cleanly closed persister.
var errPersistClosed = errors.New("relstore: persistence closed")

// Persister journals one database: every row write of a registered
// table appends a WAL record before any of its effects become visible,
// and periodic snapshots bound replay time. The table set and the
// change-log limits are fixed while it is attached (the operations that
// would change them panic), so the snapshot alone keeps them durable.
//
// The persister owns a database-wide gate mutex that every persisted
// mutation acquires before the table lock and holds until the mutation
// is fully applied (the seqlock version even again). The gate gives the
// WAL a total order identical to the apply order, and makes a snapshot
// taken under it a globally consistent cut. Unpersisted databases never
// touch the gate, so the in-memory fast path is unchanged.
//
// Failure is sticky: after the first append or sync error the database
// stops accepting mutations (reads still serve), preserving the
// invariant that the in-memory state is exactly the WAL's valid prefix.
type Persister struct {
	db   *Database
	fs   FS
	mode FsyncMode

	gate sync.Mutex

	// All fields below are guarded by gate.
	seq       uint64 // sequence number of the last appended record
	snapshots int    // snapshots this persister has completed
	snapEvery int
	sinceSnap int
	wal       File
	failed    error // sticky first failure
}

// Persist attaches a write-ahead durability layer to the database: its
// current state — tables, rows, versions, change logs and their limits —
// is snapshotted and every later row write is journaled. From then on
// the database refuses AddTable, CreateTable, DropTable and
// SetChangeLogLimit.
// The database must be quiescent (no in-flight mutations) when Persist
// is called; typical callers attach at startup, right after loading.
func (db *Database) Persist(opts PersistOptions) (*Persister, error) {
	fs := opts.fs()
	if fs == nil {
		return nil, errors.New("relstore: PersistOptions needs Dir or FS")
	}
	p := &Persister{db: db, fs: fs, mode: opts.Fsync, snapEvery: opts.snapEvery()}
	p.gate.Lock()
	defer p.gate.Unlock()
	if err := p.snapshotLocked(); err != nil {
		return nil, err
	}
	db.attach(p)
	return p, nil
}

// HasPersistedState reports whether the options point at an existing
// snapshot or WAL — whether Recover would find anything.
func HasPersistedState(opts PersistOptions) bool {
	fs := opts.fs()
	if fs == nil {
		return false
	}
	for _, name := range []string{SnapshotFile, WALFile} {
		if _, err := fs.ReadFile(name); err == nil {
			return true
		}
	}
	return false
}

// fail records the first failure and returns it; every later append
// fails fast with the same error.
func (p *Persister) fail(err error) error {
	if p.failed == nil {
		p.failed = err
		metricWALFailures.Inc()
	}
	return p.failed
}

// append journals one record. Called with the gate held, before the
// mutation applies; an error means the mutation must not apply.
func (p *Persister) append(rec *walRecord) error {
	if p.failed != nil {
		return p.failed
	}
	// An automatic snapshot that came due on the previous append is taken
	// now, before this record is journaled: at this point every record
	// <= p.seq is fully applied (the gate is held through each apply), so
	// the cut is consistent. Taking it inside the previous append would
	// snapshot mid-mutation — the record journaled but not yet applied —
	// and the rotation would lose it.
	if p.snapEvery > 0 && p.sinceSnap >= p.snapEvery {
		// A failed snapshot does not lose history: the previous snapshot
		// and the unrotated WAL still cover everything, so journaling
		// continues (aig_relstore_snapshot_failures_total counts it)
		// unless the failure was a rotation's, which is sticky.
		if p.snapshotLocked() != nil && p.failed != nil {
			return p.failed
		}
	}
	rec.Seq = p.seq + 1
	buf, err := encodeFrame(rec)
	if err != nil {
		return p.fail(fmt.Errorf("relstore: wal encode: %w", err))
	}
	n, err := p.wal.Write(buf)
	if err == nil && n != len(buf) {
		err = fmt.Errorf("short write (%d of %d bytes)", n, len(buf))
	}
	if err != nil {
		return p.fail(fmt.Errorf("relstore: wal append: %w", err))
	}
	if p.mode == FsyncAlways {
		if err := p.wal.Sync(); err != nil {
			return p.fail(fmt.Errorf("relstore: wal fsync: %w", err))
		}
	}
	p.seq++
	metricWALAppends.Inc()
	metricWALBytes.Add(int64(len(buf)))
	p.sinceSnap++
	return nil
}

// snapshotLocked writes a full-state snapshot and rotates the WAL.
// Called with the gate held, so the database is quiescent and the dump
// is a consistent cut at LastSeq = p.seq.
//
// Atomicity protocol: the snapshot is written to a temporary name,
// fsynced, renamed over the previous snapshot, and the directory
// fsynced; only then is the WAL rotated the same way (temp header file,
// fsync, rename, directory fsync). A crash anywhere in between leaves
// either the old snapshot with the old WAL, or the new snapshot with a
// WAL whose surviving records recovery skips by sequence number.
func (p *Persister) snapshotLocked() error {
	snap := walSnapshot{
		Magic:     snapMagic,
		Name:      p.db.name,
		DBVersion: p.db.version.Load(),
		LastSeq:   p.seq,
	}
	p.db.mu.RLock()
	names := make([]string, 0, len(p.db.tables))
	for n := range p.db.tables {
		names = append(names, n)
	}
	tables := make([]*Table, 0, len(names))
	for _, n := range names {
		tables = append(tables, p.db.tables[n])
	}
	p.db.mu.RUnlock()
	for _, t := range tables {
		snap.Tables = append(snap.Tables, t.captureState())
	}

	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&snap); err != nil {
		return fmt.Errorf("relstore: snapshot encode: %w", err)
	}
	if err := p.writeFileAtomic(snapTmpFile, SnapshotFile, appendFrame(nil, buf.Bytes())); err != nil {
		metricSnapshotFailures.Inc()
		return fmt.Errorf("relstore: snapshot: %w", err)
	}
	if err := p.rotateWALLocked(); err != nil {
		// The snapshot landed but the new WAL did not: without a log to
		// append to, accepting further mutations would lose them.
		metricSnapshotFailures.Inc()
		return p.fail(fmt.Errorf("relstore: wal rotate: %w", err))
	}
	p.snapshots++
	p.sinceSnap = 0
	metricSnapshots.Inc()
	return nil
}

// writeFileAtomic writes content to tmp, fsyncs it, renames it to final
// and fsyncs the directory. On failure the previous final file is
// untouched.
func (p *Persister) writeFileAtomic(tmp, final string, content []byte) error {
	f, err := p.fs.Create(tmp)
	if err != nil {
		return err
	}
	n, err := f.Write(content)
	if err == nil && n != len(content) {
		err = fmt.Errorf("short write (%d of %d bytes)", n, len(content))
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		p.fs.Remove(tmp)
		return err
	}
	if err := p.fs.Rename(tmp, final); err != nil {
		p.fs.Remove(tmp)
		return err
	}
	return p.fs.SyncDir()
}

// rotateWALLocked replaces the WAL with a fresh one whose header starts
// past everything the just-written snapshot covers, then reopens it for
// appending.
func (p *Persister) rotateWALLocked() error {
	hdr, err := encodeFrame(&walHeader{Magic: walMagic, Name: p.db.name, StartSeq: p.seq + 1})
	if err != nil {
		return err
	}
	if err := p.writeFileAtomic(walTmpFile, WALFile, hdr); err != nil {
		return err
	}
	if p.wal != nil {
		p.wal.Close()
		p.wal = nil
	}
	f, _, err := p.fs.OpenAppend(WALFile)
	if err != nil {
		return err
	}
	p.wal = f
	return nil
}

// Snapshot forces a snapshot plus WAL rotation now.
func (p *Persister) Snapshot() error {
	p.gate.Lock()
	defer p.gate.Unlock()
	if p.failed != nil {
		return p.failed
	}
	return p.snapshotLocked()
}

// Sync flushes the WAL regardless of the fsync mode.
func (p *Persister) Sync() error {
	p.gate.Lock()
	defer p.gate.Unlock()
	if p.failed != nil {
		return p.failed
	}
	if p.wal == nil {
		return nil
	}
	return p.wal.Sync()
}

// Seq returns the sequence number of the last journaled record.
func (p *Persister) Seq() uint64 {
	p.gate.Lock()
	defer p.gate.Unlock()
	return p.seq
}

// Snapshots returns how many snapshots (each rotating the WAL) this
// persister has completed, the one Persist takes included.
func (p *Persister) Snapshots() int {
	p.gate.Lock()
	defer p.gate.Unlock()
	return p.snapshots
}

// Close takes a final snapshot (making the next recovery replay-free),
// closes the WAL and detaches from the database, which reverts to plain
// in-memory operation.
func (p *Persister) Close() error {
	p.gate.Lock()
	defer p.gate.Unlock()
	var err error
	if p.failed == nil {
		err = p.snapshotLocked()
		p.fail(errPersistClosed)
	}
	if p.wal != nil {
		if cerr := p.wal.Close(); err == nil && cerr != nil {
			err = cerr
		}
		p.wal = nil
	}
	p.db.detach(p)
	return err
}
