package source

import (
	"fmt"

	"github.com/aigrepro/aig/internal/relstore"
)

// DurableOptions configures OpenDurable: where a source's durable state
// lives and how it is flushed.
type DurableOptions struct {
	// Dir is the state directory (snapshot + write-ahead log).
	Dir string
	// Fsync is the WAL flushing policy.
	Fsync relstore.FsyncMode
	// SnapshotEvery is the automatic snapshot cadence in WAL records
	// (0 = relstore.DefaultSnapshotEvery, negative disables).
	SnapshotEvery int
}

// OpenDurable opens the named database's durable state under Dir. When
// persisted state exists (a previous incarnation's snapshot or WAL) the
// database is recovered from it — tuples, table versions AND change
// logs, so ChangesSince watermarks taken before the restart still
// answer exactly. Otherwise seed provides the initial content (nil
// seeds an empty database) and persistence is attached to it. Either
// way every later row write is journaled and the table set is fixed
// (relstore refuses table adds and drops on a persisted database);
// close the returned Persister on shutdown for a snapshot-clean
// (replay-free) next start.
func OpenDurable(name string, opts DurableOptions, seed func() (*relstore.Database, error)) (*relstore.Database, *relstore.Persister, error) {
	popts := relstore.PersistOptions{Dir: opts.Dir, Fsync: opts.Fsync, SnapshotEvery: opts.SnapshotEvery}
	if relstore.HasPersistedState(popts) {
		db, p, err := relstore.Recover(name, popts)
		if err != nil {
			return nil, nil, fmt.Errorf("source %s: recover from %s: %w", name, opts.Dir, err)
		}
		return db, p, nil
	}
	var db *relstore.Database
	if seed == nil {
		db = relstore.NewDatabase(name)
	} else {
		var err error
		if db, err = seed(); err != nil {
			return nil, nil, fmt.Errorf("source %s: seed: %w", name, err)
		}
	}
	p, err := db.Persist(popts)
	if err != nil {
		return nil, nil, fmt.Errorf("source %s: persist to %s: %w", name, opts.Dir, err)
	}
	return db, p, nil
}
