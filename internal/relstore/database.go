package relstore

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Database is a named collection of tables — one of the paper's relational
// sources (DB1..DB4). Table names are unique within a database.
type Database struct {
	name string

	// version is a seqlock-style data version: any operation that can
	// change what a query over this database returns (registering or
	// dropping a table, inserting rows, reordering or deduplicating a
	// registered table) advances it, reads never do. Registered-table
	// mutations bump it twice — to an odd value before any data becomes
	// visible and back to even after — so an observer that reads an even
	// version, then data, then the same even version has proof the data
	// is exactly the state at that version. Result caches key on it and
	// rely on that proof to cache only consistent snapshots.
	version atomic.Uint64

	mu     sync.RWMutex
	tables map[string]*Table

	// persist, when set, marks the database as journaled: its table set
	// is then fixed (AddTable and DropTable refuse), and registered
	// tables journal their row writes through their own pointers.
	// Atomic so the unpersisted fast path is a nil check without the
	// database lock.
	persist atomic.Pointer[Persister]

	// sig wakes ChangeSignal waiters (delta-subscription fan-out) after
	// every data-version advance.
	sig changeSignal
}

// NewDatabase creates an empty database with the given name.
func NewDatabase(name string) *Database {
	return &Database{name: name, tables: make(map[string]*Table)}
}

// Name returns the database's name.
func (db *Database) Name() string { return db.name }

// Version returns the database's data version: a monotonic counter that
// increases on every mutating operation and never on reads.
func (db *Database) Version() uint64 { return db.version.Load() }

// attach wires the persister into the database and every registered
// table. Called with the gate held, on a quiescent database.
func (db *Database) attach(p *Persister) {
	db.mu.Lock()
	for _, t := range db.tables {
		t.p.Store(p)
	}
	db.mu.Unlock()
	db.persist.Store(p)
}

// detach reverts the database to plain in-memory operation.
func (db *Database) detach(p *Persister) {
	db.persist.CompareAndSwap(p, nil)
	db.mu.Lock()
	for _, t := range db.tables {
		t.p.CompareAndSwap(p, nil)
	}
	db.mu.Unlock()
}

// beginMutation and endMutation bracket a registered table's mutation:
// odd while data may be in flux, even again once the mutation is fully
// visible.
func (db *Database) beginMutation() { db.version.Add(1) }
func (db *Database) endMutation() {
	db.version.Add(1)
	db.notifyChanged()
}

// Quiesced reports whether no registered-table mutation is in flight
// at the moment of the call (the version is even).
func (db *Database) Quiesced() bool { return db.version.Load()%2 == 0 }

// refuseIfPersisted panics when the database is journaled: its table
// set is fixed once a Persister is attached, and the WAL journals row
// writes only. Every caller of the refused operations builds in-memory
// state (loaders, generators, mirrors, recovery before it attaches), so
// reaching this is a programming error, not an input error.
func (db *Database) refuseIfPersisted(op string) {
	if db.persist.Load() != nil {
		panic(fmt.Sprintf("relstore: %s on persisted database %q: its tables are fixed once persisted", op, db.name))
	}
}

// AddTable registers a table. It replaces any existing table with the
// same name. The table is hooked so that its future mutations bump the
// database's data version. When a table is replaced, the newcomer's
// version is advanced past the predecessor's and its change log reset,
// so the version sequence observed under one table name stays monotonic
// and replacement shows up as a truncated delta window (full refresh).
// It panics on a persisted database.
func (db *Database) AddTable(t *Table) {
	db.refuseIfPersisted("AddTable")
	db.mu.Lock()
	prev := db.tables[t.Name()]
	db.tables[t.Name()] = t
	db.mu.Unlock()
	if prev != nil && prev != t {
		t.resetLogPast(prev.Version())
	}
	t.hookMutations(db.beginMutation, db.endMutation)
	db.version.Add(2)
	db.notifyChanged()
}

// CreateTable creates, registers and returns an empty table. It panics
// on a persisted database.
func (db *Database) CreateTable(name string, schema Schema) *Table {
	db.refuseIfPersisted("CreateTable")
	t := NewTable(name, schema)
	db.AddTable(t)
	return t
}

// DropTable removes the named table if present. It panics on a
// persisted database.
func (db *Database) DropTable(name string) {
	db.refuseIfPersisted("DropTable")
	db.mu.Lock()
	_, present := db.tables[name]
	delete(db.tables, name)
	db.mu.Unlock()
	if present {
		db.version.Add(2)
		db.notifyChanged()
	}
}

// Table returns the named table, or an error naming the database if it is
// absent.
func (db *Database) Table(name string) (*Table, error) {
	db.mu.RLock()
	t, ok := db.tables[name]
	db.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w %q in database %q", ErrUnknownTable, name, db.name)
	}
	return t, nil
}

// HasTable reports whether the named table exists.
func (db *Database) HasTable(name string) bool {
	db.mu.RLock()
	_, ok := db.tables[name]
	db.mu.RUnlock()
	return ok
}

// TableNames returns the table names in sorted order, for deterministic
// iteration.
func (db *Database) TableNames() []string {
	db.mu.RLock()
	names := make([]string, 0, len(db.tables))
	for n := range db.tables {
		names = append(names, n)
	}
	db.mu.RUnlock()
	sort.Strings(names)
	return names
}

// TableVersions returns the current data version of every table, keyed
// by table name.
func (db *Database) TableVersions() map[string]uint64 {
	db.mu.RLock()
	out := make(map[string]uint64, len(db.tables))
	for name, t := range db.tables {
		out[name] = t.Version()
	}
	db.mu.RUnlock()
	return out
}

// ChangesSince returns the named table's row deltas after version since
// (possibly truncated). Unknown tables yield an error.
func (db *Database) ChangesSince(table string, since uint64) (ChangeSet, error) {
	t, err := db.Table(table)
	if err != nil {
		return ChangeSet{}, err
	}
	return t.ChangesSince(since), nil
}

// Clone returns a deep copy of the database. The copy starts at data
// version zero with its tables hooked to bump the copy, not the
// original.
func (db *Database) Clone() *Database {
	out := NewDatabase(db.name)
	db.mu.RLock()
	clones := make([]*Table, 0, len(db.tables))
	for _, t := range db.tables {
		clones = append(clones, t.Clone())
	}
	db.mu.RUnlock()
	for _, t := range clones {
		out.tables[t.Name()] = t
		t.hookMutations(out.beginMutation, out.endMutation)
	}
	return out
}

// Catalog maps database names to databases. The AIG evaluators resolve
// source-qualified table references like "DB1:patient" against a catalog.
type Catalog struct {
	mu  sync.RWMutex
	dbs map[string]*Database
}

// NewCatalog creates an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{dbs: make(map[string]*Database)}
}

// Add registers a database, replacing any previous one with the same name.
func (c *Catalog) Add(db *Database) {
	c.mu.Lock()
	c.dbs[db.Name()] = db
	c.mu.Unlock()
}

// Database returns the named database, or an error if absent.
func (c *Catalog) Database(name string) (*Database, error) {
	c.mu.RLock()
	db, ok := c.dbs[name]
	c.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("relstore: no database %q in catalog", name)
	}
	return db, nil
}

// Table resolves a source-qualified table reference.
func (c *Catalog) Table(dbName, tableName string) (*Table, error) {
	db, err := c.Database(dbName)
	if err != nil {
		return nil, err
	}
	return db.Table(tableName)
}

// DatabaseNames returns the registered database names in sorted order.
func (c *Catalog) DatabaseNames() []string {
	c.mu.RLock()
	names := make([]string, 0, len(c.dbs))
	for n := range c.dbs {
		names = append(names, n)
	}
	c.mu.RUnlock()
	sort.Strings(names)
	return names
}
