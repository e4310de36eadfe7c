package relstore

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Table is an in-memory relation: a schema plus an ordered multiset of
// tuples. Row storage is copy-on-write: readers load an immutable
// snapshot through an atomic pointer, so reads are safe against a
// concurrent writer without locking. Writers are serialized by the table
// mutex. A HashIndex carries the snapshot it was built from, so its
// positions are read against its own Rows, never against a later Row.
//
// Every mutation advances a monotonic per-table version and, when the
// mutation is expressible as row inserts/deletes, appends the delta to a
// bounded change log consumed by incremental view maintenance.
type Table struct {
	name   string
	schema Schema

	// snap is the published row snapshot: an immutable slice with
	// len == cap, possibly aliasing a prefix of buf.
	snap atomic.Pointer[[]Tuple]

	// version counts mutations of this table, starting at zero.
	version atomic.Uint64

	mu sync.Mutex
	// buf is the writer-side buffer. The prefix published in snap is
	// never rewritten in place; appends either fill spare capacity the
	// snapshot cannot see or reallocate.
	buf []Tuple
	// indexes and distinct are derived from the published snapshot, built
	// on first use and dropped by publishLocked — the one place a new
	// snapshot becomes visible — so neither can outlive the rows it
	// describes.
	indexes  map[string]*HashIndex
	distinct map[int]int // column -> number of distinct values
	log      changeLog
	// onBegin fires before a mutation publishes any data, onMutate after
	// the mutation is fully visible. Databases hook registered tables
	// here so the database's seqlock-style data version goes odd for the
	// duration of the write and lands even past it — the bracket version
	// caches use to recognize consistent snapshots.
	onBegin  []func()
	onMutate []func()

	// p, when set, is the durability layer of the owning database: each
	// mutation then takes the persister's gate before the table mutex,
	// journals a WAL record, and only applies if the append succeeds.
	// Read atomically so the unpersisted fast path costs one nil check.
	p atomic.Pointer[Persister]
}

// HashIndex maps the Tuple.KeyOn of a column list to row positions in the
// snapshot it was built from. It carries that snapshot: its positions
// index Rows and nothing else, so a reader that probes it can never pair
// one snapshot's positions with another's rows.
type HashIndex struct {
	rows    []Tuple
	buckets map[string][]int // tuple key -> ascending row positions
}

// Rows returns the snapshot the index was built from. Callers must not
// mutate it.
func (ix *HashIndex) Rows() []Tuple { return ix.rows }

// Lookup returns the ascending positions, in Rows, of the rows whose
// indexed columns equal key's values in order. It does not allocate for
// keys that encode in 64 bytes.
func (ix *HashIndex) Lookup(key Tuple) []int {
	var buf [64]byte
	return ix.buckets[string(key.appendKey(buf[:0]))]
}

// Unique reports whether no two indexed rows share a key: the indexed
// columns are a key of the snapshot.
func (ix *HashIndex) Unique() bool {
	for _, rows := range ix.buckets {
		if len(rows) > 1 {
			return false
		}
	}
	return true
}

// SubsetOf reports whether every key of ix is also a key of other: the
// inclusion of the two indexed projections.
func (ix *HashIndex) SubsetOf(other *HashIndex) bool {
	for k := range ix.buckets {
		if _, ok := other.buckets[k]; !ok {
			return false
		}
	}
	return true
}

// NewTable creates an empty table with the given name and schema.
func NewTable(name string, schema Schema) *Table {
	return &Table{name: name, schema: schema}
}

// TableFromRows builds a table holding the given rows in one step: every
// row is validated against the schema, then the slice is published as the
// table's snapshot. It is the constructor for temporaries — query results,
// attribute collections — which nobody mutates or asks for deltas: unlike
// a run of Inserts the table starts at version zero with an empty change
// log. The rows are shared, not copied: the caller must not modify them
// afterwards (the table itself never writes into the slice).
func TableFromRows(name string, schema Schema, rows []Tuple) (*Table, error) {
	for _, row := range rows {
		if err := schema.Validate(row); err != nil {
			return nil, fmt.Errorf("table %q: %v", name, err)
		}
	}
	t := &Table{name: name, schema: schema, buf: rows[:len(rows):len(rows)]}
	t.publishLocked()
	metricInserts.Add(int64(len(rows)))
	return t, nil
}

// DistinctRows returns rows without duplicates, keeping first occurrences
// in order. The input is not modified.
func DistinctRows(rows []Tuple) (kept, dropped []Tuple) {
	seen := make(map[string]struct{}, len(rows))
	kept = make([]Tuple, 0, len(rows))
	for _, row := range rows {
		k := row.Key()
		if _, dup := seen[k]; dup {
			dropped = append(dropped, row)
			continue
		}
		seen[k] = struct{}{}
		kept = append(kept, row)
	}
	return kept, dropped
}

// Name returns the table's name.
func (t *Table) Name() string { return t.name }

// Schema returns the table's schema. Callers must not mutate it.
func (t *Table) Schema() Schema { return t.schema }

// rowsSnap loads the current immutable row snapshot.
func (t *Table) rowsSnap() []Tuple {
	if p := t.snap.Load(); p != nil {
		return *p
	}
	return nil
}

// publishLocked makes the current buffer the visible snapshot and drops
// the structures derived from the previous one. The three-index slice
// caps the snapshot at its length so later in-place appends to spare
// buffer capacity stay invisible to readers.
func (t *Table) publishLocked() {
	s := t.buf[:len(t.buf):len(t.buf)]
	t.snap.Store(&s)
	t.indexes, t.distinct = nil, nil
}

// Len returns the number of tuples (the relation's cardinality).
func (t *Table) Len() int { return len(t.rowsSnap()) }

// Row returns the i-th tuple. Callers must not mutate it.
func (t *Table) Row(i int) Tuple { return t.rowsSnap()[i] }

// Rows returns the current row snapshot. Callers must not mutate it;
// use Insert to add rows. The snapshot is immutable: it does not observe
// later mutations.
func (t *Table) Rows() []Tuple { return t.rowsSnap() }

// Version returns the table's data version: a monotonic counter that
// increases on every mutating operation and never on reads. A reader
// that observes version v through Rows() sees at least the mutations up
// to v.
func (t *Table) Version() uint64 { return t.version.Load() }

// SetChangeLogLimit bounds the change log to n row deltas (0 restores
// DefaultChangeLogLimit). A negative n disables delta logging entirely:
// every ChangesSince window is reported truncated, forcing full
// refreshes.
func (t *Table) SetChangeLogLimit(n int) {
	if p := t.p.Load(); p != nil {
		p.gate.Lock()
		defer p.gate.Unlock()
		// Journaled because the limit shapes future log state: replaying
		// the same mutations under a different limit would recover a
		// different ChangesSince answer.
		if p.append(&walRecord{Kind: recLogLimit, Table: t.name, Limit: n}) != nil {
			return
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if n < 0 {
		t.log.disabled = true
		t.log.limit = 0
		t.log.resetLocked(t.version.Load(), TruncateReset)
		return
	}
	t.log.disabled = false
	t.log.limit = n
	for n > 0 && len(t.log.entries) > n {
		t.log.minVer = t.log.entries[0].Ver
		t.log.cause = TruncateRolled
		t.log.entries = t.log.entries[1:]
	}
}

// ChangesSince returns the row deltas after version since, or a
// truncated ChangeSet when the bounded log no longer covers the window.
func (t *Table) ChangesSince(since uint64) ChangeSet {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.log.sinceLocked(t.name, since, t.version.Load())
}

// resetLogPastLocked is used when this table replaces another under the
// same name: its version jumps past the predecessor's so the sequence
// observed by name stays monotonic, and the log resets because already
// logged deltas carry stale version numbers.
func (t *Table) resetLogPast(prev uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if cur := t.version.Load(); cur <= prev {
		t.version.Store(prev + 1)
	}
	t.log.resetLocked(t.version.Load(), TruncateReset)
}

// hookMutations registers a (begin, end) callback pair bracketing every
// mutation.
func (t *Table) hookMutations(begin, end func()) {
	t.mu.Lock()
	t.onBegin = append(t.onBegin, begin)
	t.onMutate = append(t.onMutate, end)
	t.mu.Unlock()
}

// beginMutateLocked runs the begin callbacks. Writers call it under the
// table lock, before publishing any data.
func (t *Table) beginMutateLocked() {
	for _, fn := range t.onBegin {
		fn()
	}
}

// mutated runs the end-of-mutation callbacks outside the table lock.
func (t *Table) mutated() {
	t.mu.Lock()
	fns := t.onMutate
	t.mu.Unlock()
	for _, fn := range fns {
		fn()
	}
}

// Insert appends a tuple after validating it against the schema.
func (t *Table) Insert(row Tuple) error {
	if err := t.schema.Validate(row); err != nil {
		return fmt.Errorf("table %q: %v", t.name, err)
	}
	if p := t.p.Load(); p != nil {
		p.gate.Lock()
		defer p.gate.Unlock()
		if err := p.append(&walRecord{Kind: recInsert, DBDelta: 2, Table: t.name,
			Ver: t.version.Load() + 1, Row: rowToWal(row)}); err != nil {
			return err
		}
	}
	t.mu.Lock()
	t.beginMutateLocked()
	t.buf = append(t.buf, row)
	t.publishLocked()
	ver := t.version.Add(1)
	t.log.appendLocked(Change{Ver: ver, Op: ChangeInsert, Row: row})
	t.mu.Unlock()
	metricInserts.Inc()
	t.mutated()
	return nil
}

// MustInsert is Insert panicking on error, for tests and generators whose
// tuples are constructed from the schema itself.
func (t *Table) MustInsert(row Tuple) {
	if err := t.Insert(row); err != nil {
		panic(err)
	}
}

// InsertValues builds a tuple by parsing each argument according to the
// schema column kinds and inserts it. Arguments may be int64, int, string
// or Value.
func (t *Table) InsertValues(vals ...any) error {
	if len(vals) != len(t.schema) {
		return fmt.Errorf("table %q: %d values for %d columns", t.name, len(vals), len(t.schema))
	}
	row := make(Tuple, len(vals))
	for i, raw := range vals {
		switch v := raw.(type) {
		case Value:
			row[i] = v
		case int:
			row[i] = Int(int64(v))
		case int64:
			row[i] = Int(v)
		case string:
			if t.schema[i].Kind == KindInt {
				parsed, err := ParseValue(KindInt, v)
				if err != nil {
					return err
				}
				row[i] = parsed
			} else {
				row[i] = String(v)
			}
		case nil:
			row[i] = Null
		default:
			return fmt.Errorf("table %q: unsupported value %T", t.name, raw)
		}
	}
	return t.Insert(row)
}

// DeleteWhere removes every row the predicate matches, returning the
// count. All removals are logged under a single new table version. When
// the journal refuses the record nothing is removed and the error is
// returned.
func (t *Table) DeleteWhere(match func(Tuple) bool) (int, error) {
	if p := t.p.Load(); p != nil {
		p.gate.Lock()
		defer p.gate.Unlock()
		// Predicates cannot be journaled; the matched positions can. The
		// gate excludes writers, so the published snapshot the predicate
		// runs over is the state the positions will apply to.
		idx := matching(t.rowsSnap(), match)
		if len(idx) == 0 {
			return 0, nil
		}
		if err := p.append(&walRecord{Kind: recDeleteRows, DBDelta: 2, Table: t.name,
			Ver: t.version.Load() + 1, Indices: idx}); err != nil {
			return 0, err
		}
		t.mu.Lock()
		return t.deleteIndices(idx), nil
	}
	t.mu.Lock()
	return t.deleteIndices(matching(t.buf, match)), nil
}

// matching returns the ascending positions of the rows match accepts.
func matching(rows []Tuple, match func(Tuple) bool) []int {
	var idx []int
	for i, row := range rows {
		if match(row) {
			idx = append(idx, i)
		}
	}
	return idx
}

// deleteIndices removes the rows at the given ascending positions,
// logging every removal under one new version — the core of DeleteWhere
// and of its WAL replay. The caller holds t.mu; deleteIndices releases
// it. No positions is no mutation.
func (t *Table) deleteIndices(idx []int) int {
	if len(idx) == 0 {
		t.mu.Unlock()
		return 0
	}
	removed := make([]Tuple, 0, len(idx))
	next := make([]Tuple, 0, len(t.buf)-len(idx))
	j := 0
	for i, row := range t.buf {
		if j < len(idx) && idx[j] == i {
			removed = append(removed, row)
			j++
		} else {
			next = append(next, row)
		}
	}
	t.beginMutateLocked()
	t.buf = next
	t.publishLocked()
	ver := t.version.Add(1)
	for _, row := range removed {
		t.log.appendLocked(Change{Ver: ver, Op: ChangeDelete, Row: row})
	}
	t.mu.Unlock()
	metricDeletes.Add(int64(len(removed)))
	t.mutated()
	return len(removed)
}

// Lookup returns the ascending positions of the rows whose projection
// onto cols equals key, together with the snapshot they index. It builds
// (and caches) a hash index on cols on first use.
func (t *Table) Lookup(cols []int, key Tuple) (rows []Tuple, pos []int) {
	ix := t.Index(cols)
	return ix.rows, ix.Lookup(key)
}

// Index returns the hash index on cols over the published snapshot,
// building and caching it on first use. Join loops fetch it once and
// probe it per row, instead of paying the table lock per probe. A hit
// costs the table lock and no allocation.
func (t *Table) Index(cols []int) *HashIndex {
	var buf [32]byte
	sig := buf[:0]
	for _, c := range cols {
		sig = strconv.AppendInt(sig, int64(c), 10)
		sig = append(sig, ',')
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if ix, ok := t.indexes[string(sig)]; ok {
		return ix
	}
	rows := t.rowsSnap()
	ix := &HashIndex{rows: rows, buckets: make(map[string][]int)}
	for i, row := range rows {
		k := row.KeyOn(cols)
		ix.buckets[k] = append(ix.buckets[k], i)
	}
	if t.indexes == nil {
		t.indexes = make(map[string]*HashIndex)
	}
	t.indexes[string(sig)] = ix
	return ix
}

// DistinctCount returns the number of distinct values in the given column,
// used by selectivity estimation. The planner asks for it per column per
// plan, so the count is memoized against the published snapshot (like the
// hash indexes: one scan under the table lock on first use).
func (t *Table) DistinctCount(col int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if n, ok := t.distinct[col]; ok {
		return n
	}
	rows := t.rowsSnap()
	seen := make(map[string]struct{}, len(rows))
	for _, row := range rows {
		seen[row[col].Key()] = struct{}{}
	}
	if t.distinct == nil {
		t.distinct = make(map[int]int, len(t.schema))
	}
	t.distinct[col] = len(seen)
	return len(seen)
}

// ByteSize returns the approximate total wire size of the table's rows.
func (t *Table) ByteSize() int {
	n := 0
	for _, row := range t.rowsSnap() {
		n += row.ByteSize()
	}
	return n
}

// Clone returns a deep copy of the table (indexes, version and change
// log are not copied: the clone is a fresh incarnation at version zero).
func (t *Table) Clone() *Table {
	rows := t.rowsSnap()
	out := NewTable(t.name, t.schema)
	out.buf = make([]Tuple, len(rows))
	for i, row := range rows {
		out.buf[i] = row.Clone()
	}
	out.publishLocked()
	return out
}

// Equal reports whether two tables have equal schemas and equal rows as
// multisets (order-insensitive).
func (t *Table) Equal(u *Table) bool {
	trows, urows := t.rowsSnap(), u.rowsSnap()
	if !t.schema.Equal(u.schema) || len(trows) != len(urows) {
		return false
	}
	counts := make(map[string]int, len(trows))
	for _, row := range trows {
		counts[row.Key()]++
	}
	for _, row := range urows {
		counts[row.Key()]--
		if counts[row.Key()] < 0 {
			return false
		}
	}
	return true
}

// String renders the table with its schema and up to 20 rows, for
// debugging and error messages.
func (t *Table) String() string {
	rows := t.rowsSnap()
	var b strings.Builder
	fmt.Fprintf(&b, "%s%s [%d rows]", t.name, t.schema, len(rows))
	for i, row := range rows {
		if i == 20 {
			b.WriteString("\n  ...")
			break
		}
		b.WriteString("\n  " + row.String())
	}
	return b.String()
}
