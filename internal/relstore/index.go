package relstore

import "slices"

// HashIndex is the one hash table over rows: it groups rows by their
// values on a column list. Rows hash by Tuple.HashOn, and Value.Equal
// confirms every match, so a hash collision changes no result. Keys are
// numbered in order of first occurrence, and each key's row positions
// are kept contiguous and ascending, so Lookup returns them in row order
// without allocating.
//
// A table's index (Table.Index) carries the snapshot it was built from:
// its positions index Rows and nothing else, so a reader that probes it
// can never pair one snapshot's positions with another's rows. An index
// of one's own must be built before it is probed, and Build reuses its
// array when it is rebuilt over other rows.
type HashIndex struct {
	rows  []Tuple
	cols  []int // the indexed columns; nil indexes whole rows
	shift uint  // a hash's slot is hash >> shift
	// buf backs the four arrays below, so a build allocates once.
	buf []int32
	// slots is the open-addressed table, probed linearly: slot s holds
	// at 2s the first row of a key + 1 (0 if free) and at 2s+1 the low
	// 32 bits of that key's hash, which spare most mismatches an Equal.
	slots []int32
	key   []int32 // by row: its key, numbered in order of first occurrence
	start []int32 // by key, and one past the last: its first entry in pos
	pos   []int32 // row positions, grouped by key
}

// Build indexes rows on cols, replacing what the index held and reusing
// its array; nil cols index whole rows (Tuple.Equal, arity included).
// The index keeps rows and cols: the caller must not modify them while
// it uses the index.
func (ix *HashIndex) Build(rows []Tuple, cols []int) {
	n := len(rows)
	bits := 1
	for 1<<bits < 2*n {
		bits++
	}
	ns := 2 << bits
	size := ns + 3*n + 1
	ix.buf = slices.Grow(ix.buf[:0], size)[:size]
	ix.rows, ix.cols, ix.shift = rows, cols, uint(64-bits)
	ix.slots, ix.key, ix.pos = ix.buf[:ns], ix.buf[ns:ns+n], ix.buf[ns+n:ns+2*n]
	clear(ix.slots)
	nk := int32(0)
	for i, row := range rows {
		h := hashOn(row, cols)
		if r, s := ix.find(row, cols, h); r >= 0 {
			ix.key[i] = ix.key[r]
		} else {
			ix.key[i] = nk
			nk++
			ix.slots[s], ix.slots[s+1] = int32(i+1), int32(h)
		}
	}

	// A counting sort of the positions by key: count each key's rows
	// one place up, sum the counts into starts, place every row at its
	// key's cursor, then move the advanced cursors back down one place.
	ix.start = ix.buf[ns+2*n : ns+2*n+int(nk)+1]
	clear(ix.start)
	for _, k := range ix.key {
		ix.start[k+1]++
	}
	for k := 1; k <= int(nk); k++ {
		ix.start[k] += ix.start[k-1]
	}
	for i, k := range ix.key {
		ix.pos[ix.start[k]] = int32(i)
		ix.start[k]++
	}
	copy(ix.start[1:], ix.start[:nk])
	ix.start[0] = 0
}

// Rows returns the rows the index was built from. Callers must not
// mutate them.
func (ix *HashIndex) Rows() []Tuple { return ix.rows }

// Lookup returns the ascending positions, in Rows, of the rows whose
// indexed columns equal key's values in order. It does not allocate.
func (ix *HashIndex) Lookup(key Tuple) []int32 {
	r, _ := ix.find(key, nil, key.Hash())
	if r < 0 {
		return nil
	}
	return ix.group(ix.key[r])
}

// group returns the positions of key k's rows.
func (ix *HashIndex) group(k int32) []int32 {
	lo, hi := ix.start[k], ix.start[k+1]
	return ix.pos[lo:hi:hi]
}

// keys returns the number of distinct keys.
func (ix *HashIndex) keys() int { return len(ix.start) - 1 }

// Unique reports whether no two indexed rows share a key: the indexed
// columns are a key of the rows.
func (ix *HashIndex) Unique() bool { return ix.keys() == len(ix.rows) }

// Repeat reports whether row i shares its key with an earlier row.
func (ix *HashIndex) Repeat(i int) bool { return ix.group(ix.key[i])[0] != int32(i) }

// SubsetOf reports whether every key of ix is also a key of other: the
// inclusion of the two indexed projections.
func (ix *HashIndex) SubsetOf(other *HashIndex) bool {
	for k := range ix.keys() {
		row := ix.rows[ix.group(int32(k))[0]]
		if r, _ := other.find(row, ix.cols, hashOn(row, ix.cols)); r < 0 {
			return false
		}
	}
	return true
}

// find returns the first row of the key whose values equal row's at
// cols (all of row's with nil cols), given their hash h, and its slot;
// or -1 and the free slot where that key would go.
func (ix *HashIndex) find(row Tuple, cols []int, h uint64) (int32, int) {
	mask := len(ix.slots) - 1
	for s := int(h>>ix.shift) * 2; ; s = (s + 2) & mask {
		r := ix.slots[s] - 1
		if r < 0 || ix.slots[s+1] == int32(h) && equalOn(ix.rows[r], ix.cols, row, cols) {
			return r, s
		}
	}
}

// hashOn is the hash of row's values at cols, or of the whole row with
// nil cols.
func hashOn(row Tuple, cols []int) uint64 {
	if cols == nil {
		return row.Hash()
	}
	return row.HashOn(cols)
}

// equalOn reports whether a's values at ac equal b's at bc, in order; a
// nil column list stands for all of its tuple's values.
func equalOn(a Tuple, ac []int, b Tuple, bc []int) bool {
	if ac == nil {
		if bc == nil {
			return a.Equal(b)
		}
		a, ac, b, bc = b, bc, a, ac
	}
	if bc == nil && len(ac) != len(b) || bc != nil && len(ac) != len(bc) {
		return false
	}
	for j, c := range ac {
		y := j
		if bc != nil {
			y = bc[j]
		}
		if !a[c].Equal(b[y]) {
			return false
		}
	}
	return true
}

// KeepFirst compacts rows in place to the first row of each key, in
// order, and returns them. rows are the rows the index was last built
// from, or a copy of them position for position; once the index's own
// rows are compacted it must be rebuilt before it is probed again.
func (ix *HashIndex) KeepFirst(rows []Tuple) []Tuple {
	if ix.Unique() {
		return rows
	}
	n := 0
	for i, row := range rows {
		if !ix.Repeat(i) {
			rows[n] = row
			n++
		}
	}
	return rows[:n]
}

// DistinctRows returns rows without duplicates, keeping first occurrences
// in order, and the duplicates it dropped. The input is not modified.
func DistinctRows(rows []Tuple) (kept, dropped []Tuple) {
	var ix HashIndex
	ix.Build(rows, nil)
	for i, row := range rows {
		if ix.Repeat(i) {
			dropped = append(dropped, row)
		}
	}
	return ix.KeepFirst(slices.Clone(rows)), dropped
}
