package relstore

import (
	"strconv"
	"strings"
)

// Tuple is a single row of a relation: an ordered list of values.
type Tuple []Value

// Clone returns a copy of the tuple that shares no storage with the
// original.
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// Equal reports whether two tuples have the same length and pairwise-equal
// values.
func (t Tuple) Equal(u Tuple) bool {
	if len(t) != len(u) {
		return false
	}
	for i := range t {
		if !t[i].Equal(u[i]) {
			return false
		}
	}
	return true
}

// Texts renders each value with Value.Text: the form Schema.ParseRow
// parses back to an equal tuple.
func (t Tuple) Texts() []string {
	out := make([]string, len(t))
	for i, v := range t {
		out[i] = v.Text()
	}
	return out
}

// Compare orders tuples lexicographically by their values. Shorter tuples
// that are prefixes of longer ones sort first.
func (t Tuple) Compare(u Tuple) int {
	n := len(t)
	if len(u) < n {
		n = len(u)
	}
	for i := 0; i < n; i++ {
		if c := t[i].Compare(u[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(t) < len(u):
		return -1
	case len(t) > len(u):
		return 1
	}
	return 0
}

// Project returns the tuple restricted to the values at the given
// positions.
func (t Tuple) Project(idx []int) Tuple {
	out := make(Tuple, len(idx))
	for i, j := range idx {
		out[i] = t[j]
	}
	return out
}

// Key returns a string that uniquely encodes the tuple's values, usable as
// a Go map key for hash joins, duplicate elimination and index lookups:
// two tuples of one arity have equal keys exactly when they are Equal.
func (t Tuple) Key() string {
	var buf [64]byte
	return string(t.appendKey(buf[:0]))
}

// appendKey appends the tuple's Key to b.
func (t Tuple) appendKey(b []byte) []byte {
	for i, v := range t {
		if i > 0 {
			b = append(b, keySep)
		}
		b = v.appendKey(b)
	}
	return b
}

// KeyOn returns the Key of the projection of the tuple onto the given
// column positions without materializing the projection.
func (t Tuple) KeyOn(idx []int) string {
	var buf [64]byte
	b := buf[:0]
	for i, j := range idx {
		if i > 0 {
			b = append(b, keySep)
		}
		b = t[j].appendKey(b)
	}
	return string(b)
}

// ByteSize returns the approximate wire size of the tuple in bytes, used by
// the communication cost model.
func (t Tuple) ByteSize() int {
	n := 0
	for _, v := range t {
		n += v.ByteSize()
	}
	return n
}

// String renders the tuple as "(v1, v2, ...)" for debugging.
func (t Tuple) String() string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = v.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// keySep separates the values of a tuple key. A string value doubles
// every keySep it contains, and every value key starts with a kind tag,
// never with keySep, so a single keySep always ends a value.
const keySep = 0x1f

// appendKey appends the value's key within a tuple key: Value.Key with
// keySep escaped.
func (v Value) appendKey(b []byte) []byte {
	switch v.kind {
	case KindInt:
		return strconv.AppendInt(append(b, 'i'), v.i, 10)
	case KindString:
		b = append(b, 's')
		if strings.IndexByte(v.s, keySep) < 0 {
			return append(b, v.s...)
		}
		for i := 0; i < len(v.s); i++ {
			if v.s[i] == keySep {
				b = append(b, keySep)
			}
			b = append(b, v.s[i])
		}
		return b
	default:
		return append(b, 'n')
	}
}
