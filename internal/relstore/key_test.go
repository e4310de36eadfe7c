package relstore

import (
	"math/rand/v2"
	"slices"
	"testing"
)

// A string holding the separator must not forge a value boundary: these
// two rows differ, yet their values once joined into identical keys, so
// DistinctRows kept one of them and a delete-by-key removed both.
func TestTupleKeyEscapesSeparator(t *testing.T) {
	a := Tuple{String("a\x1fsb"), String("c")}
	b := Tuple{String("a"), String("b\x1fsc")}
	if a.Key() == b.Key() {
		t.Fatalf("%v and %v share the key %q", a, b, a.Key())
	}
	if kept, _ := DistinctRows([]Tuple{a, b}); len(kept) != 2 {
		t.Errorf("DistinctRows kept %v, want both rows", kept)
	}
}

// FuzzTupleKey checks that Key is exact on same-arity tuples: two keys
// are equal if and only if the tuples are Equal.
func FuzzTupleKey(f *testing.F) {
	f.Add([]byte("\x02\x02\x04a\x1fsb\x02\x01c\x02\x01a\x02\x04b\x1fsc"))
	f.Add([]byte("\x01\x00\x02\x00"))
	f.Add([]byte("\x02\x01\x05\x02\x00\x01\x05\x02\x00"))
	f.Add([]byte("\x03\x02\x01\x1f\x02\x00\x00\x02\x02\x1f\x1f\x02\x00\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := int(data[0] % 4)
		data = data[1:]
		a, b := make(Tuple, n), make(Tuple, n)
		for i := range a {
			a[i], data = fuzzValue(data)
		}
		for i := range b {
			b[i], data = fuzzValue(data)
		}
		if a.Equal(b) != (a.Key() == b.Key()) {
			t.Fatalf("Equal(%v, %v) = %v, but keys %q and %q", a, b, a.Equal(b), a.Key(), b.Key())
		}
	})
}

// FuzzTupleHash checks the row hash that parameter-table joins and set
// dedup use: tuples whose projections are Equal have equal HashOn, a
// projection's Hash is its source's HashOn, and two values are == (the
// comparison a Value-keyed map makes) exactly when they are Equal.
func FuzzTupleHash(f *testing.F) {
	f.Add([]byte("\x02\x00\x01\x01\x00\x02\x011\x00\x01"))                        // (Null, 1) vs (Null, '1')
	f.Add([]byte("\x01\x00\x01\x00\x00"))                                         // Null vs 0
	f.Add([]byte("\x02\x01\x05\x00\x01\x05\x02\x01x\x00\x00"))                    // equal on column 0 only
	f.Add([]byte("\x02\x02\x04a\x1fsb\x02\x01c\x02\x01a\x02\x04b\x1fsc\x01\x00")) // 0x1f inside strings
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := int(data[0] % 4)
		data = data[1:]
		a, b := make(Tuple, n), make(Tuple, n)
		for i := range a {
			a[i], data = fuzzValue(data)
		}
		for i := range b {
			b[i], data = fuzzValue(data)
		}
		var cols []int
		for i := 0; n > 0 && i < len(data) && i < 6; i++ {
			cols = append(cols, int(data[i])%n)
		}
		for i := range a {
			if (a[i] == b[i]) != a[i].Equal(b[i]) {
				t.Fatalf("%v == %v is %v, Equal is %v", a[i], b[i], a[i] == b[i], a[i].Equal(b[i]))
			}
		}
		pa, pb := a.Project(cols), b.Project(cols)
		if pa.Equal(pb) && a.HashOn(cols) != b.HashOn(cols) {
			t.Fatalf("%v and %v are equal on %v but hash %x and %x", a, b, cols, a.HashOn(cols), b.HashOn(cols))
		}
		if pa.Hash() != a.HashOn(cols) {
			t.Fatalf("Hash of %v's projection on %v is %x, HashOn %x", a, cols, pa.Hash(), a.HashOn(cols))
		}
	})
}

// fuzzValue decodes one value from the front of data: a tag byte picks
// Null, an int (the next byte, so values repeat often) or a string (a
// length byte, then that many bytes). Exhausted input decodes as Null.
func fuzzValue(data []byte) (Value, []byte) {
	if len(data) == 0 {
		return Null, nil
	}
	tag, data := data[0]%3, data[1:]
	switch {
	case tag == 1 && len(data) > 0:
		return Int(int64(int8(data[0]))), data[1:]
	case tag == 2 && len(data) > 0:
		n := min(int(data[0]%8), len(data)-1)
		return String(string(data[1 : 1+n])), data[1+n:]
	}
	return Null, data
}

// TestDistinctRowsMatchesKeyReference compares DistinctRows with the
// string-keyed first-occurrence dedup it replaced, over seeded random
// two-column rows drawn from values whose keys or hashes are easy to
// confuse: Nulls, Int(1) beside String("1"), Int(0) beside String(""),
// and strings holding the key separator 0x1f.
func TestDistinctRowsMatchesKeyReference(t *testing.T) {
	vals := []Value{Null, Int(0), Int(1), String(""), String("1"), String("0"),
		String("\x1f"), String("a\x1f"), String("\x1fa"), String("a"), Int(-1)}
	reference := func(rows []Tuple) (kept, dropped []Tuple) {
		seen := make(map[string]bool)
		for _, row := range rows {
			if k := row.Key(); seen[k] {
				dropped = append(dropped, row)
			} else {
				seen[k] = true
				kept = append(kept, row)
			}
		}
		return kept, dropped
	}
	same := func(a, b []Tuple) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if &a[i][0] != &b[i][0] {
				return false
			}
		}
		return true
	}
	rng := rand.New(rand.NewPCG(48, 1))
	for trial := 0; trial < 500; trial++ {
		rows := make([]Tuple, rng.IntN(40))
		for i := range rows {
			rows[i] = Tuple{vals[rng.IntN(len(vals))], vals[rng.IntN(len(vals))]}
		}
		input := slices.Clone(rows)
		kept, dropped := DistinctRows(rows)
		wantKept, wantDropped := reference(rows)
		if !same(kept, wantKept) || !same(dropped, wantDropped) {
			t.Fatalf("trial %d: DistinctRows(%v) kept %v, dropped %v; want %v, %v", trial, rows, kept, dropped, wantKept, wantDropped)
		}
		if !same(rows, input) {
			t.Fatalf("trial %d: DistinctRows modified its input", trial)
		}
	}
}
