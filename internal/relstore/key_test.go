package relstore

import "testing"

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
	if a.KeyOn([]int{1, 0}) == b.KeyOn([]int{1, 0}) {
		t.Error("KeyOn collides on the reordered projection")
	}
}

// FuzzTupleKey checks that Key is exact on same-arity tuples: two keys
// are equal if and only if the tuples are Equal, and KeyOn over every
// column agrees with Key.
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
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		if a.KeyOn(all) != a.Key() {
			t.Fatalf("KeyOn(all) = %q, Key = %q", a.KeyOn(all), a.Key())
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
