package relstore

import (
	"bytes"
	"encoding/gob"
	"math"
	"strings"
	"testing"
)

// FuzzTupleGob checks the tuple encoding both ways. A tuple built from
// the input — Null, the int64 extremes, a string with a NUL and invalid
// UTF-8, then fuzzValue's values — must come back Equal from a gob round
// trip. The raw input handed to GobDecode must not panic: it is refused,
// or it decodes to a tuple whose own encoding decodes back to it.
func FuzzTupleGob(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x02\x04a\x00\xff\xfe\x01\x80\x00"))
	for _, row := range []Tuple{{}, {Null}, {Int(math.MinInt64), String("")}, {String("x"), Int(-1), Null}} {
		b, err := row.GobEncode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		row := Tuple{Null, Int(math.MinInt64), Int(math.MaxInt64), String("a\x00b\xff\xfe")}
		for rest := data; len(rest) > 0; {
			var v Value
			v, rest = fuzzValue(rest)
			row = append(row, v)
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(row); err != nil {
			t.Fatalf("encode %v: %v", row, err)
		}
		var back Tuple
		if err := gob.NewDecoder(&buf).Decode(&back); err != nil {
			t.Fatalf("decode %v: %v", row, err)
		}
		if !back.Equal(row) {
			t.Fatalf("round trip of %v gave %v", row, back)
		}

		var got Tuple
		if got.GobDecode(data) != nil {
			return
		}
		enc, err := got.GobEncode()
		if err != nil {
			t.Fatalf("re-encode %v: %v", got, err)
		}
		var again Tuple
		if err := again.GobDecode(enc); err != nil || !again.Equal(got) {
			t.Fatalf("decoded %v, re-encoded it decodes as %v, %v", got, again, err)
		}
	})
}

// Bad tuple encodings are refused with a reason, whatever part is bad.
func TestTupleGobDecodeRefuses(t *testing.T) {
	for _, c := range []struct {
		name, want string
		data       []byte
	}{
		{"empty input", "truncated", nil},
		{"unknown kind", "unknown value kind 7", []byte{1, 7}},
		{"count past the input", "count 5 exceeds", []byte{5, 0}},
		{"string past the input", "truncated", []byte{1, byte(KindString), 9, 'a'}},
		{"missing int", "truncated", []byte{1, byte(KindInt)}},
		{"trailing bytes", "2 trailing bytes", []byte{1, byte(KindNull), 0, 0}},
	} {
		var tu Tuple
		if err := tu.GobDecode(c.data); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: GobDecode = %v, want an error containing %q", c.name, err, c.want)
		}
	}
}

// A decoded schema passes ParseSchema's checks: a schema ParseSchema
// would refuse does not decode either.
func TestSchemaGobChecks(t *testing.T) {
	good := MustSchema("a:int", "b:string", "c:null")
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(good); err != nil {
		t.Fatal(err)
	}
	var back Schema
	if err := gob.NewDecoder(&buf).Decode(&back); err != nil || !back.Equal(good) {
		t.Fatalf("round trip of %v gave %v, %v", good, back, err)
	}
	for _, c := range []struct {
		want string
		s    Schema
	}{
		{"empty column name", Schema{{"a", KindInt}, {"", KindString}}},
		{"duplicate column", Schema{{"a", KindInt}, {"a", KindString}}},
		{"unknown kind", Schema{{"a", Kind(9)}}},
	} {
		b, err := c.s.GobEncode()
		if err != nil {
			t.Fatal(err)
		}
		var s Schema
		if err := s.GobDecode(b); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("decoding %v = %v, want an error containing %q", c.s, err, c.want)
		}
		if err := s.GobDecode(b[:len(b)-1]); err == nil {
			t.Errorf("decoding %v cut short succeeded", c.s)
		}
	}
}
