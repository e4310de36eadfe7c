package relstore

import (
	"errors"
	"strings"
	"testing"
)

// FuzzParseRow: the row parser sees text from HTTP queries and CLI specs.
// It must never panic, must refuse the wrong arity, must only accept rows
// the schema validates, and an accepted row rendered back with
// Value.Text must parse to an equal tuple.
func FuzzParseRow(f *testing.F) {
	f.Add([]byte{0, 1}, "a,1")
	f.Add([]byte{1, 1}, "1, 2")
	f.Add([]byte{1}, "x")
	f.Add([]byte{0, 1, 2}, ",,")
	f.Add([]byte{}, "")
	f.Add([]byte{1}, "-9223372036854775809")
	f.Fuzz(func(t *testing.T, kinds []byte, list string) {
		schema := make(Schema, len(kinds))
		for i, k := range kinds {
			schema[i] = Column{Name: string(rune('a' + i%26)), Kind: []Kind{KindString, KindInt, KindNull}[k%3]}
		}
		texts := SplitValues(list)
		row, err := schema.ParseRow(texts)
		if err != nil {
			if !errors.Is(err, ErrMalformed) {
				t.Fatalf("ParseRow(%q) error %v is not ErrMalformed", texts, err)
			}
			return
		}
		if len(texts) != len(schema) {
			t.Fatalf("ParseRow accepted %d values for %d columns", len(texts), len(schema))
		}
		if err := schema.Validate(row); err != nil {
			t.Fatalf("ParseRow(%q) = %v, which the schema rejects: %v", texts, row, err)
		}
		rendered := row.Texts()
		again, err := schema.ParseRow(rendered)
		if err != nil || !again.Equal(row) {
			t.Fatalf("%v rendered as %q parses to %v, %v", row, strings.Join(rendered, ","), again, err)
		}
	})
}
