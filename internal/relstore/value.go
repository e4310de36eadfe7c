// Package relstore implements the in-memory relational storage engine that
// underlies every data source in the AIG middleware. It provides typed
// values, schemas, tables with hash indexes, databases, catalogs, basic
// statistics used by the cost model, and CSV import/export.
//
// The engine is deliberately small but complete: the sqlmini package plans
// and executes a SQL subset against it, and the remote package serves it
// over TCP so that it can play the role of the distributed relational
// sources (DB1..DB4) in the paper's experiments. Tuple and Schema carry
// their own gob encoding (gob.go), which checks what it decodes; the
// write-ahead log, the snapshots and the remote protocol all ship
// relstore's types in it, so this package alone decides how its data is
// encoded.
package relstore

import (
	"fmt"
	"strconv"
	"strings"
)

// Kind identifies the dynamic type of a Value.
type Kind uint8

// The supported value kinds. Null is the absence of a value; it appears in
// outer-union and outer-join results produced by query merging.
const (
	KindNull Kind = iota
	KindInt
	KindString
)

// String returns the lower-case name of the kind as used in schemas and CSV
// headers.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindInt:
		return "int"
	case KindString:
		return "string"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// ParseKind parses a kind name ("int", "string") as written in CSV headers
// and schema declarations.
func ParseKind(s string) (Kind, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "int", "integer":
		return KindInt, nil
	case "string", "str", "text", "varchar":
		return KindString, nil
	case "null":
		return KindNull, nil
	default:
		return KindNull, fmt.Errorf("relstore: unknown kind %q", s)
	}
}

// Value is a single typed relational value. The zero Value is Null.
// Values are immutable; copying is cheap.
type Value struct {
	kind Kind
	i    int64
	s    string
}

// Null is the SQL-null placeholder value.
var Null = Value{}

// Int returns an integer value.
func Int(v int64) Value { return Value{kind: KindInt, i: v} }

// String returns a string value.
func String(s string) Value { return Value{kind: KindString, s: s} }

// Kind reports the value's dynamic kind.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is Null.
func (v Value) IsNull() bool { return v.kind == KindNull }

// AsInt returns the integer payload. It panics if the value is not an int;
// callers are expected to have checked kinds via the schema.
func (v Value) AsInt() int64 {
	if v.kind != KindInt {
		panic(fmt.Sprintf("relstore: AsInt on %s value", v.kind))
	}
	return v.i
}

// AsString returns the string payload. It panics if the value is not a
// string.
func (v Value) AsString() string {
	if v.kind != KindString {
		panic(fmt.Sprintf("relstore: AsString on %s value", v.kind))
	}
	return v.s
}

// Text renders the value as the text that appears in XML PCDATA and CSV
// cells. Null renders as the empty string.
func (v Value) Text() string {
	switch v.kind {
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindString:
		return v.s
	default:
		return ""
	}
}

// String implements fmt.Stringer with a debugging representation that
// distinguishes kinds ('abc' vs 42 vs NULL).
func (v Value) String() string {
	switch v.kind {
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindString:
		return "'" + v.s + "'"
	default:
		return "NULL"
	}
}

// ParseValue parses the textual form of a value of the given kind, the
// inverse of Text.
func ParseValue(kind Kind, text string) (Value, error) {
	switch kind {
	case KindInt:
		if text == "" {
			return Null, nil
		}
		n, err := strconv.ParseInt(strings.TrimSpace(text), 10, 64)
		if err != nil {
			return Null, fmt.Errorf("relstore: parsing int %q: %v", text, err)
		}
		return Int(n), nil
	case KindString:
		return String(text), nil
	case KindNull:
		return Null, nil
	default:
		return Null, fmt.Errorf("relstore: cannot parse kind %v", kind)
	}
}

// Equal reports whether two values are identical (same kind and payload).
// Nulls compare equal to each other, which is what the duplicate-detection
// guards of constraint compilation need.
func (v Value) Equal(w Value) bool {
	if v.kind != w.kind {
		return false
	}
	switch v.kind {
	case KindInt:
		return v.i == w.i
	case KindString:
		return v.s == w.s
	default:
		return true
	}
}

// Compare orders values: Null < Int < String across kinds, numerically
// within ints and lexicographically within strings. It returns -1, 0 or 1.
func (v Value) Compare(w Value) int {
	if v.kind != w.kind {
		if v.kind < w.kind {
			return -1
		}
		return 1
	}
	switch v.kind {
	case KindInt:
		switch {
		case v.i < w.i:
			return -1
		case v.i > w.i:
			return 1
		}
		return 0
	case KindString:
		return strings.Compare(v.s, w.s)
	default:
		return 0
	}
}

// Key returns a compact string encoding of the value suitable for use as a
// Go map key in hash indexes and duplicate detection. Distinct values have
// distinct keys.
func (v Value) Key() string {
	switch v.kind {
	case KindInt:
		return "i" + strconv.FormatInt(v.i, 10)
	case KindString:
		return "s" + v.s
	default:
		return "n"
	}
}

// ByteSize returns the approximate width in bytes of the value's wire
// representation, used by the cost model's size() estimates.
func (v Value) ByteSize() int {
	switch v.kind {
	case KindInt:
		return 8
	case KindString:
		return len(v.s) + 4
	default:
		return 1
	}
}
