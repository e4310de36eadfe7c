package relstore

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// The gob encoding of relstore's data. Tuple and Schema implement
// gob.GobEncoder and gob.GobDecoder, so every type built from them —
// Change, ChangeSet, the WAL's records and snapshots, the remote
// protocol's messages, sqlmini.Binding — gobs as it is, in this one
// encoding. Both decoders check what they decode: arbitrary input
// yields an error, never a panic and never a value the constructors
// could not have built. Whether a row fits its schema is the receiver's
// check (Schema.ValidateRows), since a tuple travels without one.
//
// A tuple is its arity as a uvarint, then per value a kind byte (the
// Kind values) and the payload: nothing for Null, a zigzag varint for
// Int, a uvarint length and the bytes for String. A schema is its column
// count, then per column the kind byte, the name's uvarint length and
// the name.

// GobEncode implements gob.GobEncoder.
func (t Tuple) GobEncode() ([]byte, error) {
	n := binary.MaxVarintLen64
	for _, v := range t {
		n += 1 + binary.MaxVarintLen64 + len(v.s)
	}
	b := binary.AppendUvarint(make([]byte, 0, n), uint64(len(t)))
	for _, v := range t {
		b = append(b, byte(v.kind))
		switch v.kind {
		case KindInt:
			b = binary.AppendVarint(b, v.i)
		case KindString:
			b = appendString(b, v.s)
		}
	}
	return b, nil
}

// GobDecode implements gob.GobDecoder. The tuple's strings share one
// copy of data, so decoding costs at most two allocations per tuple.
func (t *Tuple) GobDecode(data []byte) error {
	d := decoder{b: data}
	out := make(Tuple, d.count(1))
	for i := range out {
		switch k := Kind(d.byte()); k {
		case KindNull:
		case KindInt:
			out[i] = Int(d.varint())
		case KindString:
			out[i] = String(d.str())
		default:
			d.fail(fmt.Errorf("unknown value kind %d", k))
		}
	}
	if err := d.end(); err != nil {
		return fmt.Errorf("relstore: decoding tuple: %w", err)
	}
	*t = out
	return nil
}

// GobEncode implements gob.GobEncoder.
func (s Schema) GobEncode() ([]byte, error) {
	b := binary.AppendUvarint(nil, uint64(len(s)))
	for _, c := range s {
		b = appendString(append(b, byte(c.Kind)), c.Name)
	}
	return b, nil
}

// GobDecode implements gob.GobDecoder with ParseSchema's checks.
func (s *Schema) GobDecode(data []byte) error {
	d := decoder{b: data}
	out := make(Schema, d.count(2))
	for i := range out {
		out[i].Kind = Kind(d.byte())
		out[i].Name = d.str()
	}
	err := d.end()
	if err == nil {
		err = out.check()
	}
	if err != nil {
		return fmt.Errorf("relstore: decoding schema: %w", err)
	}
	*s = out
	return nil
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

var errTruncated = errors.New("truncated input")

// decoder reads the encoding above. The first malformed read records
// err, which end reports; reads stay within b whatever came before, so
// a caller may finish its loop and look at err once.
type decoder struct {
	b   []byte
	off int
	s   string // string(b), made on the first string read
	err error
}

func (d *decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// count reads an element count. Each element takes at least min bytes,
// so a count the rest of the input cannot hold is refused before
// anything is allocated for it.
func (d *decoder) count(min int) int {
	n := d.uvarint()
	if n > uint64((len(d.b)-d.off)/min) {
		d.fail(fmt.Errorf("count %d exceeds the %d bytes left", n, len(d.b)-d.off))
		return 0
	}
	return int(n)
}

func (d *decoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.b[d.off:])
	d.skip(n)
	return v
}

func (d *decoder) varint() int64 {
	v, n := binary.Varint(d.b[d.off:])
	d.skip(n)
	return v
}

// skip consumes a varint of n bytes; binary reports a truncated or
// overlong one as n <= 0, and a zero value.
func (d *decoder) skip(n int) {
	if n <= 0 {
		d.fail(errTruncated)
		return
	}
	d.off += n
}

func (d *decoder) byte() byte {
	if d.off >= len(d.b) {
		d.fail(errTruncated)
		return 0
	}
	d.off++
	return d.b[d.off-1]
}

func (d *decoder) str() string {
	n := d.uvarint()
	if n > uint64(len(d.b)-d.off) {
		d.fail(errTruncated)
		return ""
	}
	if d.s == "" {
		d.s = string(d.b)
	}
	start := d.off
	d.off += int(n)
	return d.s[start:d.off]
}

// end reports the first failure, or trailing bytes past the value.
func (d *decoder) end() error {
	if d.err == nil && d.off != len(d.b) {
		d.err = fmt.Errorf("%d trailing bytes", len(d.b)-d.off)
	}
	return d.err
}
