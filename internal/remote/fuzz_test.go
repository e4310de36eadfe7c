package remote

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"reflect"
	"testing"

	"github.com/aigrepro/aig/internal/relstore"
)

// FuzzChangeSetWire checks that arbitrary change sets survive the wire:
// a gob round trip of the relstore.ChangeSet is the identity. The raw input drives a small interpreter that builds the
// ChangeSet, so the fuzzer explores shapes (empty rows, null values,
// negative ints, truncation flags) rather than gob's framing.
func FuzzChangeSetWire(f *testing.F) {
	f.Add("patient", uint64(0), uint64(3), false, []byte{0, 1, 2, 3, 4, 5})
	f.Add("", uint64(9), uint64(2), true, []byte{})
	f.Add("t", uint64(1), uint64(1), false, []byte{255, 254, 253, 7, 9, 11, 200, 1})

	f.Fuzz(func(t *testing.T, table string, since, now uint64, truncated bool, data []byte) {
		cs := relstore.ChangeSet{Table: table, Since: since, Now: now, Truncated: truncated}
		if truncated {
			// The cause rides along only when the set is truncated; cycle it
			// from the inputs so all three causes cross the wire.
			cs.Cause = relstore.TruncateCause(1 + (since+now)%3)
		}
		ver := since
		for len(data) > 0 {
			n := int(data[0] % 5) // row width 0..4
			data = data[1:]
			ch := relstore.Change{Ver: ver}
			if n%2 == 1 {
				ch.Op = relstore.ChangeDelete
			}
			ver++
			for i := 0; i < n && len(data) > 0; i++ {
				ch.Row = append(ch.Row, fuzzValue(data[0]))
				data = data[1:]
			}
			cs.Changes = append(cs.Changes, ch)
		}

		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(cs); err != nil {
			t.Fatalf("encode: %v", err)
		}
		var got relstore.ChangeSet
		if err := gob.NewDecoder(&buf).Decode(&got); err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !reflect.DeepEqual(got, cs) {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, cs)
		}
	})
}

// FuzzSubscribeWire checks the subscription push frames the same way:
// a byte-driven interpreter assembles arbitrary subMessages (snapshot
// chunks with odd schemas and values, delta batches, heartbeat version
// maps, unknown kinds) and gob round-trips must be the identity. The
// frames are what keeps replicas consistent, so a lossy encoding here
// is silent data corruption across the whole fleet.
func FuzzSubscribeWire(f *testing.F) {
	f.Add(uint8(0), "visit", uint64(7), true, []byte{1, 2, 3, 4, 5})
	f.Add(uint8(3), "", uint64(0), false, []byte{})
	f.Add(uint8(6), "t", uint64(1<<40), true, []byte{255, 0, 128, 9, 11, 200, 1, 7})

	f.Fuzz(func(t *testing.T, kind uint8, table string, version uint64, consistent bool, data []byte) {
		msg := subMessage{
			Proto:      protoVersion,
			Kind:       subKind(kind),
			Cause:      relstore.TruncateCause(kind % 4),
			Table:      table,
			Version:    version,
			DBVersion:  version * 2,
			Consistent: consistent,
		}
		// Interpret the tail as schema columns, snapshot rows, version
		// map entries and one delta set, so every field shape is explored.
		// Decoding refuses a schema with a repeated name, so the columns
		// are named by position.
		for i, b := range data {
			switch b % 4 {
			case 0:
				msg.Schema = append(msg.Schema, relstore.Column{
					Name: fmt.Sprintf("c%d", len(msg.Schema)), Kind: relstore.Kind(b % 3)})
			case 1:
				// gob decodes a nil row in a slice as an empty one, so
				// only non-empty rows are built.
				var row relstore.Tuple
				for j := 0; j < int(b%3)+1; j++ {
					row = append(row, fuzzValue(b))
				}
				msg.Rows = append(msg.Rows, row)
			case 2:
				if msg.Versions == nil {
					msg.Versions = make(map[string]uint64)
				}
				msg.Versions[string(rune('k'+b%5))] = uint64(b) * version
			default:
				msg.Sets = append(msg.Sets, relstore.ChangeSet{
					Table:     table,
					Since:     uint64(i),
					Now:       uint64(i) + uint64(b),
					Truncated: b%2 == 0,
					Cause:     relstore.TruncateCause(b % 4),
					Changes: []relstore.Change{{Ver: uint64(b), Op: relstore.ChangeOp(b % 2),
						Row: relstore.Tuple{fuzzValue(b)}}},
				})
			}
		}

		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(msg); err != nil {
			t.Fatalf("encode: %v", err)
		}
		var got subMessage
		if err := gob.NewDecoder(&buf).Decode(&got); err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !reflect.DeepEqual(got, msg) {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, msg)
		}
	})
}

// fuzzValue derives a value of each kind from b: Null, a negative or
// positive int, or a one-rune string.
func fuzzValue(b byte) relstore.Value {
	switch b % 3 {
	case 0:
		return relstore.Int(int64(b) - 128)
	case 1:
		return relstore.String(string(rune(b)))
	default:
		return relstore.Null
	}
}
