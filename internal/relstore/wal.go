package relstore

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
)

// Write-ahead log file format. The log is a sequence of frames; each
// frame is
//
//	4 bytes  big-endian payload length
//	4 bytes  big-endian IEEE CRC32 of the payload
//	n bytes  gob-encoded payload
//
// The first frame's payload is a walHeader; every later frame is one
// walRecord. Each record is encoded with a fresh gob encoder so frames
// are self-contained: recovery can decode any prefix of the file without
// stream state, and the first frame that fails its length or CRC check
// marks the torn tail of a crashed writer — everything before it is, by
// construction, a complete prefix of the mutation history.

// WALFile and SnapshotFile are the file names the durability layer uses
// inside its FS; exported so harnesses can read and truncate them.
const (
	WALFile      = "wal.log"
	walTmpFile   = "wal.tmp"
	SnapshotFile = "snapshot.gob"
	snapTmpFile  = "snapshot.tmp"
)

const (
	walMagic  = "AIGWAL1"
	snapMagic = "AIGSNAP1"
)

const frameHeaderSize = 8

// errTornFrame marks the end of the valid prefix: an incomplete or
// CRC-corrupt frame, exactly what a crash mid-append leaves behind.
var errTornFrame = errors.New("relstore: torn wal frame")

// appendFrame frames a payload onto dst.
func appendFrame(dst, payload []byte) []byte {
	var hdr [frameHeaderSize]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// encodeFrame gob-encodes v and frames it.
func encodeFrame(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return appendFrame(nil, buf.Bytes()), nil
}

// readFrame reads the frame starting at off, returning its payload and
// the offset just past it. An incomplete or checksum-corrupt frame
// yields errTornFrame.
func readFrame(b []byte, off int64) (payload []byte, end int64, err error) {
	if off < 0 || int64(len(b))-off < frameHeaderSize {
		return nil, 0, errTornFrame
	}
	n := int64(binary.BigEndian.Uint32(b[off : off+4]))
	sum := binary.BigEndian.Uint32(b[off+4 : off+8])
	start := off + frameHeaderSize
	if int64(len(b))-start < n {
		return nil, 0, errTornFrame
	}
	payload = b[start : start+n]
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, 0, errTornFrame
	}
	return payload, start + n, nil
}

// walHeader is the first frame of every WAL file. StartSeq is the
// sequence number of the first record the file may contain; records
// below it live in the snapshot the log was rotated against.
type walHeader struct {
	Magic    string
	Name     string
	StartSeq uint64
}

// walKind discriminates WAL record payloads. The values are part of the
// file format; retired kinds (2, 4 to 9) are not reused, and a log
// holding one fails recovery with the unknown-kind error.
type walKind uint8

const (
	recInsert     walKind = 1
	recDeleteRows walKind = 3
)

// walRecord is one journaled row write of a registered table: the WAL
// journals nothing else, because a persisted database refuses table and
// change-log-limit changes (those stay durable through the snapshot).
// Seq numbers are contiguous per database. Ver is the table version the
// write produces. Every record is one bracketed table mutation, which
// advances the database's seqlock version by exactly two; recovery adds
// that per replayed record, so the restored database version is exactly
// the pre-crash one — the property cache stamps rely on.
type walRecord struct {
	Seq   uint64
	Kind  walKind
	Table string
	Ver   uint64

	Row     []walValue // recInsert
	Indices []int      // recDeleteRows, strictly ascending row positions
}

// walValue is Value's gob wire form (Value's fields are unexported).
type walValue struct {
	Kind uint8
	I    int64
	S    string
}

func valueToWal(v Value) walValue {
	return walValue{Kind: uint8(v.kind), I: v.i, S: v.s}
}

func (w walValue) value() Value {
	return Value{kind: Kind(w.Kind), i: w.I, s: w.S}
}

func rowToWal(row Tuple) []walValue {
	out := make([]walValue, len(row))
	for i, v := range row {
		out[i] = valueToWal(v)
	}
	return out
}

func rowFromWal(row []walValue) Tuple {
	out := make(Tuple, len(row))
	for i, w := range row {
		out[i] = w.value()
	}
	return out
}

// walChange is Change's wire form.
type walChange struct {
	Ver uint64
	Op  uint8
	Row []walValue
}

// walTableState is a full dump of one table: rows, version, and the
// complete change-log state, so recovery is change-log-exact and a
// restarted source keeps answering ChangesSince for watermarks taken
// before the crash.
type walTableState struct {
	Name        string
	Schema      []string
	Rows        [][]walValue
	Version     uint64
	LogLimit    int
	LogDisabled bool
	LogMinVer   uint64
	LogCause    uint8
	Log         []walChange
}

// walSnapshot is the snapshot file's payload: every table plus the
// database version and the WAL watermark the snapshot covers.
type walSnapshot struct {
	Magic     string
	Name      string
	DBVersion uint64
	LastSeq   uint64
	Tables    []walTableState
}

// captureState dumps the table's full persistent state under its lock.
func (t *Table) captureState() walTableState {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := walTableState{
		Name:        t.name,
		Schema:      schemaSpecs(t.schema),
		Version:     t.version.Load(),
		LogLimit:    t.log.limit,
		LogDisabled: t.log.disabled,
		LogMinVer:   t.log.minVer,
		LogCause:    uint8(t.log.cause),
	}
	st.Rows = make([][]walValue, len(t.buf))
	for i, row := range t.buf {
		st.Rows[i] = rowToWal(row)
	}
	st.Log = make([]walChange, len(t.log.entries))
	for i, ch := range t.log.entries {
		st.Log[i] = walChange{Ver: ch.Ver, Op: uint8(ch.Op), Row: rowToWal(ch.Row)}
	}
	return st
}

// schemaSpecs renders a schema as the "name:kind" specs ParseSchema
// round-trips.
func schemaSpecs(s Schema) []string {
	out := make([]string, len(s))
	for i, c := range s {
		out[i] = c.String()
	}
	return out
}

// restoreTable rebuilds a table from a captured state.
func restoreTable(st walTableState) (*Table, error) {
	schema, err := ParseSchema(st.Schema)
	if err != nil {
		return nil, fmt.Errorf("relstore: restoring table %q: %w", st.Name, err)
	}
	t := NewTable(st.Name, schema)
	t.buf = make([]Tuple, len(st.Rows))
	for i, row := range st.Rows {
		t.buf[i] = rowFromWal(row)
	}
	t.publishLocked()
	t.version.Store(st.Version)
	t.log.limit = st.LogLimit
	t.log.disabled = st.LogDisabled
	t.log.minVer = st.LogMinVer
	t.log.cause = TruncateCause(st.LogCause)
	t.log.entries = make([]Change, len(st.Log))
	for i, ch := range st.Log {
		t.log.entries[i] = Change{Ver: ch.Ver, Op: ChangeOp(ch.Op), Row: rowFromWal(ch.Row)}
	}
	return t, nil
}

// InspectWAL parses a WAL image, returning the header's StartSeq and the
// end offset of every valid frame (the header first). It stops at the
// torn tail, mirroring recovery; harnesses use the offsets to pick crash
// points on frame boundaries and within the tail record.
func InspectWAL(b []byte) (startSeq uint64, frameEnds []int64, err error) {
	payload, end, ferr := readFrame(b, 0)
	if ferr != nil {
		return 0, nil, ferr
	}
	var hdr walHeader
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&hdr); err != nil {
		return 0, nil, fmt.Errorf("relstore: wal header: %w", err)
	}
	if hdr.Magic != walMagic {
		return 0, nil, fmt.Errorf("relstore: wal magic %q", hdr.Magic)
	}
	frameEnds = append(frameEnds, end)
	off := end
	for {
		_, end, ferr := readFrame(b, off)
		if ferr != nil {
			return hdr.StartSeq, frameEnds, nil
		}
		frameEnds = append(frameEnds, end)
		off = end
	}
}
