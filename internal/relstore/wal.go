package relstore

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
)

// Write-ahead log file format. The log is a sequence of frames; each
// frame is
//
//	4 bytes  big-endian payload length
//	4 bytes  big-endian IEEE CRC32 of the payload
//	n bytes  gob-encoded payload
//
// Rows inside a payload are in relstore's own gob encoding (gob.go). The
// first frame's payload is a walHeader; every later frame is one
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
	walMagic  = "AIGWAL2"
	snapMagic = "AIGSNAP2"
)

const frameHeaderSize = 8

// errTornFrame marks the end of the valid prefix: an incomplete or
// CRC-corrupt frame, exactly what a crash mid-append leaves behind.
var errTornFrame = errors.New("relstore: torn wal frame")

// encodeFrame gob-encodes the values, in order and with one encoder, as
// one frame: the payload is encoded straight after room for the frame
// header, which is filled in last.
func encodeFrame(vs ...any) ([]byte, error) {
	buf := bytes.NewBuffer(make([]byte, frameHeaderSize, 256))
	enc := gob.NewEncoder(buf)
	for _, v := range vs {
		if err := enc.Encode(v); err != nil {
			return nil, err
		}
	}
	b := buf.Bytes()
	binary.BigEndian.PutUint32(b[0:4], uint32(len(b)-frameHeaderSize))
	binary.BigEndian.PutUint32(b[4:8], crc32.ChecksumIEEE(b[frameHeaderSize:]))
	return b, nil
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

	Row     Tuple // recInsert
	Indices []int // recDeleteRows, strictly ascending row positions
}

// walTableState is a full dump of one table: rows, version, and the
// complete change-log state, so recovery is change-log-exact and a
// restarted source keeps answering ChangesSince for watermarks taken
// before the crash.
type walTableState struct {
	Name        string
	Schema      Schema
	Rows        []Tuple
	Version     uint64
	LogLimit    int
	LogDisabled bool
	LogMinVer   uint64
	LogCause    TruncateCause
	Log         []Change
}

// snapHeader opens the snapshot file's payload; the tables follow it as
// a second gob value in the same stream. Decoding the header alone
// checks the magic before anything of a table is read, so an image
// whose tables another format encoded fails on its magic.
type snapHeader struct {
	Magic     string
	Name      string
	DBVersion uint64
	LastSeq   uint64
}

// captureState dumps the table's full persistent state under its lock.
// Rows and change-log entries are immutable once published, so the dump
// shares them.
func (t *Table) captureState() walTableState {
	t.mu.Lock()
	defer t.mu.Unlock()
	return walTableState{
		Name:        t.name,
		Schema:      t.schema,
		Rows:        t.rowsSnap(),
		Version:     t.version.Load(),
		LogLimit:    t.log.limit,
		LogDisabled: t.log.disabled,
		LogMinVer:   t.log.minVer,
		LogCause:    t.log.cause,
		Log:         slices.Clone(t.log.entries),
	}
}

// restoreTable rebuilds a table from a captured state.
func restoreTable(st walTableState) (*Table, error) {
	if err := st.Schema.ValidateRows(st.Rows); err != nil {
		return nil, fmt.Errorf("relstore: restoring table %q: %w", st.Name, err)
	}
	t := NewTableWithState(st.Name, st.Schema, st.Rows, st.Version, st.LogCause)
	t.log = changeLog{limit: st.LogLimit, disabled: st.LogDisabled, minVer: st.LogMinVer,
		cause: st.LogCause, entries: st.Log}
	return t, nil
}

// readWALHeader decodes frame 0 of a WAL image. A torn or undecodable
// header is errTornFrame; a header of another format is an error naming
// its magic.
func readWALHeader(b []byte) (hdr walHeader, end int64, err error) {
	payload, end, err := readFrame(b, 0)
	if err == nil && gob.NewDecoder(bytes.NewReader(payload)).Decode(&hdr) != nil {
		err = errTornFrame
	}
	if err == nil && hdr.Magic != walMagic {
		err = fmt.Errorf("relstore: wal magic %q, want %q", hdr.Magic, walMagic)
	}
	return hdr, end, err
}

// InspectWAL parses a WAL image, returning the header's StartSeq and the
// end offset of every valid frame (the header first). It stops at the
// torn tail, mirroring recovery; harnesses use the offsets to pick crash
// points on frame boundaries and within the tail record.
func InspectWAL(b []byte) (startSeq uint64, frameEnds []int64, err error) {
	hdr, end, err := readWALHeader(b)
	if err != nil {
		return 0, nil, err
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
