package remote

import (
	"encoding/gob"
	"log/slog"
	"maps"
	"sort"
	"time"

	"github.com/aigrepro/aig/internal/obs"
	"github.com/aigrepro/aig/internal/relstore"
)

// Delta subscriptions (since protocol version 3). A client sends one
// reqSubscribe request carrying its per-table watermarks and the
// connection flips into a one-way push stream: the server answers with a
// subHello, then keeps the subscriber at the head of the change logs by
// pushing ChangesSince-shaped delta batches as mutations land, with
// heartbeats while the database is idle. When the subscriber's
// watermarks fall past a change-log horizon (or it has no state at all),
// the server interposes a catch-up: a consistent snapshot of every
// table — seqlock-certified when writers allow, chunked so one huge
// table cannot monopolize the stream — bracketed by subCatchupBegin
// (carrying the truncation cause, so the subscriber meters WHY it had to
// resync) and subCatchupEnd (carrying the exact per-table versions the
// delta tail resumes from).
//
// The server never reads from the connection again; the subscriber
// never writes. Either side ending the connection ends the stream, and
// the subscriber resubscribes from its current watermarks — overlap is
// handled by the version numbers carried on every delta.

// Server-side subscription metrics.
var (
	metricSubSessions = obs.Default.NewCounter("aig_remote_sub_sessions_total",
		"delta-subscription sessions accepted")
	metricSubCatchups = obs.Default.NewCounter("aig_remote_sub_catchups_total",
		"catch-up snapshots streamed to subscribers")
	metricSubDeltaSets = obs.Default.NewCounter("aig_remote_sub_delta_sets_total",
		"per-table delta batches pushed to subscribers")
	metricSubHeartbeats = obs.Default.NewCounter("aig_remote_sub_heartbeats_total",
		"heartbeats pushed to subscribers")
)

// subKind discriminates the frames of a subscription push stream.
type subKind uint8

const (
	// subHello acknowledges the subscription; Versions is the server's
	// current per-table state.
	subHello subKind = iota
	// subCatchupBegin announces a snapshot; Cause is the
	// relstore.TruncateCause that forced it (TruncateNone on an initial
	// sync, when the subscriber simply had no state).
	subCatchupBegin
	// subSnapshotTable opens one table's snapshot: Table, Schema, Version
	// and the first chunk of Rows.
	subSnapshotTable
	// subSnapshotRows continues the current table with another chunk.
	subSnapshotRows
	// subCatchupEnd closes the snapshot; Versions carries the exact
	// per-table watermarks the following delta tail resumes from, and
	// Consistent whether the whole capture was certified as one seqlock
	// cut (an uncertified capture is still per-table consistent and
	// converges through the tail).
	subCatchupEnd
	// subDeltas pushes one ChangesSince-shaped batch per mutated table;
	// Versions is the subscriber's new watermark set.
	subDeltas
	// subHeartbeat is pushed while the database is idle; Versions echoes
	// the watermarks so the subscriber can detect drift.
	subHeartbeat
)

var subKindNames = [...]string{
	subHello: "hello", subCatchupBegin: "catchup_begin", subSnapshotTable: "snapshot_table",
	subSnapshotRows: "snapshot_rows", subCatchupEnd: "catchup_end", subDeltas: "deltas",
	subHeartbeat: "heartbeat",
}

// String names the frame kind for logs.
func (k subKind) String() string {
	if int(k) < len(subKindNames) {
		return subKindNames[k]
	}
	return "unknown"
}

// subMessage is one server->subscriber frame. Which fields are set
// depends on Kind; gob's field-name matching keeps old subscribers
// tolerant of fields added later.
type subMessage struct {
	Proto int
	Kind  subKind

	// Cause (subCatchupBegin): the truncation forcing the snapshot,
	// TruncateNone for an initial sync.
	Cause relstore.TruncateCause

	// Table/Schema/Version/Rows (subSnapshotTable, subSnapshotRows):
	// one table's snapshot, chunked.
	Table   string
	Schema  relstore.Schema
	Version uint64
	Rows    []relstore.Tuple

	// Sets (subDeltas): one ChangesSince answer per mutated table.
	Sets []relstore.ChangeSet

	// Versions: per-table watermarks (meaning depends on Kind).
	Versions map[string]uint64

	// DBVersion/Consistent (subCatchupEnd): the database version the
	// snapshot was captured at and whether the seqlock certified it.
	DBVersion  uint64
	Consistent bool
}

// snapshotChunkRows bounds the rows per snapshot frame so a large table
// streams in bounded frames instead of one giant gob message.
const snapshotChunkRows = 512

// snapshotAttempts bounds how often a catch-up retries for a
// seqlock-certified whole-database cut before settling for per-table
// consistency.
const snapshotAttempts = 5

// defaultHeartbeat is the idle push cadence when Server.HeartbeatEvery
// is unset.
const defaultHeartbeat = time.Second

func (s *Server) heartbeatEvery() time.Duration {
	if s.HeartbeatEvery > 0 {
		return s.HeartbeatEvery
	}
	return defaultHeartbeat
}

// serveSubscription owns the connection after a reqSubscribe: it pushes
// frames until an encode fails (subscriber gone or server closed).
func (s *Server) serveSubscription(enc *gob.Encoder, req *request) {
	metricSubSessions.Inc()
	db := s.local.DB()
	marks := maps.Clone(req.FromVersions)
	if sendFrame(enc, &subMessage{Kind: subHello, Versions: db.TableVersions()}) != nil {
		return
	}
	ticker := time.NewTicker(s.heartbeatEvery())
	defer ticker.Stop()
	needCatchup := len(marks) == 0
	cause := relstore.TruncateNone
	for {
		if needCatchup {
			var err error
			if marks, err = sendCatchup(enc, db, cause); err != nil {
				return
			}
			needCatchup = false
		}
		// The signal is grabbed before gathering, so a mutation landing
		// between the gather and the wait still wakes the loop.
		sig := db.ChangeSignal()
		sets, c, ok := gatherDeltas(db, marks)
		if !ok {
			needCatchup, cause = true, c
			continue
		}
		if len(sets) > 0 {
			metricSubDeltaSets.Add(int64(len(sets)))
			if sendFrame(enc, &subMessage{Kind: subDeltas, Sets: sets, Versions: maps.Clone(marks)}) != nil {
				return
			}
			continue
		}
		select {
		case <-sig:
		case <-ticker.C:
			metricSubHeartbeats.Inc()
			if sendFrame(enc, &subMessage{Kind: subHeartbeat, Versions: maps.Clone(marks)}) != nil {
				return
			}
		}
	}
}

// gatherDeltas collects every table's deltas past the subscriber's
// watermarks, advancing marks in place. ok=false means the incremental
// path cannot cover the gap — a log truncated (cause says why), a table
// the subscriber has was dropped, or a table it lacks appeared — and the
// session must fall back to a catch-up snapshot.
func gatherDeltas(db *relstore.Database, marks map[string]uint64) (sets []relstore.ChangeSet, cause relstore.TruncateCause, ok bool) {
	current := db.TableVersions()
	for name := range marks {
		if _, there := current[name]; !there {
			return nil, relstore.TruncateReset, false // table dropped
		}
	}
	names := make([]string, 0, len(current))
	for name := range current {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		since, have := marks[name]
		if !have {
			return nil, relstore.TruncateReset, false // new table needs a snapshot
		}
		if current[name] == since {
			continue
		}
		cs, err := db.ChangesSince(name, since)
		if err != nil {
			return nil, relstore.TruncateReset, false
		}
		if cs.Truncated {
			return nil, cs.Cause, false
		}
		sets = append(sets, cs)
		marks[name] = cs.Now
	}
	return sets, relstore.TruncateNone, true
}

// sendCatchup streams a snapshot of every table and returns the
// watermarks the delta tail resumes from.
func sendCatchup(enc *gob.Encoder, db *relstore.Database, cause relstore.TruncateCause) (map[string]uint64, error) {
	metricSubCatchups.Inc()
	slog.Debug("remote: streaming catch-up snapshot", "db", db.Name(), "cause", cause.String())
	snaps, dbv, consistent := db.CaptureSnapshot(snapshotAttempts)
	if err := sendFrame(enc, &subMessage{Kind: subCatchupBegin, Cause: cause}); err != nil {
		return nil, err
	}
	marks := make(map[string]uint64, len(snaps))
	for _, ts := range snaps {
		rows := ts.Rows
		for first := true; first || len(rows) > 0; first = false {
			n := min(len(rows), snapshotChunkRows)
			msg := &subMessage{Kind: subSnapshotRows, Table: ts.Name, Rows: rows[:n]}
			if first {
				msg.Kind = subSnapshotTable
				msg.Schema = ts.Schema
				msg.Version = ts.Version
			}
			if err := sendFrame(enc, msg); err != nil {
				return nil, err
			}
			rows = rows[n:]
		}
		marks[ts.Name] = ts.Version
	}
	err := sendFrame(enc, &subMessage{Kind: subCatchupEnd, Versions: maps.Clone(marks), DBVersion: dbv, Consistent: consistent})
	return marks, err
}

// sendFrame stamps a frame with this build's protocol version and pushes
// it.
func sendFrame(enc *gob.Encoder, m *subMessage) error {
	m.Proto = protoVersion
	return enc.Encode(m)
}
