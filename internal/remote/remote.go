// Package remote exposes a relstore database as an AIG data source over
// TCP, and provides the client that makes a remote engine usable wherever
// a source.Source is expected. The wire protocol is a simple
// length-delimited gob stream: each request carries a SQL string plus
// parameter tables, each response a result table and the measured
// engine-side evaluation time. Tables, schemas and change sets travel as
// relstore's and sqlmini's own types, in relstore's gob encoding, and
// every receiver checks decoded rows against their schema. This lets the
// mediator run against truly distributed sources (cmd/aigsource serves a
// dataset directory), while the experiments default to in-process
// sources with simulated communication, as the paper's own evaluation
// did.
package remote

import (
	"context"
	"fmt"
	"time"

	"github.com/aigrepro/aig/internal/obs"
	"github.com/aigrepro/aig/internal/relstore"
	"github.com/aigrepro/aig/internal/source"
	"github.com/aigrepro/aig/internal/sqlmini"
)

// protoVersion is the wire protocol version this build speaks. Every
// message carries it; a server refuses a request of another version, and
// a client or mirror refuses a server's answer of another version.
//
//	1: initial protocol (query, costing, versions, change sets)
//	2: adds request.TraceID and response.Spans for distributed tracing
//	3: adds reqSubscribe long-lived delta streams (request.FromVersions,
//	   subMessage push frames with catch-up snapshots)
//	4: tables, schemas and change sets travel as relstore.Tuple, Schema
//	   and ChangeSet and sqlmini.Binding in relstore's gob encoding
//	   instead of hand-copied wire structs and "name:kind" strings, and
//	   the version is checked. A v3 peer's messages do not decode as v4
//	   ones, so v3 peers are refused.
const protoVersion = 4

// checkProto refuses a peer message of another protocol version.
func checkProto(got int) error {
	if got != protoVersion {
		return fmt.Errorf("remote: peer speaks protocol version %d, this build speaks %d", got, protoVersion)
	}
	return nil
}

// reqKind discriminates request types.
type reqKind uint8

// The request kinds.
const (
	reqPing reqKind = iota
	reqSchema
	reqCard
	reqDistinct
	reqEstimate
	reqExec
	reqVersion
	reqTableVersions
	reqChanges
	reqSubscribe
)

var reqKindNames = [...]string{
	reqPing: "ping", reqSchema: "schema", reqCard: "card", reqDistinct: "distinct",
	reqEstimate: "estimate", reqExec: "exec", reqVersion: "version",
	reqTableVersions: "table_versions", reqChanges: "changes", reqSubscribe: "subscribe",
}

// String names the request kind for span names and log lines.
func (k reqKind) String() string {
	if int(k) < len(reqKindNames) {
		return reqKindNames[k]
	}
	return fmt.Sprintf("kind%d", uint8(k))
}

// wireAttr is one span attribute, stringified for the wire.
type wireAttr struct {
	K, V string
}

// wireSpan is the gob-encodable form of one exported span. Times are
// offsets from the serving side's handling start, so the client can
// re-anchor them at its own RPC start instant (the clocks never compare
// directly; the residual skew is at most the one-way network latency).
type wireSpan struct {
	Name       string
	Parent     int // index into the same slice; -1 for roots
	StartNanos int64
	DurNanos   int64
	Attrs      []wireAttr
}

func spansToWire(data []obs.SpanData) []wireSpan {
	if len(data) == 0 {
		return nil
	}
	out := make([]wireSpan, len(data))
	for i, d := range data {
		w := wireSpan{
			Name:       d.Name,
			Parent:     d.Parent,
			StartNanos: d.Start.Nanoseconds(),
			DurNanos:   d.Duration.Nanoseconds(),
		}
		for _, a := range d.Attrs {
			w.Attrs = append(w.Attrs, wireAttr{K: a.Key, V: fmt.Sprint(a.Value)})
		}
		out[i] = w
	}
	return out
}

func spansFromWire(ws []wireSpan) []obs.SpanData {
	if len(ws) == 0 {
		return nil
	}
	out := make([]obs.SpanData, len(ws))
	for i, w := range ws {
		d := obs.SpanData{
			Name:     w.Name,
			Parent:   w.Parent,
			Start:    time.Duration(w.StartNanos),
			Duration: time.Duration(w.DurNanos),
		}
		for _, a := range w.Attrs {
			d.Attrs = append(d.Attrs, obs.Attr{Key: a.K, Value: a.V})
		}
		out[i] = d
	}
	return out
}

// request is one client->server message.
type request struct {
	Proto  int
	Kind   reqKind
	Table  string
	Column string
	Since  uint64

	// TraceID, when non-empty, asks the server to trace the handling of
	// this request and ship the spans back on the response.
	TraceID string

	// FromVersions (reqSubscribe only) carries the subscriber's current
	// per-table watermarks; empty means "no state, send everything".
	FromVersions map[string]uint64

	SQL          string
	Params       sqlmini.Params
	ParamSchemas sqlmini.ParamSchemas
	ParamCards   map[string]int
	ResultName   string
}

// response is one server->client message.
type response struct {
	Proto int
	Err   string

	Schema   relstore.Schema
	Card     int
	Version  uint64
	Versions map[string]uint64
	Deltas   relstore.ChangeSet

	EstCost  float64
	EstRows  float64
	EstBytes float64

	Result    sqlmini.Binding
	EvalNanos int64

	// Spans carries the server-side span forest of a traced request,
	// offsets relative to the server's handling start.
	Spans []wireSpan
}

func (r *response) setError(err error) {
	if err != nil {
		r.Err = err.Error()
	}
}

// handle executes one request against a local source. When the request
// carries a trace ID the whole handling runs under a server-side tracer
// whose spans ship back on the response, re-anchorable by the caller.
func handle(local *source.Local, req *request) *response {
	resp := &response{Proto: protoVersion}
	ctx := context.Background()
	if req.TraceID != "" {
		tr := obs.NewTracerID(req.TraceID)
		anchor := time.Now()
		root := tr.StartSpan("rpc:"+req.Kind.String(), nil)
		ctx = obs.ContextWithSpan(ctx, tr, root)
		defer func() {
			if resp.Err != "" {
				root.SetAttr("error", resp.Err)
			}
			root.End()
			resp.Spans = spansToWire(tr.Export(anchor))
		}()
	}
	if err := checkProto(req.Proto); err != nil {
		resp.setError(err)
		return resp
	}
	switch req.Kind {
	case reqPing:
	case reqSchema:
		schema, err := local.TableSchema(req.Table)
		resp.Schema = schema
		resp.setError(err)
	case reqCard:
		n, err := local.TableCard(req.Table)
		resp.Card = n
		resp.setError(err)
	case reqDistinct:
		n, err := local.ColumnDistinct(req.Table, req.Column)
		resp.Card = n
		resp.setError(err)
	case reqVersion:
		v, err := local.DataVersion()
		resp.Version = v
		resp.setError(err)
	case reqTableVersions:
		vers, err := local.TableVersions()
		resp.Versions = vers
		resp.setError(err)
	case reqChanges:
		cs, err := local.ChangesSince(req.Table, req.Since)
		resp.Deltas = cs
		resp.setError(err)
	case reqEstimate:
		q, err := sqlmini.Parse(req.SQL)
		if err != nil {
			resp.setError(err)
			return resp
		}
		est, err := local.Estimate(ctx, q, req.ParamSchemas, sqlmini.PlanOptions{ParamCards: req.ParamCards})
		if err != nil {
			resp.setError(err)
			return resp
		}
		resp.EstCost, resp.EstRows, resp.EstBytes = est.Cost, est.Rows, est.Bytes
	case reqExec:
		q, err := sqlmini.Parse(req.SQL)
		if err != nil {
			resp.setError(err)
			return resp
		}
		// Decoding checked each schema, not that the rows fit it; the
		// executor indexes rows by schema position.
		for name, b := range req.Params {
			if err := b.Schema.ValidateRows(b.Rows); err != nil {
				resp.setError(fmt.Errorf("remote: parameter table %s: %w", name, err))
				return resp
			}
		}
		out, dur, err := local.Exec(ctx, req.ResultName, q, req.Params, sqlmini.PlanOptions{ParamCards: req.ParamCards})
		if err != nil {
			resp.setError(err)
			return resp
		}
		resp.Result = sqlmini.TableBinding(out)
		resp.EvalNanos = dur.Nanoseconds()
	default:
		resp.Err = fmt.Sprintf("remote: unknown request kind %d", req.Kind)
	}
	return resp
}
