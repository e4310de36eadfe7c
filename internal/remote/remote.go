// Package remote exposes a relstore database as an AIG data source over
// TCP, and provides the client that makes a remote engine usable wherever
// a source.Source is expected. The wire protocol is a simple
// length-delimited gob stream: each request carries a SQL string plus
// parameter tables, each response a result table and the measured
// engine-side evaluation time. This lets the mediator run against truly
// distributed sources (cmd/aigsource serves a dataset directory), while
// the experiments default to in-process sources with simulated
// communication, as the paper's own evaluation did.
package remote

import (
	"context"
	"encoding/gob"
	"fmt"
	"time"

	"github.com/aigrepro/aig/internal/obs"
	"github.com/aigrepro/aig/internal/relstore"
	"github.com/aigrepro/aig/internal/source"
	"github.com/aigrepro/aig/internal/sqlmini"
)

// protoVersion is the wire protocol version this build speaks. Gob's
// field-name matching keeps the stream compatible in both directions:
// version 1 peers simply never see (or send) the tracing fields added in
// version 2, and tracing degrades to off for that hop.
//
//	1: initial protocol (query, costing, versions, change sets)
//	2: adds request.TraceID and response.Spans for distributed tracing
//	3: adds reqSubscribe long-lived delta streams (request.FromVersions,
//	   subMessage push frames with catch-up snapshots)
const protoVersion = 3

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

// String names the request kind for span names and log lines.
func (k reqKind) String() string {
	switch k {
	case reqPing:
		return "ping"
	case reqSchema:
		return "schema"
	case reqCard:
		return "card"
	case reqDistinct:
		return "distinct"
	case reqEstimate:
		return "estimate"
	case reqExec:
		return "exec"
	case reqVersion:
		return "version"
	case reqTableVersions:
		return "table_versions"
	case reqChanges:
		return "changes"
	case reqSubscribe:
		return "subscribe"
	default:
		return fmt.Sprintf("kind%d", uint8(k))
	}
}

// wireValue is the gob-encodable form of a relstore.Value.
type wireValue struct {
	Kind uint8
	I    int64
	S    string
}

func toWire(v relstore.Value) wireValue {
	switch v.Kind() {
	case relstore.KindInt:
		return wireValue{Kind: uint8(relstore.KindInt), I: v.AsInt()}
	case relstore.KindString:
		return wireValue{Kind: uint8(relstore.KindString), S: v.AsString()}
	default:
		return wireValue{Kind: uint8(relstore.KindNull)}
	}
}

func fromWire(w wireValue) relstore.Value {
	switch relstore.Kind(w.Kind) {
	case relstore.KindInt:
		return relstore.Int(w.I)
	case relstore.KindString:
		return relstore.String(w.S)
	default:
		return relstore.Null
	}
}

// wireTable is the gob-encodable form of a table or binding.
type wireTable struct {
	Schema []string // "name:kind" specs
	Rows   [][]wireValue
}

func tableToWire(schema relstore.Schema, rows []relstore.Tuple) wireTable {
	w := wireTable{Schema: make([]string, len(schema)), Rows: make([][]wireValue, len(rows))}
	for i, c := range schema {
		w.Schema[i] = c.String()
	}
	for i, row := range rows {
		wr := make([]wireValue, len(row))
		for j, v := range row {
			wr[j] = toWire(v)
		}
		w.Rows[i] = wr
	}
	return w
}

func tableFromWire(name string, w wireTable) (*relstore.Table, error) {
	schema, err := relstore.ParseSchema(w.Schema)
	if err != nil {
		return nil, err
	}
	t := relstore.NewTable(name, schema)
	for _, wr := range w.Rows {
		row := make(relstore.Tuple, len(wr))
		for j, wv := range wr {
			row[j] = fromWire(wv)
		}
		if err := t.Insert(row); err != nil {
			return nil, err
		}
	}
	return t, nil
}

func bindingFromWire(w wireTable) (sqlmini.Binding, error) {
	schema, err := relstore.ParseSchema(w.Schema)
	if err != nil {
		return sqlmini.Binding{}, err
	}
	rows := make([]relstore.Tuple, len(w.Rows))
	for i, wr := range w.Rows {
		row := make(relstore.Tuple, len(wr))
		for j, wv := range wr {
			row[j] = fromWire(wv)
		}
		rows[i] = row
	}
	return sqlmini.Binding{Schema: schema, Rows: rows}, nil
}

// wireChange is the gob-encodable form of one row delta.
type wireChange struct {
	Ver uint64
	Op  uint8
	Row []wireValue
}

// wireChangeSet is the gob-encodable form of a relstore.ChangeSet: the
// answer to a reqChanges request. Truncated and its cause survive the
// trip so remote consumers fall back to a full refresh — and metric the
// reason — exactly like local ones.
type wireChangeSet struct {
	Table     string
	Since     uint64
	Now       uint64
	Truncated bool
	Cause     uint8
	Changes   []wireChange
}

func changeSetToWire(cs relstore.ChangeSet) wireChangeSet {
	w := wireChangeSet{Table: cs.Table, Since: cs.Since, Now: cs.Now, Truncated: cs.Truncated, Cause: uint8(cs.Cause)}
	for _, ch := range cs.Changes {
		wc := wireChange{Ver: ch.Ver, Op: uint8(ch.Op)}
		wc.Row = make([]wireValue, len(ch.Row))
		for i, v := range ch.Row {
			wc.Row[i] = toWire(v)
		}
		w.Changes = append(w.Changes, wc)
	}
	return w
}

func changeSetFromWire(w wireChangeSet) relstore.ChangeSet {
	cs := relstore.ChangeSet{Table: w.Table, Since: w.Since, Now: w.Now, Truncated: w.Truncated, Cause: relstore.TruncateCause(w.Cause)}
	for _, wc := range w.Changes {
		ch := relstore.Change{Ver: wc.Ver, Op: relstore.ChangeOp(wc.Op)}
		for _, wv := range wc.Row {
			ch.Row = append(ch.Row, fromWire(wv))
		}
		cs.Changes = append(cs.Changes, ch)
	}
	return cs
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
	Params       map[string]wireTable
	ParamSchemas map[string][]string
	ParamCards   map[string]int
	ResultName   string
}

// response is one server->client message.
type response struct {
	Proto int
	Err   string

	SchemaSpec []string
	Card       int
	Version    uint64
	Versions   map[string]uint64
	Deltas     wireChangeSet

	EstCost  float64
	EstRows  float64
	EstBytes float64

	Result    wireTable
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

func registerGob() {
	gob.Register(wireValue{})
	gob.Register(wireTable{})
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
	switch req.Kind {
	case reqPing:
	case reqSchema:
		schema, err := local.TableSchema(req.Table)
		if err != nil {
			resp.setError(err)
			return resp
		}
		for _, c := range schema {
			resp.SchemaSpec = append(resp.SchemaSpec, c.String())
		}
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
		if err != nil {
			resp.setError(err)
			return resp
		}
		resp.Deltas = changeSetToWire(cs)
	case reqEstimate:
		q, err := sqlmini.Parse(req.SQL)
		if err != nil {
			resp.setError(err)
			return resp
		}
		params := make(sqlmini.ParamSchemas, len(req.ParamSchemas))
		for name, spec := range req.ParamSchemas {
			s, err := relstore.ParseSchema(spec)
			if err != nil {
				resp.setError(err)
				return resp
			}
			params[name] = s
		}
		est, err := local.Estimate(ctx, q, params, sqlmini.PlanOptions{ParamCards: req.ParamCards})
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
		params := make(sqlmini.Params, len(req.Params))
		for name, wt := range req.Params {
			b, err := bindingFromWire(wt)
			if err != nil {
				resp.setError(err)
				return resp
			}
			params[name] = b
		}
		out, dur, err := local.Exec(ctx, req.ResultName, q, params, sqlmini.PlanOptions{ParamCards: req.ParamCards})
		if err != nil {
			resp.setError(err)
			return resp
		}
		resp.Result = tableToWire(out.Schema(), out.Rows())
		resp.EvalNanos = dur.Nanoseconds()
	default:
		resp.Err = fmt.Sprintf("remote: unknown request kind %d", req.Kind)
	}
	return resp
}
