package remote

import (
	"context"
	"encoding/gob"
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/aigrepro/aig/internal/obs"
	"github.com/aigrepro/aig/internal/relstore"
	"github.com/aigrepro/aig/internal/source"
	"github.com/aigrepro/aig/internal/sqlmini"
)

// Wire-protocol metrics: request counts, bytes on the wire in both
// directions, and the round-trip latency distribution.
var (
	metricRequests = obs.Default.NewCounter("aig_remote_requests_total",
		"requests sent to remote sources")
	metricSentBytes = obs.Default.NewCounter("aig_remote_sent_bytes_total",
		"bytes written to remote sources")
	metricRecvBytes = obs.Default.NewCounter("aig_remote_recv_bytes_total",
		"bytes read from remote sources")
	metricRoundTrip = obs.Default.NewHistogram("aig_remote_roundtrip_seconds",
		"request round-trip latency to remote sources", obs.DurationBuckets)
)

// Timeouts bounds the client's network operations. A hung or partitioned
// source then surfaces as a timeout error on the issuing request —
// traced like any other node error — instead of blocking an evaluation
// worker forever. Zero values disable the corresponding deadline.
type Timeouts struct {
	// Dial bounds connection establishment.
	Dial time.Duration
	// Read bounds one response read, so it must cover the source-side
	// query execution time, not just network latency.
	Read time.Duration
	// Write bounds one request write (the request carries the parameter
	// tables, so sizeable shipments take real time on slow links).
	Write time.Duration
}

// Client is a source.Source backed by a remote Server. Requests are
// serialized over a single persistent connection (the engine executes one
// query at a time per client, matching the per-source schedules of §5.3).
type Client struct {
	name string
	addr string
	to   Timeouts

	mu   sync.Mutex
	conn net.Conn
	enc  *gob.Encoder
	dec  *gob.Decoder
}

// Dial connects to a remote source without deadlines. name is the
// source's database name as used in source-qualified table references.
func Dial(name, addr string) (*Client, error) {
	return DialTimeouts(name, addr, Timeouts{})
}

// DialTimeouts connects to a remote source with the given network
// deadlines, which also bound the liveness check performed here.
func DialTimeouts(name, addr string, to Timeouts) (*Client, error) {
	c := &Client{name: name, addr: addr, to: to}
	if err := c.Healthy(); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

func (c *Client) connect() error {
	conn, err := net.DialTimeout("tcp", c.addr, c.to.Dial)
	if err != nil {
		return fmt.Errorf("remote: dialing source %s at %s: %w", c.name, c.addr, err)
	}
	mc := &meterConn{Conn: conn}
	c.conn = mc
	c.enc = gob.NewEncoder(mc)
	c.dec = gob.NewDecoder(mc)
	return nil
}

// meterConn counts the bytes crossing the wire.
type meterConn struct {
	net.Conn
}

func (m *meterConn) Read(p []byte) (int, error) {
	n, err := m.Conn.Read(p)
	metricRecvBytes.Add(int64(n))
	return n, err
}

func (m *meterConn) Write(p []byte) (int, error) {
	n, err := m.Conn.Write(p)
	metricSentBytes.Add(int64(n))
	return n, err
}

// Close drops the connection.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn != nil {
		err := c.conn.Close()
		c.conn = nil
		return err
	}
	return nil
}

func (c *Client) roundTrip(req *request, resp *response) error {
	req.Proto = protoVersion
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		if err := c.connect(); err != nil {
			return err
		}
	}
	metricRequests.Inc()
	start := time.Now()
	if c.to.Write > 0 {
		c.conn.SetWriteDeadline(start.Add(c.to.Write))
	}
	if err := c.enc.Encode(req); err != nil {
		c.dropConn()
		return fmt.Errorf("remote: sending to %s: %w", c.name, err)
	}
	if c.to.Read > 0 {
		c.conn.SetReadDeadline(time.Now().Add(c.to.Read))
	}
	if err := c.dec.Decode(resp); err != nil {
		c.dropConn()
		return fmt.Errorf("remote: receiving from %s: %w", c.name, err)
	}
	metricRoundTrip.Observe(time.Since(start).Seconds())
	if resp.Err != "" {
		return fmt.Errorf("remote: source %s: %s", c.name, resp.Err)
	}
	return nil
}

// dropConn discards the connection after a wire error (the gob streams
// are no longer in sync); the next request reconnects. Callers hold mu.
func (c *Client) dropConn() {
	c.conn.Close()
	c.conn = nil
}

// Name implements source.Source.
func (c *Client) Name() string { return c.name }

// Healthy implements the optional source.Health interface with a ping
// round-trip, bounded by the client's configured timeouts, that also
// checks the server's protocol version. Dial checks it first.
func (c *Client) Healthy() error {
	var resp response
	if err := c.roundTrip(&request{Kind: reqPing}, &resp); err != nil {
		return err
	}
	return checkProto(resp.Proto)
}

// TableSchema implements source.Source.
func (c *Client) TableSchema(table string) (relstore.Schema, error) {
	var resp response
	if err := c.roundTrip(&request{Kind: reqSchema, Table: table}, &resp); err != nil {
		return nil, err
	}
	return resp.Schema, nil
}

// TableCard implements source.Source.
func (c *Client) TableCard(table string) (int, error) {
	var resp response
	if err := c.roundTrip(&request{Kind: reqCard, Table: table}, &resp); err != nil {
		return 0, err
	}
	return resp.Card, nil
}

// ColumnDistinct implements source.Source.
func (c *Client) ColumnDistinct(table, column string) (int, error) {
	var resp response
	if err := c.roundTrip(&request{Kind: reqDistinct, Table: table, Column: column}, &resp); err != nil {
		return 0, err
	}
	return resp.Card, nil
}

// DataVersion implements source.Source: the engine-side database's
// monotonic data version, so mediator-side result caches invalidate
// when a remote source mutates.
func (c *Client) DataVersion() (uint64, error) {
	var resp response
	if err := c.roundTrip(&request{Kind: reqVersion}, &resp); err != nil {
		return 0, err
	}
	return resp.Version, nil
}

// TableVersions implements source.Source: the engine-side per-table
// data versions, so the refresher attributes remote mutations to the
// tables that changed.
func (c *Client) TableVersions() (map[string]uint64, error) {
	var resp response
	if err := c.roundTrip(&request{Kind: reqTableVersions}, &resp); err != nil {
		return nil, err
	}
	return resp.Versions, nil
}

// ChangesSince implements source.Source. A restarted or log-bounded
// engine answers with a truncated ChangeSet rather than an error, so
// callers fall back to a full refresh.
func (c *Client) ChangesSince(table string, since uint64) (relstore.ChangeSet, error) {
	var resp response
	if err := c.roundTrip(&request{Kind: reqChanges, Table: table, Since: since}, &resp); err != nil {
		return relstore.ChangeSet{}, err
	}
	return resp.Deltas, nil
}

// tracedTrip wraps roundTrip for the query-path RPCs: when ctx carries a
// tracer, it opens a client-side call span, asks the server to trace by
// setting the request's trace ID, and grafts the returned server-side
// spans under the call span — anchored at the instant just before the
// request hit the wire, so the stitched tree is internally consistent
// without comparing the two machines' clocks (residual skew is bounded
// by the one-way network latency).
func (c *Client) tracedTrip(ctx context.Context, req *request, resp *response) error {
	tr, parent := obs.SpanFromContext(ctx)
	if tr == nil {
		return c.roundTrip(req, resp)
	}
	req.TraceID = tr.TraceID()
	sp := tr.StartSpan("call:"+c.name+"."+req.Kind.String(), parent)
	sp.SetAttr("addr", c.addr)
	anchor := time.Now()
	err := c.roundTrip(req, resp)
	if err != nil {
		sp.SetAttr("error", err.Error())
	}
	sp.End()
	tr.Graft(sp, anchor, spansFromWire(resp.Spans))
	return err
}

// Estimate implements source.Source (the costing API of §5.2).
func (c *Client) Estimate(ctx context.Context, q *sqlmini.Query, params sqlmini.ParamSchemas, opts sqlmini.PlanOptions) (source.Estimate, error) {
	req := &request{Kind: reqEstimate, SQL: q.String(), ParamSchemas: params, ParamCards: opts.ParamCards}
	var resp response
	if err := c.tracedTrip(ctx, req, &resp); err != nil {
		return source.Estimate{}, err
	}
	return source.Estimate{Cost: resp.EstCost, Rows: resp.EstRows, Bytes: resp.EstBytes}, nil
}

// Exec implements source.Source: the query ships as SQL text with its
// parameter tables; the result table and the engine-measured evaluation
// time ship back, along with the server-side spans of a traced request.
func (c *Client) Exec(ctx context.Context, name string, q *sqlmini.Query, params sqlmini.Params, opts sqlmini.PlanOptions) (*relstore.Table, time.Duration, error) {
	req := &request{Kind: reqExec, SQL: q.String(), ResultName: name, Params: params, ParamCards: opts.ParamCards}
	var resp response
	if err := c.tracedTrip(ctx, req, &resp); err != nil {
		return nil, 0, err
	}
	out, err := relstore.TableFromRows(name, resp.Result.Schema, resp.Result.Rows)
	if err != nil {
		return nil, 0, fmt.Errorf("remote: source %s: %w", c.name, err)
	}
	return out, time.Duration(resp.EvalNanos), nil
}

var _ source.Source = (*Client)(nil)
