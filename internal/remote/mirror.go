package remote

import (
	"context"
	"encoding/gob"
	"fmt"
	"log/slog"
	"net"
	"sync"
	"time"

	"github.com/aigrepro/aig/internal/obs"
	"github.com/aigrepro/aig/internal/relstore"
	"github.com/aigrepro/aig/internal/source"
)

// Mirror-side subscription metrics. The catch-up counters are split per
// truncation cause, mirroring the refresher's per-cause accounting: a
// rolled log means the mirror fell behind the origin's write rate, a
// reset means wholesale replacement at the origin, a restart means the
// origin came back with lower versions — each wants a different fix.
var (
	metricMirrorInitialSyncs = obs.Default.NewCounter("aig_mirror_catchup_initial_total",
		"mirror catch-up snapshots for initial syncs (no prior state)")
	metricMirrorCatchupRolled = obs.Default.NewCounter("aig_mirror_catchup_rolled_total",
		"mirror catch-up snapshots forced by a rolled change log")
	metricMirrorCatchupReset = obs.Default.NewCounter("aig_mirror_catchup_reset_total",
		"mirror catch-up snapshots forced by a change-log reset")
	metricMirrorCatchupRestart = obs.Default.NewCounter("aig_mirror_catchup_restart_total",
		"mirror catch-up snapshots forced by an origin restart")
	metricMirrorDeltaSets = obs.Default.NewCounter("aig_mirror_delta_sets_total",
		"per-table delta batches applied by mirrors")
	metricMirrorChanges = obs.Default.NewCounter("aig_mirror_changes_applied_total",
		"row deltas applied by mirrors")
	metricMirrorReconnects = obs.Default.NewCounter("aig_mirror_reconnects_total",
		"mirror subscription reconnect attempts")
	metricMirrorHeartbeats = obs.Default.NewCounter("aig_mirror_heartbeats_total",
		"heartbeats received by mirrors")
)

// MirrorOptions configures a Mirror.
type MirrorOptions struct {
	// Timeouts bounds the subscription's network operations. Read bounds
	// the gap between pushed frames, so it must exceed the origin
	// server's heartbeat cadence; zero disables the deadline.
	Timeouts Timeouts
	// ReconnectMin is the first backoff between subscription attempts
	// (default 100ms); it doubles per failed attempt up to backoffCap.
	ReconnectMin time.Duration
}

const (
	// backoffCap caps the backoff between subscription attempts.
	backoffCap = 3 * time.Second
	// staleLimit is how long a disconnected mirror keeps reporting
	// healthy on its last-known data before Healthy starts failing. The
	// mirror serves stale-tolerant reads throughout; this only flips
	// readiness so routers drain traffic away.
	staleLimit = 10 * time.Second
)

// Mirror maintains a local read replica of a remote database over a
// delta subscription: it dials the origin, subscribes from its current
// watermarks (none on first boot, which streams a full catch-up
// snapshot), applies pushed deltas at the origin's own version numbers,
// and reconnects with backoff when the stream drops. The replica is a
// plain relstore database, so serving stacks evaluate queries against
// it locally — reads never cross the wire — while TableVersions and
// ChangesSince answer with origin-meaningful watermarks.
type Mirror struct {
	name string
	addr string
	opts MirrorOptions
	db   *relstore.Database
	src  *source.Local

	stop chan struct{}
	done chan struct{}

	mu        sync.Mutex
	synced    bool
	syncedCh  chan struct{}
	connected bool
	lastFrame time.Time
	lastErr   error
}

// OpenMirror starts mirroring the named database from addr. It returns
// immediately; the subscription runs in the background. Use WaitReady to
// block until the first catch-up completes, Source for the serving-side
// source, Close to stop.
func OpenMirror(name, addr string, opts MirrorOptions) *Mirror {
	if opts.ReconnectMin <= 0 {
		opts.ReconnectMin = 100 * time.Millisecond
	}
	db := relstore.NewDatabase(name)
	m := &Mirror{
		name:     name,
		addr:     addr,
		opts:     opts,
		db:       db,
		src:      source.NewLocal(db),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
		syncedCh: make(chan struct{}),
	}
	go m.run()
	return m
}

// DB exposes the replica database (read-side only: mutating it breaks
// the watermark contract with the origin). Its ChangeSignal fires after
// every snapshot install and delta batch the mirror applies.
func (m *Mirror) DB() *relstore.Database { return m.db }

// Source returns the replica as a source.Source. The source also
// implements the optional source.Health interface: it reports unhealthy
// until the first sync completes, and again when the subscription has
// been down longer than staleLimit.
func (m *Mirror) Source() source.Source { return mirrorSource{Local: m.src, m: m} }

// mirrorSource decorates the replica's local source with the mirror's
// health. It is deliberately NOT a *source.Local: serving-side mutation
// endpoints type-assert on that to reject writes to replicas.
type mirrorSource struct {
	*source.Local
	m *Mirror
}

func (ms mirrorSource) Healthy() error { return ms.m.Healthy() }

// WaitReady blocks until the first catch-up snapshot has been installed
// (the replica can answer schema and data requests), or ctx ends.
func (m *Mirror) WaitReady(ctx context.Context) error {
	select {
	case <-m.syncedCh:
		return nil
	case <-m.stop:
		return fmt.Errorf("remote: mirror %s closed before first sync", m.name)
	case <-ctx.Done():
		m.mu.Lock()
		err := m.lastErr
		m.mu.Unlock()
		if err != nil {
			return fmt.Errorf("remote: mirror %s not synced: %w (last error: %v)", m.name, ctx.Err(), err)
		}
		return fmt.Errorf("remote: mirror %s not synced: %w", m.name, ctx.Err())
	}
}

// Healthy implements the contract behind source.Health: nil while the
// replica is synced and the stream is live (or down for less than
// staleLimit).
func (m *Mirror) Healthy() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.synced {
		if m.lastErr != nil {
			return fmt.Errorf("remote: mirror %s awaiting first sync: %v", m.name, m.lastErr)
		}
		return fmt.Errorf("remote: mirror %s awaiting first sync", m.name)
	}
	if !m.connected && time.Since(m.lastFrame) > staleLimit {
		return fmt.Errorf("remote: mirror %s disconnected since %s: %v",
			m.name, m.lastFrame.Format(time.RFC3339), m.lastErr)
	}
	return nil
}

// Close stops the subscription and waits for the background loop.
func (m *Mirror) Close() error {
	m.mu.Lock()
	select {
	case <-m.stop:
		m.mu.Unlock()
		return nil
	default:
		close(m.stop)
	}
	m.mu.Unlock()
	<-m.done
	return nil
}

func (m *Mirror) stopping() bool {
	select {
	case <-m.stop:
		return true
	default:
		return false
	}
}

// run is the reconnect loop: one session per connection, exponential
// backoff between attempts, reset after any session that made progress.
func (m *Mirror) run() {
	defer close(m.done)
	backoff := m.opts.ReconnectMin
	for {
		if m.stopping() {
			return
		}
		progressed, err := m.session()
		m.setConnected(false, err)
		if m.stopping() {
			return
		}
		if err != nil {
			slog.Debug("mirror: subscription session ended", "source", m.name, "addr", m.addr, "err", err)
		}
		if progressed {
			backoff = m.opts.ReconnectMin
		}
		metricMirrorReconnects.Inc()
		select {
		case <-m.stop:
			return
		case <-time.After(backoff):
		}
		backoff *= 2
		if backoff > backoffCap {
			backoff = backoffCap
		}
	}
}

// session runs one subscription: dial, subscribe from the current
// watermarks, apply frames until the stream errors. progressed reports
// whether any frame was processed (resets the reconnect backoff).
func (m *Mirror) session() (progressed bool, err error) {
	conn, err := net.DialTimeout("tcp", m.addr, m.opts.Timeouts.Dial)
	if err != nil {
		return false, err
	}
	defer conn.Close()
	// Unblock the decoder when Close is called mid-read.
	watch := make(chan struct{})
	defer close(watch)
	go func() {
		select {
		case <-m.stop:
			conn.Close()
		case <-watch:
		}
	}()
	enc := gob.NewEncoder(conn)
	dec := gob.NewDecoder(conn)
	if m.opts.Timeouts.Write > 0 {
		conn.SetWriteDeadline(time.Now().Add(m.opts.Timeouts.Write))
	}
	req := &request{Proto: protoVersion, Kind: reqSubscribe, FromVersions: m.db.TableVersions()}
	if err := enc.Encode(req); err != nil {
		return false, fmt.Errorf("remote: subscribing to %s: %w", m.name, err)
	}
	m.setConnected(true, nil)

	var (
		staged      map[string]*relstore.TableSnap // catch-up chunks before install
		stagedCause relstore.TruncateCause
	)
	for {
		if m.opts.Timeouts.Read > 0 {
			conn.SetReadDeadline(time.Now().Add(m.opts.Timeouts.Read))
		}
		var msg subMessage
		if err := dec.Decode(&msg); err != nil {
			return progressed, fmt.Errorf("remote: subscription to %s: %w", m.name, err)
		}
		progressed = true
		m.touch()
		switch msg.Kind {
		case subHello:
			// The catch-up/delta frames that follow carry everything the
			// mirror acts on; the hello only names the origin's version.
			if err := checkProto(msg.Proto); err != nil {
				return progressed, fmt.Errorf("remote: subscription to %s: %w", m.name, err)
			}
		case subCatchupBegin:
			staged = make(map[string]*relstore.TableSnap)
			stagedCause = msg.Cause
		case subSnapshotTable, subSnapshotRows:
			st := staged[msg.Table]
			if msg.Kind == subSnapshotTable && staged != nil {
				st = &relstore.TableSnap{Name: msg.Table, Schema: msg.Schema, Version: msg.Version}
				staged[msg.Table] = st
			}
			if st == nil {
				return progressed, fmt.Errorf("remote: subscription to %s: %s frame for table %q outside its catch-up", m.name, msg.Kind, msg.Table)
			}
			// A snapshot row goes into the replica as sent, so it is
			// checked here; a bad one ends the session, which resubscribes.
			if err := st.Schema.ValidateRows(msg.Rows); err != nil {
				return progressed, fmt.Errorf("remote: subscription to %s: snapshot of %q: %w", m.name, msg.Table, err)
			}
			st.Rows = append(st.Rows, msg.Rows...)
		case subCatchupEnd:
			if staged == nil {
				return progressed, fmt.Errorf("remote: subscription to %s: catch-up end without begin", m.name)
			}
			if err := m.installSnapshot(staged, stagedCause, msg.Consistent); err != nil {
				return progressed, err
			}
			staged = nil
			m.markSynced()
		case subDeltas:
			if err := m.applyDeltas(msg.Sets); err != nil {
				return progressed, err
			}
		case subHeartbeat:
			metricMirrorHeartbeats.Inc()
			if err := m.checkDrift(msg.Versions); err != nil {
				return progressed, err
			}
		default:
			// Unknown frame kinds from a newer server are skipped, not
			// fatal: gob already decoded the frame, and the version fields
			// on real deltas keep the state machine sound.
		}
	}
}

// installSnapshot swaps the staged catch-up into the replica database
// and drops local tables the snapshot no longer contains.
func (m *Mirror) installSnapshot(staged map[string]*relstore.TableSnap, cause relstore.TruncateCause, certified bool) error {
	for name, st := range staged {
		t := relstore.NewTableWithState(name, st.Schema, st.Rows, st.Version, cause)
		if err := m.db.InstallSnapshotTable(t); err != nil {
			return err
		}
	}
	for _, name := range m.db.TableNames() {
		if _, keep := staged[name]; !keep {
			m.db.DropTable(name)
		}
	}
	switch cause {
	case relstore.TruncateRolled:
		metricMirrorCatchupRolled.Inc()
	case relstore.TruncateReset:
		metricMirrorCatchupReset.Inc()
	case relstore.TruncateRestart:
		metricMirrorCatchupRestart.Inc()
	default:
		metricMirrorInitialSyncs.Inc()
	}
	slog.Info("mirror: catch-up snapshot installed",
		"source", m.name, "cause", cause.String(), "tables", len(staged), "certified", certified)
	return nil
}

// applyDeltas replays pushed change sets onto the replica tables. A
// table that cannot apply its window (divergence) is dropped so the
// resubscription falls back to a catch-up snapshot instead of looping on
// the same bad delta.
func (m *Mirror) applyDeltas(sets []relstore.ChangeSet) error {
	total := 0
	for _, cs := range sets {
		t, err := m.db.Table(cs.Table)
		if err != nil {
			// Unknown table: force a full resync on the next session.
			return fmt.Errorf("remote: subscription to %s: deltas for unknown table %q", m.name, cs.Table)
		}
		applied, err := t.ApplyChanges(cs)
		total += applied
		if err != nil {
			m.db.DropTable(cs.Table)
			return fmt.Errorf("remote: subscription to %s: applying deltas: %w", m.name, err)
		}
	}
	if total > 0 {
		metricMirrorChanges.Add(int64(total))
	}
	if len(sets) > 0 {
		metricMirrorDeltaSets.Add(int64(len(sets)))
	}
	return nil
}

// checkDrift compares a heartbeat's watermark echo against the replica.
// The stream is ordered and single-writer, so by the time a heartbeat is
// processed every delta it reflects has been applied; any mismatch means
// the session lost sync and must resubscribe.
func (m *Mirror) checkDrift(versions map[string]uint64) error {
	if versions == nil {
		return nil
	}
	local := m.db.TableVersions()
	for name, v := range versions {
		if local[name] != v {
			return fmt.Errorf("remote: subscription to %s: watermark drift on %q (origin %d, mirror %d)",
				m.name, name, v, local[name])
		}
	}
	return nil
}

func (m *Mirror) markSynced() {
	m.mu.Lock()
	if !m.synced {
		m.synced = true
		close(m.syncedCh)
	}
	m.mu.Unlock()
}

func (m *Mirror) touch() {
	m.mu.Lock()
	m.lastFrame = time.Now()
	m.mu.Unlock()
}

func (m *Mirror) setConnected(up bool, err error) {
	m.mu.Lock()
	m.connected = up
	if up {
		m.lastErr = nil
		m.lastFrame = time.Now()
	} else if err != nil {
		m.lastErr = err
	}
	m.mu.Unlock()
}
