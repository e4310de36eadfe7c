package remote

import (
	"encoding/gob"
	"errors"
	"io"
	"log/slog"
	"net"
	"sync"
	"time"

	"github.com/aigrepro/aig/internal/relstore"
	"github.com/aigrepro/aig/internal/source"
)

// Server serves one relstore database over TCP.
type Server struct {
	local *source.Local

	// HeartbeatEvery is the idle push cadence of delta-subscription
	// streams (zero means the 1s default). Set before Listen.
	HeartbeatEvery time.Duration

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
}

// NewServer wraps a database for serving.
func NewServer(db *relstore.Database) *Server {
	return &Server{local: source.NewLocal(db), conns: make(map[net.Conn]struct{})}
}

// Listen starts accepting connections on addr (e.g. "127.0.0.1:0") and
// returns the bound address. Serving happens on background goroutines
// until Close.
func (s *Server) Listen(addr string) (string, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	s.listener = l
	s.mu.Unlock()
	go s.acceptLoop(l)
	return l.Addr().String(), nil
}

func (s *Server) acceptLoop(l net.Listener) {
	for {
		conn, err := l.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	dec := gob.NewDecoder(conn)
	enc := gob.NewEncoder(conn)
	for {
		var req request
		if err := dec.Decode(&req); err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				slog.Warn("remote: decoding request failed", "peer", conn.RemoteAddr().String(), "err", err)
			}
			return
		}
		if req.Kind == reqSubscribe && checkProto(req.Proto) == nil {
			// The connection becomes a one-way push stream; the
			// subscription loop owns it until the peer (or Close) ends it.
			// A subscription of another version gets handle's refusal.
			s.serveSubscription(enc, &req)
			return
		}
		resp := handle(s.local, &req)
		if err := enc.Encode(resp); err != nil {
			slog.Warn("remote: encoding response failed", "peer", conn.RemoteAddr().String(), "err", err)
			return
		}
	}
}

// Close stops the listener and drops every connection.
func (s *Server) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	var err error
	if s.listener != nil {
		err = s.listener.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	s.conns = map[net.Conn]struct{}{}
	return err
}
