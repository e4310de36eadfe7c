package remote

import (
	"encoding/gob"
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

// stallingServer accepts one connection and answers the first answered
// requests normally, then goes silent: it keeps reading but never
// replies — the behavior of a hung source engine.
func stallingServer(t *testing.T, answered int) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		dec := gob.NewDecoder(conn)
		enc := gob.NewEncoder(conn)
		for i := 0; i < answered; i++ {
			var req request
			if dec.Decode(&req) != nil {
				return
			}
			if enc.Encode(&response{Proto: protoVersion, Card: 1}) != nil {
				return
			}
		}
		// Stall: swallow everything, answer nothing.
		io.Copy(io.Discard, conn)
	}()
	return l.Addr().String()
}

func TestClientReadTimeoutOnStalledServer(t *testing.T) {
	// The server answers the liveness ping, then hangs.
	addr := stallingServer(t, 1)
	c, err := DialTimeouts("DB1", addr, Timeouts{
		Dial:  time.Second,
		Read:  150 * time.Millisecond,
		Write: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	start := time.Now()
	_, err = c.TableCard("patient")
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("request against a stalled server succeeded")
	}
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Fatalf("error is not a net timeout: %v", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("timeout fired after %v, deadline was 150ms", elapsed)
	}
}

func TestDialTimeoutOnStalledServer(t *testing.T) {
	// The server accepts but never answers the liveness ping, so
	// DialTimeouts itself must fail within the read deadline instead of
	// hanging forever.
	addr := stallingServer(t, 0)
	start := time.Now()
	_, err := DialTimeouts("DB1", addr, Timeouts{
		Dial:  time.Second,
		Read:  150 * time.Millisecond,
		Write: time.Second,
	})
	if err == nil {
		t.Fatal("dial against a mute server succeeded")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("dial failed only after %v", elapsed)
	}
}

func TestZeroTimeoutsKeepWorking(t *testing.T) {
	// The default (no deadlines) still round-trips against a live server.
	addr := stallingServer(t, 2)
	c, err := Dial("DB1", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if n, err := c.TableCard("patient"); err != nil || n != 1 {
		t.Fatalf("TableCard = %d, %v", n, err)
	}
}
