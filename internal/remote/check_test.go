package remote

import (
	"context"
	"encoding/gob"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"github.com/aigrepro/aig/internal/hospital"
	"github.com/aigrepro/aig/internal/relstore"
	"github.com/aigrepro/aig/internal/source"
	"github.com/aigrepro/aig/internal/sqlmini"
)

// A parameter table whose rows do not fit its schema is answered with an
// error: the executor reads a scalar parameter's field by schema
// position, so an empty or short row would otherwise panic the server
// process, and a row of the wrong kind would compare silently wrong.
func TestExecRefusesMalformedParams(t *testing.T) {
	reg := serveCatalog(t, hospital.TinyCatalog())
	src, err := reg.Get("DB3")
	if err != nil {
		t.Fatal(err)
	}
	q := sqlmini.MustParse(`select trId, price from DB3:billing where trId = $V.trId`)
	cases := []struct {
		name string
		b    sqlmini.Binding
	}{
		{"empty row", sqlmini.Binding{Schema: relstore.MustSchema("trId:string"), Rows: []relstore.Tuple{{}}}},
		{"short row", sqlmini.Binding{Schema: relstore.MustSchema("date:string", "trId:string"),
			Rows: []relstore.Tuple{{relstore.String("d1")}}}},
		{"wrong kind", sqlmini.Binding{Schema: relstore.MustSchema("trId:string"),
			Rows: []relstore.Tuple{{relstore.Int(1)}}}},
	}
	for _, c := range cases {
		_, _, err := src.Exec(context.Background(), "out", q, sqlmini.Params{"V": c.b}, sqlmini.PlanOptions{})
		if err == nil || !strings.Contains(err.Error(), "parameter table V") {
			t.Errorf("%s: Exec error = %v, want the parameter table refused", c.name, err)
		}
	}
	good := sqlmini.ScalarBinding([]string{"trId"}, relstore.Tuple{relstore.String("t1")})
	out, _, err := src.Exec(context.Background(), "out", q, sqlmini.Params{"V": good}, sqlmini.PlanOptions{})
	if err != nil || out.Len() != 1 {
		t.Fatalf("well-formed Exec after the refusals = %v, %v; want one row", out, err)
	}
}

// A request of another protocol version is refused with an error naming
// both versions, and so is a server answering Dial's ping with one.
func TestRefusesOtherProtocolVersion(t *testing.T) {
	local := source.NewLocal(relstore.NewDatabase("DB1"))
	resp := handle(local, &request{Proto: 3, Kind: reqPing})
	if !strings.Contains(resp.Err, "version 3") || !strings.Contains(resp.Err, "speaks 4") {
		t.Errorf("v3 ping answered %q, want a refusal naming versions 3 and 4", resp.Err)
	}
	if resp := handle(local, &request{Proto: protoVersion, Kind: reqPing}); resp.Err != "" {
		t.Errorf("v%d ping refused: %s", protoVersion, resp.Err)
	}

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		var req request
		if gob.NewDecoder(conn).Decode(&req) == nil {
			gob.NewEncoder(conn).Encode(&response{Proto: 3})
		}
	}()
	if c, err := Dial("DB1", l.Addr().String()); err == nil || !strings.Contains(err.Error(), "version 3") {
		if c != nil {
			c.Close()
		}
		t.Errorf("Dial to a v3 server = %v, want a refusal naming version 3", err)
	}
}

// stubOrigin serves every subscription the same frames, sent as given,
// then holds the connection open until the subscriber leaves.
func stubOrigin(t *testing.T, frames ...subMessage) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				var req request
				if gob.NewDecoder(conn).Decode(&req) != nil {
					return
				}
				enc := gob.NewEncoder(conn)
				for i := range frames {
					if enc.Encode(&frames[i]) != nil {
						return
					}
				}
				io.Copy(io.Discard, conn)
			}()
		}
	}()
	return l.Addr().String()
}

// waitUnhealthy polls the mirror until Healthy reports an error
// containing want.
func waitUnhealthy(t *testing.T, m *Mirror, want string) {
	t.Helper()
	waitFor(t, 5*time.Second, "mirror error "+want, func() bool {
		err := m.Healthy()
		return err != nil && strings.Contains(err.Error(), want)
	})
}

// A catch-up snapshot row that does not fit its table's schema is never
// installed: the session ends, the mirror stays unsynced, and Healthy
// names the bad row.
func TestMirrorRefusesMalformedSnapshot(t *testing.T) {
	addr := stubOrigin(t,
		subMessage{Proto: protoVersion, Kind: subHello},
		subMessage{Proto: protoVersion, Kind: subCatchupBegin},
		subMessage{Proto: protoVersion, Kind: subSnapshotTable, Table: "visit", Version: 1,
			Schema: relstore.MustSchema("ssn:string", "day:string"),
			Rows:   []relstore.Tuple{{relstore.String("s1")}}},
		subMessage{Proto: protoVersion, Kind: subCatchupEnd, Versions: map[string]uint64{"visit": 1}, Consistent: true},
	)
	m := OpenMirror("DB1", addr, MirrorOptions{ReconnectMin: 10 * time.Millisecond})
	defer m.Close()
	waitUnhealthy(t, m, "row 0")
	if _, err := m.DB().Table("visit"); err == nil {
		t.Error("the malformed snapshot table was installed")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := m.WaitReady(ctx); err == nil {
		t.Error("mirror reports ready after a malformed snapshot")
	}
}

// A mirror refuses an origin whose hello carries another protocol
// version.
func TestMirrorRefusesOtherProtocolVersion(t *testing.T) {
	addr := stubOrigin(t, subMessage{Proto: 3, Kind: subHello})
	m := OpenMirror("DB1", addr, MirrorOptions{ReconnectMin: 10 * time.Millisecond})
	defer m.Close()
	waitUnhealthy(t, m, "version 3")
}

// A heartbeat whose watermark echo names a table version the mirror
// does not hold ends the session with the drift error, and Healthy
// reports it. Heartbeats without watermarks, or with ones the mirror
// matches, pass.
func TestMirrorEndsSessionOnWatermarkDrift(t *testing.T) {
	addr := stubOrigin(t,
		subMessage{Proto: protoVersion, Kind: subHello},
		subMessage{Proto: protoVersion, Kind: subHeartbeat},
		subMessage{Proto: protoVersion, Kind: subHeartbeat, Versions: map[string]uint64{"visit": 0}},
		subMessage{Proto: protoVersion, Kind: subHeartbeat, Versions: map[string]uint64{"visit": 3}},
	)
	m := OpenMirror("DB1", addr, MirrorOptions{ReconnectMin: 10 * time.Millisecond})
	defer m.Close()
	waitUnhealthy(t, m, `watermark drift on "visit" (origin 3, mirror 0)`)
}
