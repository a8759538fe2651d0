package wire

import (
	"bytes"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"feralcc/internal/db"
	"feralcc/internal/db/conntest"
	"feralcc/internal/histcheck"
	"feralcc/internal/storage"
)

// startServer runs a server on an ephemeral port and returns its address.
func startServer(t *testing.T, store *storage.Database) string {
	t.Helper()
	srv := NewServer(store, nil)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(srv.Close)
	return srv.Addr()
}

func dialT(t *testing.T, addr string) *Client {
	t.Helper()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestWireRoundTrip(t *testing.T) {
	store := storage.Open(storage.Options{})
	addr := startServer(t, store)
	c := dialT(t, addr)

	if _, err := c.Exec("CREATE TABLE kv (id BIGINT PRIMARY KEY, key TEXT, value TEXT)"); err != nil {
		t.Fatal(err)
	}
	res, err := c.Exec("INSERT INTO kv (key, value) VALUES (?, ?)", storage.Str("a"), storage.Str("1"))
	if err != nil || res.RowsAffected != 1 || res.LastInsertID != 1 {
		t.Fatalf("insert: %+v %v", res, err)
	}
	res, err = c.Exec("SELECT key, value FROM kv WHERE key = ?", storage.Str("a"))
	if err != nil || len(res.Rows) != 1 || res.Rows[0][1].S != "1" {
		t.Fatalf("select: %+v %v", res, err)
	}
	if res.Columns[0] != "key" {
		t.Fatalf("columns: %v", res.Columns)
	}
}

func TestWireValueKindsSurvive(t *testing.T) {
	store := storage.Open(storage.Options{})
	addr := startServer(t, store)
	c := dialT(t, addr)
	if _, err := c.Exec(`CREATE TABLE v (id BIGINT PRIMARY KEY, i BIGINT, f DOUBLE,
		s TEXT, b BOOLEAN, ts TIMESTAMP)`); err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1736000000, 123456789).UTC()
	_, err := c.Exec("INSERT INTO v (i, f, s, b, ts) VALUES (?, ?, ?, ?, ?)",
		storage.Int(-42), storage.Float(2.75), storage.Str("héllo"),
		storage.Bool(true), storage.Time(now))
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Exec("SELECT i, f, s, b, ts FROM v")
	if err != nil {
		t.Fatal(err)
	}
	row := res.Rows[0]
	if row[0].I != -42 || row[1].F != 2.75 || row[2].S != "héllo" || !row[3].B {
		t.Fatalf("row: %+v", row)
	}
	if !row[4].T.Equal(now) {
		t.Fatalf("timestamp: %v != %v", row[4].T, now)
	}
}

func TestWireErrorCodesRoundTrip(t *testing.T) {
	store := storage.Open(storage.Options{})
	addr := startServer(t, store)
	c := dialT(t, addr)
	_, _ = c.Exec("CREATE TABLE u (id BIGINT PRIMARY KEY, email TEXT UNIQUE)")
	_, _ = c.Exec("INSERT INTO u (email) VALUES ('x')")
	_, err := c.Exec("INSERT INTO u (email) VALUES ('x')")
	if !errors.Is(err, storage.ErrUniqueViolation) {
		t.Fatalf("unique violation not reconstructed: %v", err)
	}
	_, err = c.Exec("SELECT * FROM missing")
	if !errors.Is(err, storage.ErrNoSuchTable) {
		t.Fatalf("no-such-table not reconstructed: %v", err)
	}
	_, err = c.Exec("COMMIT")
	if err == nil {
		t.Fatal("commit without begin should error")
	}
}

func TestWireTransactionsArePerConnection(t *testing.T) {
	store := storage.Open(storage.Options{})
	addr := startServer(t, store)
	c1 := dialT(t, addr)
	c2 := dialT(t, addr)
	_, _ = c1.Exec("CREATE TABLE kv (id BIGINT PRIMARY KEY, key TEXT)")

	if _, err := c1.Exec("BEGIN"); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Exec("INSERT INTO kv (key) VALUES ('uncommitted')"); err != nil {
		t.Fatal(err)
	}
	res, err := c2.Exec("SELECT COUNT(*) FROM kv")
	if err != nil || res.Rows[0][0].I != 0 {
		t.Fatalf("dirty read across connections: %+v %v", res, err)
	}
	if _, err := c1.Exec("COMMIT"); err != nil {
		t.Fatal(err)
	}
	res, _ = c2.Exec("SELECT COUNT(*) FROM kv")
	if res.Rows[0][0].I != 1 {
		t.Fatal("commit invisible across connections")
	}
}

func TestWireDroppedConnectionRollsBack(t *testing.T) {
	store := storage.Open(storage.Options{})
	addr := startServer(t, store)
	c1 := dialT(t, addr)
	_, _ = c1.Exec("CREATE TABLE kv (id BIGINT PRIMARY KEY, key TEXT)")

	c2 := dialT(t, addr)
	_, _ = c2.Exec("BEGIN")
	_, _ = c2.Exec("INSERT INTO kv (key) VALUES ('doomed')")
	c2.Close()

	// The server rolls back asynchronously; poll briefly.
	deadline := time.Now().Add(2 * time.Second)
	for {
		res, err := c1.Exec("SELECT COUNT(*) FROM kv")
		if err != nil {
			t.Fatal(err)
		}
		if res.Rows[0][0].I == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("uncommitted insert survived disconnect: %d rows", res.Rows[0][0].I)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestWireConcurrentClients(t *testing.T) {
	store := storage.Open(storage.Options{})
	addr := startServer(t, store)
	setup := dialT(t, addr)
	if _, err := setup.Exec("CREATE TABLE kv (id BIGINT PRIMARY KEY, key TEXT)"); err != nil {
		t.Fatal(err)
	}
	const clients, each = 8, 25
	var wg sync.WaitGroup
	wg.Add(clients)
	for i := 0; i < clients; i++ {
		go func(i int) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for j := 0; j < each; j++ {
				if _, err := c.Exec("INSERT INTO kv (key) VALUES (?)", storage.Str("k")); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	res, err := setup.Exec("SELECT COUNT(*) FROM kv")
	if err != nil || res.Rows[0][0].I != clients*each {
		t.Fatalf("count = %+v, %v", res, err)
	}
}

// TestWireConnSuite runs the shared db.Conn behavioral suite against the
// wire client; the embedded connection runs the same suite in internal/db.
func TestWireConnSuite(t *testing.T) {
	conntest.Run(t, func(t *testing.T) db.Conn {
		store := storage.Open(storage.Options{})
		return dialT(t, startServer(t, store))
	})
}

// TestWireConnHistorySuite runs the shared history-capture suite across the
// protocol: clients drive SQL over TCP while the history is read from the
// backing store, proving wire-attached sessions feed the isolation checker
// exactly like embedded ones.
func TestWireConnHistorySuite(t *testing.T) {
	conntest.RunHistory(t, func(t *testing.T) (func() db.Conn, func() []histcheck.Event) {
		store := storage.Open(storage.Options{RecordHistory: true, LockTimeout: 250 * time.Millisecond})
		addr := startServer(t, store)
		return func() db.Conn { return dialT(t, addr) }, store.History
	})
}

// TestWireConnOverloadSuite runs the shared overload-shed contract suite
// across the protocol: the shed happens in the engine, travels as
// CodeOverloaded with its retry-after hint, and must classify on the client
// exactly as it does embedded.
func TestWireConnOverloadSuite(t *testing.T) {
	conntest.RunOverload(t, func(t *testing.T, opts storage.Options) (func() db.Conn, func() []histcheck.Event) {
		store := storage.Open(opts)
		addr := startServer(t, store)
		return func() db.Conn { return dialT(t, addr) }, store.History
	})
}

func TestFrameCodec(t *testing.T) {
	var buf bytes.Buffer
	in := request{Type: MsgExec, SQL: "SELECT 1 FROM t", Args: []wireValue{toWire(storage.Int(7))}}
	if err := writeFrame(&buf, encodeRequest(nil, &in)); err != nil {
		t.Fatal(err)
	}
	body, err := (&frameReader{r: &buf}).next()
	if err != nil {
		t.Fatal(err)
	}
	out := new(request)
	if err := decodeRequest(body, out); err != nil {
		t.Fatal(err)
	}
	if out.Type != MsgExec || out.SQL != in.SQL || len(out.Args) != 1 || fromWire(out.Args[0]).I != 7 {
		t.Fatalf("round trip: %+v", out)
	}
}

func TestFrameSizeLimit(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF}) // absurd length prefix
	if _, err := (&frameReader{r: &buf}).next(); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

// TestWriteFrameRejectsOversizedBeforeHeader pins the write-path desync fix:
// an oversized body must be rejected before any byte — header included — hits
// the stream, so the connection stays usable for the next frame.
func TestWriteFrameRejectsOversizedBeforeHeader(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, make([]byte, MaxFrame+1)); err == nil {
		t.Fatal("oversized frame accepted")
	}
	if buf.Len() != 0 {
		t.Fatalf("rejected frame leaked %d bytes onto the stream", buf.Len())
	}
	// A well-formed frame written afterwards must still round-trip.
	if err := writeFrame(&buf, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	body, err := (&frameReader{r: &buf}).next()
	if err != nil || len(body) != 3 {
		t.Fatalf("stream desynced after rejection: %v %v", body, err)
	}
}

// TestClientSurvivesOversizedRequest drives the same guarantee end to end: a
// request too large to frame fails locally without poisoning the connection.
func TestClientSurvivesOversizedRequest(t *testing.T) {
	store := storage.Open(storage.Options{})
	c := dialT(t, startServer(t, store))
	huge := "SELECT '" + strings.Repeat("x", MaxFrame+1) + "'"
	if _, err := c.Exec(huge); err == nil {
		t.Fatal("oversized request accepted")
	}
	if _, err := c.Exec("SHOW TABLES"); err != nil {
		t.Fatalf("connection unusable after oversized request: %v", err)
	}
}

func TestWireValueNullRoundTrip(t *testing.T) {
	w := toWire(storage.Null())
	if v := fromWire(w); !v.IsNull() {
		t.Fatal("NULL did not survive the wire")
	}
}

func TestServerSurvivesGarbageFrames(t *testing.T) {
	store := storage.Open(storage.Options{})
	addr := startServer(t, store)
	// Raw TCP: send a plausible length prefix followed by non-JSON bytes.
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	_, _ = raw.Write([]byte{0, 0, 0, 4, 'j', 'u', 'n', 'k'})
	raw.Close()
	// Also a huge length prefix.
	raw2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	_, _ = raw2.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	raw2.Close()
	// The server must still answer well-formed clients.
	c := dialT(t, addr)
	if _, err := c.Exec("SHOW TABLES"); err != nil {
		t.Fatalf("server wedged after garbage: %v", err)
	}
}

func TestClientAfterCloseErrors(t *testing.T) {
	store := storage.Open(storage.Options{})
	addr := startServer(t, store)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if _, err := c.Exec("SHOW TABLES"); err == nil {
		t.Fatal("closed client accepted a statement")
	}
	if err := c.Close(); err != nil {
		t.Fatal("double close should be nil")
	}
}

func TestDialTimeoutFailsFast(t *testing.T) {
	// 192.0.2.0/24 is TEST-NET; connection should not succeed.
	start := time.Now()
	_, err := DialTimeout("192.0.2.1:1", 50*time.Millisecond)
	if err == nil {
		t.Skip("unexpected connectivity to TEST-NET")
	}
	if time.Since(start) > 2*time.Second {
		t.Fatalf("dial timeout not honored: %v", time.Since(start))
	}
}
