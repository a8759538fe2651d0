package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"feralcc/internal/appserver"
	"feralcc/internal/db"
	"feralcc/internal/db/conntest"
	"feralcc/internal/faultinject"
	"feralcc/internal/orm"
	"feralcc/internal/storage"
)

// TestWireConnBeginSuite runs the shared BEGIN failure-parity suite across
// the protocol, where a prepared BEGIN on an idle session is pipelined onto
// the transaction's first statement; internal/db runs it embedded.
func TestWireConnBeginSuite(t *testing.T) {
	conntest.RunBegin(t, func(t *testing.T) conntest.BeginSeam {
		store := storage.Open(storage.Options{RecordHistory: true})
		inj := faultinject.New(1)
		addr := startServerWith(t, store, func(s *Server) { s.SetInjector(inj) })
		return conntest.BeginSeam{
			Connect: func() db.Conn {
				c, err := DialOptions(addr, Options{Timeout: 5 * time.Second, Injector: inj})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { c.Close() })
				return c
			},
			History:     store.History,
			Faults:      inj,
			RejectPoint: faultinject.PointServerExec,
			DropPoint:   faultinject.PointClientSend,
		}
	})
}

// framesServed sums the server's request counters: one per frame answered.
func framesServed() uint64 {
	return mReqExec.Value() + mReqPrepare.Value() + mReqExecute.Value() +
		mReqCloseStmt.Value() + mReqOther.Value()
}

// TestORMCreateRoundTrips pins the pipelined BEGIN where it pays: a
// validated create is BEGIN, the uniqueness probe, INSERT and COMMIT, and
// over the wire it costs three frames, not four; a rejected create costs
// two (BEGIN with the probe, then ROLLBACK).
func TestORMCreateRoundTrips(t *testing.T) {
	store := storage.Open(storage.Options{})
	c := dialT(t, startServer(t, store))
	reg, err := appserver.UniquenessModels()
	if err != nil {
		t.Fatal(err)
	}
	sess := orm.NewSession(reg, c)
	if err := sess.Migrate(); err != nil {
		t.Fatal(err)
	}
	create := func(key string) error {
		_, err := sess.Create("ValidatedKeyValue", map[string]storage.Value{
			"key": storage.Str(key), "value": storage.Str("v")})
		return err
	}
	// The first create and the first rejection prepare every statement the
	// measured ones use.
	if err := create("warm"); err != nil {
		t.Fatal(err)
	}
	if err := create("warm"); err == nil {
		t.Fatal("duplicate create accepted")
	}
	before := framesServed()
	if err := create("fresh"); err != nil {
		t.Fatal(err)
	}
	if got := framesServed() - before; got != 3 {
		t.Fatalf("validated create took %d frames, want 3", got)
	}
	before = framesServed()
	var verr *orm.ValidationError
	if err := create("fresh"); !errors.As(err, &verr) {
		t.Fatalf("duplicate create: got %v, want a validation error", err)
	}
	if got := framesServed() - before; got != 2 {
		t.Fatalf("rejected create took %d frames, want 2", got)
	}
}

// TestPreparedRoundTripAllocs pins the allocation cost of one prepared
// statement round trip, client and server together (the loopback server
// runs in this process): the statement of BenchmarkAblationWire/tcp-prepared,
// 41 allocations per round trip before frame, request, argument and row
// buffers were reused per connection, 29 after. Most of what remains is the
// executor's (COUNT(*) aggregation, its transaction) and the result the
// caller owns.
func TestPreparedRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on the measured path")
	}
	store := storage.Open(storage.Options{})
	c := dialT(t, startServer(t, store))
	if _, err := c.Exec("CREATE TABLE kv (id BIGINT PRIMARY KEY, key TEXT)"); err != nil {
		t.Fatal(err)
	}
	st, err := c.Prepare("SELECT COUNT(*) FROM kv")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := st.Exec(); err != nil {
			t.Fatal(err)
		}
	})
	const ceiling = 29
	if allocs > ceiling {
		t.Fatalf("prepared round trip allocates %.1f times, ceiling %d", allocs, ceiling)
	}
}

// TestFrameReaderAllocatesWhatArrives pins the framing fix: a header that
// promises MaxFrame bytes and then closes costs the reader what actually
// arrived, not the 16 MiB the header claimed.
func TestFrameReaderAllocatesWhatArrives(t *testing.T) {
	hdr := binary.BigEndian.AppendUint32(nil, MaxFrame)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fr := frameReader{r: bytes.NewReader(append(hdr, "a few body bytes"...))}
	_, err := fr.next()
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("short frame decoded cleanly")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("reading a 16 MiB promise allocated %d bytes", grew)
	}

	// A frame that does arrive in full still reads correctly, however large.
	body := bytes.Repeat([]byte("x"), 3<<20)
	var buf bytes.Buffer
	if err := writeFrame(&buf, body); err != nil {
		t.Fatal(err)
	}
	fr = frameReader{r: &buf}
	got, err := fr.next()
	if err != nil || !bytes.Equal(got, body) {
		t.Fatalf("large frame: %d bytes, %v", len(got), err)
	}
}

// TestAdmissionShedsPipelinedBegin sheds a frame that carries a pipelined
// BEGIN: one admission ticket covers both, so neither runs, and the session
// reports idle — COMMIT finds no transaction.
func TestAdmissionShedsPipelinedBegin(t *testing.T) {
	store := storage.Open(storage.Options{LockTimeout: time.Second, RecordHistory: true})
	addr := startServerWith(t, store, func(s *Server) { s.SetAdmission(1, 0) })
	setup := dialT(t, addr)
	for _, sql := range []string{
		"CREATE TABLE kv (id BIGINT PRIMARY KEY, key TEXT)",
		"CREATE TABLE probe (id BIGINT PRIMARY KEY, key TEXT)",
		"INSERT INTO kv (key) VALUES ('k')",
	} {
		if _, err := setup.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	// Hold the single slot with a statement parked on a row lock.
	holder := dialT(t, addr)
	if _, err := holder.Exec("BEGIN"); err != nil {
		t.Fatal(err)
	}
	if _, err := holder.Exec("UPDATE kv SET key = 'held' WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	blocked := dialT(t, addr)
	go func() {
		defer wg.Done()
		blocked.Exec("UPDATE kv SET key = 'blocked' WHERE id = 1")
	}()
	shedder := dialT(t, addr)
	begin, err := shedder.Prepare("BEGIN")
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		_, err = shedder.Exec("SELECT COUNT(*) FROM kv")
		if err != nil || time.Now().After(deadline) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !errors.Is(err, storage.ErrOverloaded) {
		t.Fatalf("expected the slot to be held, got %v", err)
	}

	if _, err := begin.Exec(); err != nil {
		t.Fatal(err)
	}
	if _, err := shedder.Exec("INSERT INTO probe (key) VALUES ('shed')"); !errors.Is(err, storage.ErrOverloaded) {
		t.Fatalf("frame with a pipelined BEGIN: got %v, want an admission shed", err)
	}
	for _, e := range store.History() {
		if e.Table == "probe" {
			t.Fatalf("shed statement left a history event: %+v", e)
		}
	}
	wg.Wait()
	if _, err := holder.Exec("COMMIT"); err != nil {
		t.Fatal(err)
	}
	if _, err := shedder.Exec("COMMIT"); err == nil || !strings.Contains(err.Error(), "no transaction") {
		t.Fatalf("COMMIT after a shed pipelined BEGIN: got %v, want no transaction", err)
	}
	res, err := shedder.Exec("SELECT COUNT(*) FROM probe")
	if err != nil || res.Rows[0][0].I != 0 {
		t.Fatalf("shed insert left rows: %+v %v", res, err)
	}
}

// TestClosingPendingBeginSendsIt closes a prepared BEGIN whose execution is
// still pipelined: the BEGIN must run before its handle is released.
func TestClosingPendingBeginSendsIt(t *testing.T) {
	store := storage.Open(storage.Options{})
	c := dialT(t, startServer(t, store))
	if _, err := c.Exec("CREATE TABLE kv (id BIGINT PRIMARY KEY, key TEXT)"); err != nil {
		t.Fatal(err)
	}
	begin, err := c.Prepare("BEGIN")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := begin.Exec(); err != nil {
		t.Fatal(err)
	}
	if err := begin.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec("INSERT INTO kv (key) VALUES ('in-tx')"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec("ROLLBACK"); err != nil {
		t.Fatalf("the closed BEGIN never opened its transaction: %v", err)
	}
	res, err := c.Exec("SELECT COUNT(*) FROM kv")
	if err != nil || res.Rows[0][0].I != 0 {
		t.Fatalf("insert escaped the rollback: %+v %v", res, err)
	}
}

// TestFailedPrefixSkipsStatement sends frames whose begin prefix fails on
// the server, as only a misbehaving client would: a prefix naming a
// statement that does not open a transaction, and a BEGIN prefix inside an
// open transaction. Either way the frame answers with the prefix's error and
// its statement never runs.
func TestFailedPrefixSkipsStatement(t *testing.T) {
	store := storage.Open(storage.Options{})
	c := dialT(t, startServer(t, store))
	for _, sql := range []string{
		"CREATE TABLE kv (id BIGINT PRIMARY KEY, key TEXT)",
		"BEGIN",
	} {
		if _, err := c.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	ins, err := c.Prepare("INSERT INTO kv (key) VALUES ('x')")
	if err != nil {
		t.Fatal(err)
	}
	begin, err := c.Prepare("BEGIN")
	if err != nil {
		t.Fatal(err)
	}
	for _, prefix := range []db.Stmt{ins, begin} {
		c.mu.Lock()
		c.pendingBegin = prefix.(*clientStmt).handle
		var resp response
		err = c.roundTrip(nil, &request{Type: MsgExecute, Handle: ins.(*clientStmt).handle}, &resp)
		c.mu.Unlock()
		if err == nil {
			t.Fatalf("frame with a failing prefix %q succeeded", prefix.(*clientStmt).sql)
		}
	}
	// Neither failure aborted the open transaction, and neither insert ran.
	if _, err := c.Exec("COMMIT"); err != nil {
		t.Fatal(err)
	}
	res, err := c.Exec("SELECT COUNT(*) FROM kv")
	if err != nil || res.Rows[0][0].I != 0 {
		t.Fatalf("a frame with a failed prefix ran its statement: %+v %v", res, err)
	}
}
