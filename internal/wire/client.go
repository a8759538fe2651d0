package wire

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"feralcc/internal/db"
	"feralcc/internal/faultinject"
	"feralcc/internal/obs"
	"feralcc/internal/storage"
)

// Options tunes a client connection.
type Options struct {
	// Timeout bounds each round trip (send plus await-response) when the
	// caller's context carries no nearer deadline. Zero means unbounded —
	// but note that an unbounded client hangs forever on a stalled server,
	// so production callers should always set one.
	Timeout time.Duration
	// DialTimeout bounds connection establishment (default 5s), for both
	// the initial dial and automatic redials.
	DialTimeout time.Duration
	// NoRedial disables automatic reconnection after a dropped connection.
	// By default the client redials transparently on the next call, which
	// pairs with db.Reliable's replay to ride out connection loss.
	NoRedial bool
	// Injector, when non-nil, is consulted at the client-side injection
	// points (faultinject.PointClientSend, PointClientRecv).
	Injector *faultinject.Injector
}

// Client is a database connection over the wire protocol. It implements
// db.Conn, so any code written against the embedded database runs unchanged
// against a remote server — including prepared statements, which map to
// server-side statement handles.
//
// Failure classification follows the db package's taxonomy. A failure while
// sending a request severs the connection and returns db.ErrConnDropped
// (retryable: the statement never reached the executor). A failure while
// awaiting the response also severs the connection but is NOT retryable,
// because the statement may well have executed; it surfaces as a transient
// response-lost error, or as storage.ErrStmtDeadline when the wait exceeded
// the round-trip budget. After a severed connection the next call redials
// automatically (unless NoRedial), invalidating server-side state: the new
// session has no open transaction, and prepared statements transparently
// re-prepare themselves via a connection generation counter.
type Client struct {
	mu   sync.Mutex
	addr string
	opts Options
	conn net.Conn
	fr   frameReader
	w    *bufio.Writer
	// buf and args are reused for request encoding so the steady-state send
	// path is allocation-free.
	buf  []byte
	args []wireValue
	// rows is reused for decoding response rows, which toResult copies out.
	rows rowBuf
	// gen counts established connections; prepared statements record the
	// generation they were prepared on and re-prepare when it moves.
	gen    uint64
	broken bool
	closed bool
	// inTx is the session status the last response reported.
	inTx bool
	// pendingBegin is the handle of a prepared BEGIN executed on an idle
	// session but not yet sent (0 = none): it rides as the begin prefix of
	// the next MsgExec or MsgExecute frame.
	pendingBegin uint64
}

var _ db.Conn = (*Client)(nil)

// Dial connects to a wire server with default options.
func Dial(addr string) (*Client, error) {
	return DialOptions(addr, Options{})
}

// DialTimeout connects with a bounded dial time.
func DialTimeout(addr string, timeout time.Duration) (*Client, error) {
	return DialOptions(addr, Options{DialTimeout: timeout})
}

// DialOptions connects with full configuration.
func DialOptions(addr string, opts Options) (*Client, error) {
	if opts.DialTimeout <= 0 {
		opts.DialTimeout = 5 * time.Second
	}
	c := &Client{addr: addr, opts: opts}
	if err := c.connect(); err != nil {
		return nil, err
	}
	return c, nil
}

// connect (re)establishes the TCP connection. Caller holds c.mu (or owns the
// client exclusively, as in DialOptions).
func (c *Client) connect() error {
	conn, err := net.DialTimeout("tcp", c.addr, c.opts.DialTimeout)
	if err != nil {
		return fmt.Errorf("%w: dial %s: %v", db.ErrConnDropped, c.addr, err)
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	if c.gen > 0 {
		mClientRedials.Inc()
	}
	c.conn = conn
	c.fr = frameReader{r: bufio.NewReader(conn)}
	c.w = bufio.NewWriter(conn)
	c.broken = false
	c.gen++
	return nil
}

// sever marks the current connection unusable and closes it. A pending
// BEGIN dies with the session it was meant for: the next connection starts
// idle.
func (c *Client) sever() {
	c.broken = true
	c.inTx = false
	c.pendingBegin = 0
	if c.conn != nil {
		c.conn.Close()
	}
}

// Gen returns the connection generation (tests use it to observe redials).
func (c *Client) Gen() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gen
}

// ensureConn redials a severed connection when permitted. Caller holds c.mu.
func (c *Client) ensureConn() error {
	if c.closed {
		return net.ErrClosed
	}
	if !c.broken {
		return nil
	}
	if c.opts.NoRedial {
		return fmt.Errorf("%w: connection severed and redial disabled", db.ErrConnDropped)
	}
	return c.connect()
}

// responseLostError reports a connection failure after the request was
// flushed: the statement's outcome is unknown, so the error is transient
// (infrastructure, not the request) but deliberately not retryable.
type responseLostError struct{ err error }

func (e *responseLostError) Error() string {
	return fmt.Sprintf("wire: connection lost awaiting response: %v", e.err)
}
func (e *responseLostError) Unwrap() error   { return e.err }
func (e *responseLostError) Transient() bool { return true }

// sendPathErr classifies a failure before the request was fully flushed.
// Caller holds c.mu.
func (c *Client) sendPathErr(err error) error {
	c.sever()
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		// The budget ran out mid-send: the statement did not execute, but
		// the caller's time is spent, so this is a deadline error (transient,
		// not auto-retried) rather than a retryable drop.
		mClientDeadlineExpiries.Inc()
		return fmt.Errorf("%w: %v", storage.ErrStmtDeadline, err)
	}
	return fmt.Errorf("%w: %v", db.ErrConnDropped, err)
}

// recvPathErr classifies a failure after the request was flushed. Caller
// holds c.mu.
func (c *Client) recvPathErr(err error) error {
	c.sever()
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		mClientDeadlineExpiries.Inc()
		return fmt.Errorf("%w: no response within round-trip budget: %v", storage.ErrStmtDeadline, err)
	}
	return &responseLostError{err: err}
}

// budgetFor computes the round-trip budget: the nearer of the context
// deadline and the configured per-call timeout (0 = unbounded). The second
// return is non-nil when the context is already done.
func (c *Client) budgetFor(ctx context.Context) (time.Duration, error) {
	var budget time.Duration
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return 0, fmt.Errorf("wire: statement aborted: %w", err)
		}
		if dl, ok := ctx.Deadline(); ok {
			budget = time.Until(dl)
			if budget <= 0 {
				mClientDeadlineExpiries.Inc()
				return 0, fmt.Errorf("%w: context deadline already passed", storage.ErrStmtDeadline)
			}
		}
	}
	if t := c.opts.Timeout; t > 0 && (budget == 0 || t < budget) {
		budget = t
	}
	return budget, nil
}

// abortStatement best-effort ships a request whose budget is spent on
// arrival, so the server fails it before execution (aborting the open
// transaction there). Any wire failure severs the connection instead, which
// makes the server roll back as for a vanished peer — the same end state.
// An idle session has nothing to abort, so nothing is shipped; a pending
// BEGIN is dropped, exactly as an embedded session's fresh transaction is
// aborted by the refused statement. Caller holds c.mu.
func (c *Client) abortStatement(req *request) {
	c.pendingBegin = 0
	if !c.inTx {
		return
	}
	req.DeadlineNanos = 1
	io := c.opts.Timeout
	if io <= 0 {
		io = time.Second
	}
	c.conn.SetDeadline(time.Now().Add(io))
	c.buf = encodeRequest(startFrame(c.buf), req)
	if endFrame(c.buf) != nil || c.flush() != nil {
		c.sever()
		return
	}
	var resp response
	if c.receive(&resp) != nil {
		c.sever()
	}
}

// flush writes the frame in c.buf and flushes it to the socket. Caller holds
// c.mu.
func (c *Client) flush() error {
	if _, err := c.w.Write(c.buf); err != nil {
		return err
	}
	return c.w.Flush()
}

// receive reads and decodes one response, recording the session status it
// reports. Caller holds c.mu.
func (c *Client) receive(resp *response) error {
	body, err := c.fr.next()
	if err != nil {
		return err
	}
	if err := decodeResponse(body, resp, &c.rows); err != nil {
		return err
	}
	c.inTx = resp.Status == StatusInTx
	return nil
}

// roundTrip sends one request and reads its response into resp. Caller holds
// c.mu.
func (c *Client) roundTrip(ctx context.Context, req *request, resp *response) error {
	if c.closed {
		return net.ErrClosed
	}
	if err := c.ensureConn(); err != nil {
		return err
	}
	budget, err := c.budgetFor(ctx)
	if err != nil {
		// The caller's context is already done, so the statement must not
		// run — but the server still has to observe a failed statement so
		// its session aborts any open transaction, just as the embedded
		// session does (the moral equivalent of PostgreSQL's cancel
		// request). Ship the request with a 1ns budget, which expires on
		// arrival, and surface the context error regardless of the reply.
		c.abortStatement(req)
		return err
	}
	req.DeadlineNanos = int64(budget)
	if req.Type == MsgExec || req.Type == MsgExecute {
		// Mint the statement's trace ID at the outermost tier: it travels
		// with the request, the server threads it through the executor and
		// storage, and the response echoes it back with the span timings.
		if req.TraceID == 0 {
			req.TraceID = obs.NewTraceID()
		}
		req.BeginHandle = c.pendingBegin
	}

	// Client-side send faults fire before any byte is written, so a drop
	// here is always retry-safe.
	if f := c.opts.Injector.EvalTraced(faultinject.PointClientSend, req.TraceID); f != nil {
		switch f.Kind {
		case faultinject.KindLatency:
			time.Sleep(f.Latency)
		case faultinject.KindDrop:
			c.sever()
			return fmt.Errorf("%w: %v", db.ErrConnDropped, faultinject.ErrInjected)
		case faultinject.KindTruncate:
			// Ship a frame header that promises more body than will ever
			// arrive, then sever: the server must abandon the connection
			// without executing anything.
			c.conn.Write([]byte{0, 0, 0, 16, byte(MsgExec)})
			c.sever()
			return fmt.Errorf("%w: %v", db.ErrConnDropped, faultinject.ErrInjected)
		default:
			if err := f.Error(); err != nil {
				return err
			}
		}
	}

	if budget > 0 {
		c.conn.SetDeadline(time.Now().Add(budget))
	} else {
		c.conn.SetDeadline(time.Time{})
	}
	c.buf = encodeRequest(startFrame(c.buf), req)
	if err := endFrame(c.buf); err != nil {
		// Too large to frame: nothing was written and the stream is intact.
		return err
	}
	if err := c.flush(); err != nil {
		return c.sendPathErr(err)
	}
	if req.BeginHandle != 0 {
		// The frame carried the pending BEGIN; from here the response's
		// session status is the truth about the transaction.
		c.pendingBegin = 0
	}

	// Past this point the request is on the wire; failures are no longer
	// retry-safe (the statement may execute regardless).
	if f := c.opts.Injector.EvalTraced(faultinject.PointClientRecv, req.TraceID); f != nil {
		switch f.Kind {
		case faultinject.KindLatency:
			time.Sleep(f.Latency)
		case faultinject.KindDrop, faultinject.KindTruncate:
			c.sever()
			return &responseLostError{err: faultinject.ErrInjected}
		default:
			if err := f.Error(); err != nil {
				c.sever()
				return &responseLostError{err: err}
			}
		}
	}
	if err := c.receive(resp); err != nil {
		// A short read or an undecodable body: the stream can no longer be
		// trusted to be in frame sync.
		return c.recvPathErr(err)
	}
	if resp.Code != CodeOK {
		if resp.Code == CodeOverloaded {
			mClientOverloaded.Inc()
		}
		return errorFor(resp.Code, resp.Error, time.Duration(resp.RetryAfterNanos))
	}
	return nil
}

// toResult converts a wire response into an executor result.
func toResult(resp *response) *db.Result {
	res := &db.Result{
		Columns:      resp.Columns,
		RowsAffected: resp.RowsAffected,
		LastInsertID: resp.LastInsertID,
		Trace: obs.StmtTrace{
			ID:       resp.TraceID,
			CacheHit: resp.CacheHit,
			Spans:    resp.Spans,
		},
	}
	if len(resp.Rows) > 0 {
		// One array holds every cell; each row is a full slice of it, so a
		// caller appending to a row cannot overwrite the next.
		n := 0
		for _, row := range resp.Rows {
			n += len(row)
		}
		cells := make([]storage.Value, 0, n)
		res.Rows = make([][]storage.Value, len(resp.Rows))
		for i, row := range resp.Rows {
			start := len(cells)
			for _, w := range row {
				cells = append(cells, fromWire(w))
			}
			res.Rows[i] = cells[start:len(cells):len(cells)]
		}
	}
	return res
}

// wireArgs converts statement arguments into the client's reused argument
// buffer, valid until the next request. Caller holds c.mu.
func (c *Client) wireArgs(args []storage.Value) []wireValue {
	c.args = c.args[:0]
	for _, a := range args {
		c.args = append(c.args, toWire(a))
	}
	return c.args
}

// Exec implements db.Conn. Server-side, the statement hits the shared plan
// cache, so repeated SQL is not re-parsed.
func (c *Client) Exec(sql string, args ...storage.Value) (*db.Result, error) {
	return c.ExecContext(nil, sql, args...)
}

// ExecContext implements db.Conn. The context deadline (or Options.Timeout,
// whichever is nearer) bounds the round trip client-side via socket
// deadlines AND travels to the server as the statement's time budget, so a
// stalled statement is aborted at both ends.
func (c *Client) ExecContext(ctx context.Context, sql string, args ...storage.Value) (*db.Result, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var resp response
	if err := c.roundTrip(ctx, &request{Type: MsgExec, SQL: sql, Args: c.wireArgs(args)}, &resp); err != nil {
		return nil, err
	}
	return toResult(&resp), nil
}

// Prepare implements db.Conn: the statement is planned server-side once and
// subsequent Execs ship only a handle and the arguments.
func (c *Client) Prepare(sql string) (db.Stmt, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := &clientStmt{c: c, sql: sql}
	if err := st.prepare(); err != nil {
		return nil, err
	}
	return st, nil
}

// Close implements db.Conn. The server rolls back any open transaction when
// the connection drops. A closed client never redials.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	if c.conn == nil {
		return nil
	}
	return c.conn.Close()
}

// clientStmt is a prepared statement backed by a server-side handle. The
// handle is only meaningful on the connection generation that prepared it;
// after a redial the statement transparently re-prepares itself.
type clientStmt struct {
	c      *Client
	sql    string
	handle uint64
	gen    uint64
	// begins is the server's verdict that the statement opens a
	// transaction: executing it on an idle session is pipelined.
	begins bool
	closed bool
}

// prepare plans the statement on the current connection. Caller holds
// st.c.mu.
func (st *clientStmt) prepare() error {
	var resp response
	if err := st.c.roundTrip(nil, &request{Type: MsgPrepare, SQL: st.sql}, &resp); err != nil {
		return err
	}
	st.handle = resp.Handle
	st.begins = resp.Begins
	st.gen = st.c.gen
	return nil
}

// refresh re-prepares the statement when the connection generation moved.
// Caller holds st.c.mu.
func (st *clientStmt) refresh() error {
	if st.gen == st.c.gen && !st.c.broken {
		return nil
	}
	return st.prepare()
}

// Exec implements db.Stmt.
func (st *clientStmt) Exec(args ...storage.Value) (*db.Result, error) {
	return st.ExecContext(nil, args...)
}

// ExecContext implements db.Stmt.
func (st *clientStmt) ExecContext(ctx context.Context, args ...storage.Value) (*db.Result, error) {
	st.c.mu.Lock()
	defer st.c.mu.Unlock()
	if st.closed {
		return nil, net.ErrClosed
	}
	if err := st.refresh(); err != nil {
		return nil, err
	}
	c := st.c
	if st.begins && !c.inTx && c.pendingBegin == 0 && !c.closed {
		// Pipeline the BEGIN: on an idle session it cannot fail for any
		// reason but a spent budget, and it returns nothing, so it waits to
		// ride on the transaction's first statement.
		if _, err := c.budgetFor(ctx); err != nil {
			return nil, err
		}
		c.pendingBegin = st.handle
		return &db.Result{}, nil
	}
	var resp response
	if err := c.roundTrip(ctx, &request{Type: MsgExecute, Handle: st.handle, Args: c.wireArgs(args)}, &resp); err != nil {
		return nil, err
	}
	return toResult(&resp), nil
}

// Close implements db.Stmt, releasing the server-side handle.
func (st *clientStmt) Close() error {
	st.c.mu.Lock()
	defer st.c.mu.Unlock()
	if st.closed || st.c.closed || st.c.broken || st.gen != st.c.gen {
		// A handle from a dead connection generation has nothing to release.
		st.closed = true
		return nil
	}
	st.closed = true
	if st.c.pendingBegin == st.handle {
		// The pending BEGIN names this handle: run it before releasing it.
		st.c.pendingBegin = 0
		var resp response
		if err := st.c.roundTrip(nil, &request{Type: MsgExecute, Handle: st.handle}, &resp); err != nil {
			return err
		}
	}
	var resp response
	return st.c.roundTrip(nil, &request{Type: MsgCloseStmt, Handle: st.handle}, &resp)
}
