package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"sort"
	"sync/atomic"
	"time"

	"feralcc/internal/db"
	"feralcc/internal/obs"
	"feralcc/internal/storage"
)

// The traced run records spans at the benchmark's own boundaries: one
// request span per HTTP call (client side), one db span per db.Conn or
// db.Stmt call (the decorator below, installed through appserver.NewPool's
// connect func), and under each db span the server-side spans the program
// already carries back in Result.Trace. Records stay in memory and are
// turned into spans and written out when the run ends.

// maxCalls bounds the db call records one run keeps; calls beyond it are
// counted in recorder.dropped and left out of the per-layer figures.
const maxCalls = 1 << 20

// recorder owns the traced run's clock and switch.
type recorder struct {
	epoch   time.Time
	on      atomic.Bool
	dropped atomic.Int64
	calls   atomic.Int64
	conns   []*tracedConn
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// now is nanoseconds since the recorder's epoch, on the monotonic clock.
func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// reqRec is one HTTP request seen by a client.
type reqRec struct {
	start, end int64
	key        string
}

// callRec is one db.Conn or db.Stmt call seen by the decorator.
type callRec struct {
	group      uint64 // the server-side request the call belongs to
	start, end int64
	key        string // first string argument: the request's key
	spans      [obs.NumSpans]int64
}

// tracedConn is the timing decorator: it forwards every call unchanged and,
// while the recorder is on, records the call's duration and server spans.
// One tracedConn wraps one pooled worker's connection, so its calls are
// sequential; calls made with the same context are one request's statements.
type tracedConn struct {
	inner  db.Conn
	rec    *recorder
	worker uint64
	cur    context.Context // held so a later request cannot reuse its address
	group  uint64
	seq    uint64
	calls  []callRec
}

func (r *recorder) wrap(inner db.Conn) *tracedConn {
	c := &tracedConn{inner: inner, rec: r, worker: uint64(len(r.conns) + 1)}
	r.conns = append(r.conns, c)
	return c
}

func (c *tracedConn) record(ctx context.Context, args []storage.Value, start int64, res *db.Result) {
	end := c.rec.now()
	if ctx == nil || ctx != c.cur {
		c.seq++
		c.group = c.worker<<40 | c.seq
		c.cur = ctx
	}
	if c.rec.calls.Add(1) > maxCalls {
		c.rec.dropped.Add(1)
		return
	}
	cr := callRec{group: c.group, start: start, end: end}
	for _, a := range args {
		if a.Kind == storage.KindString {
			cr.key = a.S
			break
		}
	}
	if res != nil {
		cr.spans = res.Trace.Spans
	}
	c.calls = append(c.calls, cr)
}

func (c *tracedConn) Exec(sql string, args ...storage.Value) (*db.Result, error) {
	if !c.rec.on.Load() {
		return c.inner.Exec(sql, args...)
	}
	start := c.rec.now()
	res, err := c.inner.Exec(sql, args...)
	c.record(nil, args, start, res)
	return res, err
}

func (c *tracedConn) ExecContext(ctx context.Context, sql string, args ...storage.Value) (*db.Result, error) {
	if !c.rec.on.Load() {
		return c.inner.ExecContext(ctx, sql, args...)
	}
	start := c.rec.now()
	res, err := c.inner.ExecContext(ctx, sql, args...)
	c.record(ctx, args, start, res)
	return res, err
}

func (c *tracedConn) Prepare(sql string) (db.Stmt, error) {
	st, err := c.inner.Prepare(sql)
	if err != nil {
		return nil, err
	}
	return &tracedStmt{inner: st, conn: c}, nil
}

func (c *tracedConn) Close() error { return c.inner.Close() }

type tracedStmt struct {
	inner db.Stmt
	conn  *tracedConn
}

func (s *tracedStmt) Exec(args ...storage.Value) (*db.Result, error) {
	if !s.conn.rec.on.Load() {
		return s.inner.Exec(args...)
	}
	start := s.conn.rec.now()
	res, err := s.inner.Exec(args...)
	s.conn.record(nil, args, start, res)
	return res, err
}

func (s *tracedStmt) ExecContext(ctx context.Context, args ...storage.Value) (*db.Result, error) {
	if !s.conn.rec.on.Load() {
		return s.inner.ExecContext(ctx, args...)
	}
	start := s.conn.rec.now()
	res, err := s.inner.ExecContext(ctx, args...)
	s.conn.record(ctx, args, start, res)
	return res, err
}

func (s *tracedStmt) Close() error { return s.inner.Close() }

// span is one timed interval of the traced run.
type span struct {
	id, parent uint64 // parent 0: a root span
	req        uint64 // the request span's id, shared by the whole tree
	name       string
	start, end int64
}

// reqGroup is the set of db calls one server-side request made.
type reqGroup struct {
	start, end int64
	key        string
	calls      []*callRec
	req        int // index of the matched client request, or -1
}

// groupCalls collects the decorator's records into server-side requests, in
// start order.
func groupCalls(conns []*tracedConn) []*reqGroup {
	var groups []*reqGroup
	for _, c := range conns {
		var g *reqGroup
		for i := range c.calls {
			cr := &c.calls[i]
			if g == nil || cr.group != g.calls[0].group {
				g = &reqGroup{start: cr.start, req: -1}
				groups = append(groups, g)
			}
			g.calls = append(g.calls, cr)
			g.end = cr.end
			if g.key == "" {
				g.key = cr.key
			}
		}
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i].start < groups[j].start })
	return groups
}

// matchRequests links each server-side request to the client request that
// caused it: the client request must enclose it in time. reqs must be sorted
// by start.
func matchRequests(reqs []reqRec, groups []*reqGroup) {
	taken := make([]bool, len(reqs))
	lo := 0
	for _, g := range groups {
		for lo < len(reqs) && (taken[lo] || reqs[lo].end < g.start) {
			lo++
		}
		pick := -1
		for i := lo; i < len(reqs) && reqs[i].start <= g.start; i++ {
			if taken[i] || reqs[i].end < g.end {
				continue
			}
			// Prefer a request with the same key, then the first to end:
			// a request returns moments after its server side is done.
			same, pickSame := reqs[i].key == g.key, pick >= 0 && reqs[pick].key == g.key
			if pick < 0 || (same && !pickSame) || (same == pickSame && reqs[i].end < reqs[pick].end) {
				pick = i
			}
		}
		if pick >= 0 {
			taken[pick] = true
			g.req = pick
		}
	}
}

// buildSpans turns the records into the span tree: request → db call →
// parse, exec → lock_wait, commit → commit stages, with the WAL append (and
// its fsync) under the wait for durability.
// Server spans carry durations only, so they are laid out back to back from
// their parent's start; their placement inside the parent is nominal.
func buildSpans(reqs []reqRec, groups []*reqGroup) []span {
	out := make([]span, 0, len(reqs)*2)
	next := uint64(0)
	add := func(parent, req uint64, name string, start, end int64) uint64 {
		next++
		out = append(out, span{id: next, parent: parent, req: req, name: name, start: start, end: end})
		return next
	}
	reqSpan := make([]uint64, len(reqs))
	for i, r := range reqs {
		reqSpan[i] = add(0, 0, "request", r.start, r.end)
		out[len(out)-1].req = reqSpan[i]
	}
	for _, g := range groups {
		parent, req := uint64(0), uint64(0)
		if g.req >= 0 {
			parent, req = reqSpan[g.req], reqSpan[g.req]
		}
		for _, c := range g.calls {
			id := add(parent, req, "db", c.start, c.end)
			if req == 0 {
				req = id
				out[len(out)-1].req = id
			}
			sp := func(s obs.SpanID) int64 { return c.spans[s] }
			t := c.start
			if d := sp(obs.SpanParse); d > 0 {
				add(id, req, "parse", t, t+d)
				t += d
			}
			if d := sp(obs.SpanExec); d > 0 {
				exec := add(id, req, "exec", t, t+d)
				if lw := sp(obs.SpanLockWait); lw > 0 {
					add(exec, req, "lock_wait", t, t+lw)
				}
				if cd := sp(obs.SpanCommit); cd > 0 {
					cs := t + d - cd
					commit := add(exec, req, "commit", cs, t+d)
					for _, s := range []obs.SpanID{obs.SpanCommitValidate, obs.SpanCommitQueue,
						obs.SpanCommitFsyncWait, obs.SpanCommitInstall} {
						if sd := sp(s); sd > 0 {
							stage := add(commit, req, s.String(), cs, cs+sd)
							// The log writer's append covers its fsync, and
							// both happen while the commit waits for them.
							if wd := sp(obs.SpanWALAppend); s == obs.SpanCommitFsyncWait && wd > 0 {
								app := add(stage, req, obs.SpanWALAppend.String(), cs, cs+wd)
								if fd := sp(obs.SpanWALFsync); fd > 0 {
									add(app, req, obs.SpanWALFsync.String(), cs+wd-fd, cs+wd)
								}
							}
							cs += sd
						}
					}
				}
			}
		}
	}
	return out
}

// writeSpans writes one tab-separated line per span, after a header naming
// the columns. Times are nanoseconds since the run's trace epoch.
func writeSpans(w io.Writer, header string, spans []span) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# %s\n# id\tparent\treq\tname\tstart_ns\tend_ns\n", header)
	for _, s := range spans {
		fmt.Fprintf(bw, "%d\t%d\t%d\t%s\t%d\t%d\n", s.id, s.parent, s.req, s.name, s.start, s.end)
	}
	return bw.Flush()
}

// selfTime is a span's duration minus the part of it its children cover.
// Children of one span never overlap here, so their durations add.
func selfTime(spans []span) map[string]int64 {
	child := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		if s.parent != 0 {
			child[s.parent] += s.end - s.start
		}
	}
	self := map[string]int64{}
	for _, s := range spans {
		self[s.name] += s.end - s.start - child[s.id]
	}
	return self
}
