package obs

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"
)

// SpanID indexes one timed phase of a statement's execution inside a
// StmtTrace. Spans are fixed at compile time so a trace is a flat value
// struct — no maps, no allocation on the execution path.
type SpanID uint8

const (
	// SpanParse covers SQL parsing and name resolution (a plan-cache miss).
	SpanParse SpanID = iota
	// SpanExec covers the whole statement execution, end to end.
	SpanExec
	// SpanLockWait accumulates time spent queued for row/predicate locks.
	SpanLockWait
	// SpanCommit covers Tx.Commit: validation, WAL append, and install.
	SpanCommit
	// SpanWALAppend covers the write-ahead log append (including the
	// synchronous fsync under SyncAlways).
	SpanWALAppend
	// SpanWALFsync covers the fsync itself.
	SpanWALFsync
	// SpanCommitValidate covers commit-pipeline validation: latch waits,
	// conflict checks, constraint verification, and conflict-retry loops.
	SpanCommitValidate
	// SpanCommitQueue covers time a commit record spent queued before a
	// group-commit leader took it into a batch.
	SpanCommitQueue
	// SpanCommitFsyncWait covers time parked waiting for the batch holding
	// this commit's record to become durable.
	SpanCommitFsyncWait
	// SpanCommitInstall covers waiting for the commit's CSN install turn plus
	// installing its versions.
	SpanCommitInstall
	// NumSpans sizes the span array.
	NumSpans
)

var spanNames = [NumSpans]string{
	SpanParse:           "parse",
	SpanExec:            "exec",
	SpanLockWait:        "lock_wait",
	SpanCommit:          "commit",
	SpanWALAppend:       "wal_append",
	SpanWALFsync:        "wal_fsync",
	SpanCommitValidate:  "commit_validate",
	SpanCommitQueue:     "commit_enqueue",
	SpanCommitFsyncWait: "commit_fsync_wait",
	SpanCommitInstall:   "commit_install",
}

// String returns the span's wire/log name.
func (s SpanID) String() string {
	if s < NumSpans {
		return spanNames[s]
	}
	return fmt.Sprintf("span(%d)", uint8(s))
}

// StmtTrace is the per-statement trace record: an ID minted at the client
// (or lazily by the executor for untraced callers), a plan-cache verdict,
// and cumulative nanoseconds per span. It is carried by value inside the
// executor session and by pointer down into storage, so tracing a statement
// allocates nothing.
type StmtTrace struct {
	ID       uint64
	CacheHit bool
	Spans    [NumSpans]int64 // cumulative nanoseconds per span
}

// Reset clears the trace and stamps a new ID.
func (t *StmtTrace) Reset(id uint64) {
	*t = StmtTrace{ID: id}
}

// Add accumulates d into span s. Safe on a nil trace so storage-layer call
// sites need no branches.
func (t *StmtTrace) Add(s SpanID, d time.Duration) {
	if t == nil || d < 0 {
		return
	}
	t.Spans[s] += int64(d)
}

// Span returns the accumulated duration of span s.
func (t *StmtTrace) Span(s SpanID) time.Duration {
	return time.Duration(t.Spans[s])
}

// String renders the trace as one structured log fragment: the ID, the cache
// verdict, and every non-zero span with its duration. This is the slow-query
// log format.
func (t *StmtTrace) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace=%016x cache_hit=%v", t.ID, t.CacheHit)
	for s := SpanID(0); s < NumSpans; s++ {
		if t.Spans[s] != 0 {
			fmt.Fprintf(&b, " %s=%v", spanNames[s], time.Duration(t.Spans[s]))
		}
	}
	return b.String()
}

var (
	traceSeq  atomic.Uint64
	traceBase uint64
)

func init() {
	// Derive the per-process base from the monotonic clock so IDs from
	// successive runs of the same binary differ; within a process the
	// sequence guarantees uniqueness (mix64 is a bijection).
	traceBase = mix64(uint64(time.Now().UnixNano()))
}

// NewTraceID mints a process-unique, non-zero statement trace ID.
func NewTraceID() uint64 {
	id := mix64(traceBase + traceSeq.Add(1))
	if id == 0 {
		id = 1
	}
	return id
}
