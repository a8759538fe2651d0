package storage

import (
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"feralcc/internal/obs"
)

// The commit pipeline replaces the old global commitMu critical section with
// three stages:
//
//	validate ──▶ group-commit WAL ──▶ ordered install
//
// Validation runs under fine-grained per-table latches (the FK-connected
// component of the transaction's write tables), so commits touching disjoint
// table groups validate concurrently. A transaction that validates cleanly
// registers a commit intent stamped with the next commit sequence number
// (CSN), then its WAL record joins the group-commit queue. Group commit is
// leader/follower and runs on the committing goroutines themselves, the
// scheme of MySQL's binlog group commit and PostgreSQL's commit batching: a
// committer that finds no leader active leads, writing every queued record
// as one frame with one fsync, while committers that arrive meanwhile wait
// as followers for their batch. Uncontended, a commit writes and syncs its
// own frame inline. Finally versions are installed strictly in CSN order —
// the clock publishes CSNs densely, so readers, histcheck's install-order
// serialization graph, and recovery's committed-prefix replay observe
// exactly the history a one-commit-at-a-time engine would have produced.
//
// Lock ordering: gate ≺ catalogMu ≺ registry mu ≺ activeMu, and table latches
// are acquired in sorted name order. groupMu and then wal.mu are leaves: no
// other lock is taken under them.
type commitPipeline struct {
	db *Database

	// gate is the quiesce barrier. Commits hold it shared from validation
	// through install; Checkpoint, Vacuum, AddIndex, AddForeignKey and
	// CheckIntegrity take it exclusively, which drains the pipeline (every
	// registered intent resolves before the exclusive holder proceeds).
	gate sync.RWMutex

	// Per-table validation/install latches, created on demand, and the
	// latch set of each table's FK-connected component, cached for the
	// schema epoch compEpoch.
	latchMu   sync.Mutex
	latches   map[string]*sync.Mutex
	comps     map[string]latchSet
	compEpoch uint64

	// Intent registry. csn is the last assigned sequence number, installed
	// the last resolved one; every CSN in between is a pending intent that
	// will install (or consume its turn aborting) in order. pending holds
	// them in CSN order: intents resolve strictly in order, so the oldest is
	// always pending[0].
	mu        sync.Mutex
	cond      *sync.Cond // broadcast when installed advances, for conflict waits
	csn       uint64
	installed uint64
	pending   []*commitIntent
	npending  atomic.Int64 // len(pending), readable without mu

	// Group commit. groupMu guards queue (records waiting for a leader),
	// spare (the recycled batch buffer), leading, lastBatch (the size of the
	// last frame), and the done flag of every queued record.
	groupMu   sync.Mutex
	queue     []*walRecord
	spare     []*walRecord
	leading   bool
	lastBatch int

	// Fsync-amortization bookkeeping for the fsyncs-per-commit gauge.
	groupFsyncs uint64 // atomic
	groupTxns   uint64 // atomic

	// queueDepth counts records queued and not yet durable (mirrors
	// mCommitQueueDepth as a readable value); submit sheds against
	// Options.CommitQueueBound using it.
	queueDepth int64 // atomic
}

// commitIntent is a validated-but-not-yet-installed commit. Its summary is
// the same footprint recorded for serializable certification; later
// validators test their own footprints against it and, when they overlap,
// wait for its CSN to resolve.
type commitIntent struct {
	csn     uint64
	summary *txSummary
	turn    sync.Cond // signaled when csn-1 resolves; L is the registry mu
}

// commitState is the pipeline state of one writing commit: its intent and its
// log record. Committers borrow it from commitStates for the length of the
// commit, so the commit path allocates neither and transactions that never
// commit carry neither.
type commitState struct {
	intent commitIntent
	rec    walRecord
}

var commitStates = sync.Pool{New: func() any { return new(commitState) }}

// release clears the state, dropping its references into the finished
// commit, and returns it to the pool. By then the intent has left the
// pending set and the record every group-commit queue and batch.
func (cs *commitState) release() {
	cs.intent = commitIntent{}
	cs.rec = walRecord{}
	commitStates.Put(cs)
}

// latchSet is the sorted latch list of one FK-connected table component.
type latchSet []*sync.Mutex

func newCommitPipeline(db *Database) *commitPipeline {
	p := &commitPipeline{
		db:      db,
		latches: make(map[string]*sync.Mutex),
		comps:   make(map[string]latchSet),
	}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// setBase aligns the CSN allocator with the recovered clock, so the first
// post-recovery commit continues the dense timestamp sequence.
func (p *commitPipeline) setBase(clock uint64) {
	p.mu.Lock()
	p.csn = clock
	p.installed = clock
	p.mu.Unlock()
}

// latchFor returns the latch set for a commit: the transaction's write
// tables plus every table reachable over foreign-key edges in either
// direction. Cascade expansion only ever adds writes within this component,
// and FK/unique probes only consult tables in it, so holding these latches
// makes validation and install mutually atomic per component. AddForeignKey
// runs under the exclusive gate, so the edge set cannot change while any
// commit is in flight. A single-table write set — the common case — reuses
// its table's cached component.
func (p *commitPipeline) latchFor(writes map[string]map[RowID]*txWrite) latchSet {
	if len(writes) != 1 {
		s, _ := p.buildLatchSet(writes)
		return s
	}
	var table string
	for lower := range writes {
		table = lower
	}
	epoch := p.db.SchemaEpoch()
	p.latchMu.Lock()
	s, ok := p.comps[table]
	fresh := p.compEpoch == epoch
	p.latchMu.Unlock()
	if ok && fresh {
		return s
	}
	s, epoch = p.buildLatchSet(writes)
	p.latchMu.Lock()
	if p.compEpoch != epoch {
		clear(p.comps)
		p.compEpoch = epoch
	}
	p.comps[table] = s
	p.latchMu.Unlock()
	return s
}

// buildLatchSet walks the FK graph from the write tables and returns the
// component's latches in sorted name order, with the schema epoch the walk
// observed.
func (p *commitPipeline) buildLatchSet(writes map[string]map[RowID]*txWrite) (latchSet, uint64) {
	db := p.db
	db.catalogMu.RLock()
	epoch := db.SchemaEpoch()
	seen := make(map[string]struct{}, len(writes)+2)
	queue := make([]string, 0, len(writes)+2)
	for lower := range writes {
		if _, dup := seen[lower]; !dup {
			seen[lower] = struct{}{}
			queue = append(queue, lower)
		}
	}
	for len(queue) > 0 {
		name := queue[0]
		queue = queue[1:]
		if t := db.tables[name]; t != nil {
			for _, fk := range t.schema.ForeignKeys {
				parent := strings.ToLower(fk.ParentTable)
				if _, dup := seen[parent]; !dup {
					seen[parent] = struct{}{}
					queue = append(queue, parent)
				}
			}
		}
		for _, e := range db.childFKs[name] {
			if _, dup := seen[e.childTable]; !dup {
				seen[e.childTable] = struct{}{}
				queue = append(queue, e.childTable)
			}
		}
	}
	db.catalogMu.RUnlock()
	names := make([]string, 0, len(seen))
	for name := range seen {
		names = append(names, name)
	}
	sort.Strings(names)
	s := make(latchSet, len(names))
	p.latchMu.Lock()
	for i, name := range names {
		m := p.latches[name]
		if m == nil {
			m = new(sync.Mutex)
			p.latches[name] = m
		}
		s[i] = m
	}
	p.latchMu.Unlock()
	return s, epoch
}

// latch acquires a latch set in its sorted order.
func (p *commitPipeline) latch(s latchSet) {
	y := p.db.opts.Yielder
	for _, m := range s {
		if y != nil {
			// Under the scheduler the single baton makes latch contention
			// impossible between scheduled tasks (no yield point sits inside a
			// latched section), but an unscheduled goroutine could still hold
			// one — spin via ParkExternal rather than block.
			for !m.TryLock() {
				y.ParkExternal(ParkLatch)
			}
		} else {
			m.Lock()
		}
	}
}

// unlatch releases a latch set in reverse acquisition order.
func (p *commitPipeline) unlatch(s latchSet) {
	for i := len(s) - 1; i >= 0; i-- {
		s[i].Unlock()
	}
}

// gateLock and gateRLock acquire the quiesce gate, parking instead of blocking
// when a scheduler is attached: an exclusive holder may be an unscheduled
// goroutine (Checkpoint, Vacuum, DDL from setup code), and a blocked scheduled
// task would otherwise freeze the baton.
func (p *commitPipeline) gateLock() {
	if y := p.db.opts.Yielder; y != nil {
		for !p.gate.TryLock() {
			y.ParkExternal(ParkGate)
		}
		return
	}
	p.gate.Lock()
}

func (p *commitPipeline) gateRLock() {
	if y := p.db.opts.Yielder; y != nil {
		for !p.gate.TryRLock() {
			y.ParkExternal(ParkGate)
		}
		return
	}
	p.gate.RLock()
}

// hasPending reports whether any commit intent is registered and unresolved.
// Validation records its probes only when one is: a commit's latches keep
// every other intent of its component from registering until it has
// registered itself, and intents of other components cannot overlap its
// probes, so with no intent pending the probes could never conflict.
func (p *commitPipeline) hasPending() bool {
	return p.npending.Load() > 0
}

// register decides a validated transaction's fate against the in-flight
// intents. The transaction's footprint is asymmetric on purpose: its row side
// is its written rows plus certified row reads, but its predicate side is
// only the targeted probes validation performed (unique keys, FK parents,
// cascade children) plus certified predicate reads — never the full
// column-value fan-out of its writes, which would serialize every pair of
// same-table writers through shared keys like the table tag. Intent summaries
// carry the full write fan-out, so any probe or read that a pending install
// could invalidate does overlap.
//
// Outcomes: a conflict with pending intents returns the highest conflicting
// CSN (the caller waits for it to resolve and revalidates); a serializable
// certification failure returns the error; otherwise the next CSN is assigned
// and in filled and registered, and the result is 0. Certification runs here,
// under the registry lock, because an installing commit publishes its summary
// (recordCommit) before leaving the pending set: any summary missed by this
// scan is still pending and caught by the footprint check.
func (p *commitPipeline) register(tx *Tx, summary *txSummary, in *commitIntent) (uint64, error) {
	rows := summary.rowKeys
	preds := tx.probes
	p.mu.Lock()
	defer p.mu.Unlock()
	var wait uint64
	for _, other := range p.pending {
		if other.csn > wait && intentConflicts(other, rows, tx.readRows, preds, tx.readPreds) {
			wait = other.csn
		}
	}
	if wait > 0 {
		return wait, nil
	}
	if tx.level.certifiesReads() {
		if err := tx.certify(); err != nil {
			return 0, err
		}
	}
	p.csn++
	summary.commitTS = p.csn
	*in = commitIntent{csn: p.csn, summary: summary, turn: sync.Cond{L: &p.mu}}
	p.pending = append(p.pending, in)
	p.npending.Add(1)
	return 0, nil
}

// intentConflicts reports whether a pending intent's write footprint overlaps
// the registering transaction's rows (writes + row reads) or predicates
// (validation probes + predicate reads).
func intentConflicts(in *commitIntent, rows, readRows, probes, readPreds map[string]struct{}) bool {
	for k := range rows {
		if _, hit := in.summary.rowKeys[k]; hit {
			return true
		}
	}
	for k := range readRows {
		if _, hit := in.summary.rowKeys[k]; hit {
			return true
		}
	}
	for k := range probes {
		if _, hit := in.summary.predKeys[k]; hit {
			return true
		}
	}
	for k := range readPreds {
		if _, hit := in.summary.predKeys[k]; hit {
			return true
		}
	}
	return false
}

// awaitInstalled blocks until every CSN up to csn has installed or aborted.
// CSNs resolve strictly in order, so this waits out a conflicting intent.
func (p *commitPipeline) awaitInstalled(csn uint64) {
	p.mu.Lock()
	for p.installed < csn {
		p.cond.Wait()
	}
	p.mu.Unlock()
}

// awaitTurn blocks until every CSN before in's has installed or aborted.
func (p *commitPipeline) awaitTurn(in *commitIntent) {
	csn := in.csn
	if y := p.db.opts.Yielder; y != nil {
		// Scheduler mode: poll-and-park instead of cond.Wait, so the earlier
		// CSN's holder can be granted the baton to take its turn. Not
		// victim-eligible — an assigned CSN always resolves.
		for {
			p.mu.Lock()
			ready := p.installed == csn-1
			p.mu.Unlock()
			if ready {
				return
			}
			_ = y.Park(ParkTurn, false)
		}
	}
	p.mu.Lock()
	for p.installed != csn-1 {
		in.turn.Wait()
	}
	p.mu.Unlock()
}

// finish resolves an intent: it leaves the pending set, the install watermark
// advances, the next CSN's committer is handed its turn, and conflict
// waiters are released. Caller must have consumed the intent's install turn
// (awaitTurn) first, so in is the oldest pending intent.
func (p *commitPipeline) finish(in *commitIntent) {
	p.mu.Lock()
	n := copy(p.pending, p.pending[1:])
	p.pending[n] = nil
	p.pending = p.pending[:n]
	p.npending.Add(-1)
	p.installed = in.csn
	if n > 0 {
		p.pending[0].turn.Signal()
	}
	p.cond.Broadcast()
	p.mu.Unlock()
}

// abortIntent consumes an assigned CSN without installing anything (WAL
// append/fsync failure after registration). The turn must still be taken so
// later CSNs do not stall.
func (p *commitPipeline) abortIntent(in *commitIntent) {
	p.awaitTurn(in)
	p.finish(in)
}

// maxGroupBatch bounds transactions per group-commit frame, keeping frames
// comfortably under walMaxRecord and p99 fsync-wait latency bounded.
const maxGroupBatch = 128

// submit is the group-commit WAL stage: it queues rec and returns once the
// frame carrying it is durable per the sync policy, with that frame's
// outcome. The wal.append fault point fires first, for this record alone; a
// fault never queues it. With a CommitQueueBound set, a record that would
// push the queue past the bound is shed with ErrOverloaded instead: the
// caller's commit fails exactly like a WAL-stage fault (nothing installed,
// nothing acknowledged, CSN turn consumed by abortIntent), and the
// retry-after hint scales with the depth the queue had reached.
//
// Leader election follows queueing; under the scheduler the wal.append yield
// point sits between them, so committers that reach it before a leader takes
// the queue share that leader's frame. A committer that finds no leader active leads until its own
// record is durable; one that finds a leader waits as a follower and, if its
// record is still queued when leadership is handed off, takes over.
func (p *commitPipeline) submit(rec *walRecord) error {
	db := p.db
	depth := atomic.AddInt64(&p.queueDepth, 1)
	if b := db.opts.CommitQueueBound; b != 0 && (b < 0 || depth > int64(b)) {
		atomic.AddInt64(&p.queueDepth, -1)
		mCommitSheds.Inc()
		return &OverloadError{
			Reason:     "commit queue full",
			RetryAfter: overloadRetryAfter(time.Duration(depth) * 100 * time.Microsecond),
		}
	}
	if err := db.wal.fault("wal.append"); err != nil {
		atomic.AddInt64(&p.queueDepth, -1)
		return err
	}
	mCommitQueueDepth.Inc()
	rec.wake.L = &p.groupMu
	rec.enqueued = time.Now()
	p.groupMu.Lock()
	rec.done = false
	p.queue = append(p.queue, rec)
	if db.opts.Yielder != nil {
		p.groupMu.Unlock()
		db.yield(YieldWALAppend)
		p.groupMu.Lock()
	}
	for !rec.done && p.leading {
		if y := db.opts.Yielder; y != nil {
			// The leader is a scheduled task; park until it makes progress.
			p.groupMu.Unlock()
			_ = y.Park(ParkFsyncWait, false)
			p.groupMu.Lock()
			continue
		}
		rec.wake.Wait()
	}
	if !rec.done {
		p.lead(rec)
	}
	err := rec.err
	p.groupMu.Unlock()
	return err
}

// lead runs the caller as group-commit leader until its own record is
// durable: each round takes up to maxGroupBatch records from the head of the
// queue, writes them as one frame without holding groupMu (followers keep
// queueing meanwhile), and wakes the batch's followers. Leadership then
// passes to the follower at the head of the queue, so the leader goes on to
// its install turn instead of writing for commits ordered after its own.
// Caller holds groupMu, which is held again on return.
func (p *commitPipeline) lead(own *walRecord) {
	p.leading = true
	for !own.done {
		p.linger()
		n := min(len(p.queue), maxGroupBatch)
		batch := append(p.spare[:0], p.queue[:n]...)
		rest := copy(p.queue, p.queue[n:])
		clear(p.queue[rest:])
		p.queue = p.queue[:rest]
		p.spare = nil
		p.groupMu.Unlock()
		p.writeBatch(batch)
		p.groupMu.Lock()
		for _, r := range batch {
			r.done = true
			r.wake.Signal()
		}
		p.lastBatch = len(batch)
		clear(batch)
		p.spare = batch[:0]
	}
	p.leading = false
	if len(p.queue) > 0 {
		p.queue[0].wake.Signal()
	}
}

// linger holds a contended fsyncing frame open for committers about to
// queue: it yields the processor until two consecutive yields bring no new
// record or the batch is full. Committers released by the previous frame are
// then one install away from their next record, so without the wait the
// frames would alternate between those stragglers and everyone else. It runs
// only under SyncAlways, where the fsync is the cost worth sharing, and only
// when the last frame or the queue shows a peer: a lone committer never
// waits. Under the scheduler the leader holds the baton and nobody else can
// queue, so it never lingers there. Caller holds groupMu.
func (p *commitPipeline) linger() {
	if p.db.wal.policy != SyncAlways || p.db.opts.Yielder != nil {
		return
	}
	if p.lastBatch < 2 && len(p.queue) < 2 {
		return
	}
	for idle := 0; idle < 2 && len(p.queue) < maxGroupBatch; {
		n := len(p.queue)
		p.groupMu.Unlock()
		runtime.Gosched()
		p.groupMu.Lock()
		if len(p.queue) == n {
			idle++
		} else {
			idle = 0
		}
	}
}

// writeBatch appends one batch as a single WAL frame and records each
// record's outcome, queue-wait and write spans, and the group-commit metrics.
// Everything is settled before lead marks the batch done, so released
// followers observe fully written traces.
func (p *commitPipeline) writeBatch(batch []*walRecord) {
	w := p.db.wal
	now := time.Now()
	for _, r := range batch {
		r.tr.Add(obs.SpanCommitQueue, now.Sub(r.enqueued))
	}
	err := w.append(batch)
	wait := time.Since(now)
	for _, r := range batch {
		r.err = err
		r.tr.Add(obs.SpanCommitFsyncWait, wait)
	}
	mCommitQueueDepth.Add(-int64(len(batch)))
	atomic.AddInt64(&p.queueDepth, -int64(len(batch)))
	if err != nil {
		return
	}
	mGroupCommitFrames.Inc()
	mGroupCommitTxns.Add(uint64(len(batch)))
	mGroupCommitBatchTxns.Observe(time.Duration(len(batch)))
	txns := atomic.AddUint64(&p.groupTxns, uint64(len(batch)))
	var fsyncs uint64
	if w.policy == SyncAlways {
		fsyncs = atomic.AddUint64(&p.groupFsyncs, 1)
	} else {
		fsyncs = atomic.LoadUint64(&p.groupFsyncs)
	}
	mFsyncsPerCommitMilli.Set(int64(fsyncs * 1000 / txns))
}

// QuiesceCommits drains the commit pipeline and blocks new commits until the
// returned release function is called. Exposed for tests that need a point-in
// -time view of a concurrently loaded database.
func (db *Database) QuiesceCommits() (release func()) {
	db.pipe.gate.Lock()
	return db.pipe.gate.Unlock
}
