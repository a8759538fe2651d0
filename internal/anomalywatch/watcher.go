// Package anomalywatch is the live half of the isolation story: a streaming,
// sampled, windowed Adya checker an operator can leave on in production.
//
// The offline checker (internal/histcheck) proves anomalies after the fact on
// complete recorded histories. This package consumes the same histcheck.Event
// stream incrementally: the storage engine samples transactions (seeded
// probabilistic rate plus always-sample-on-conflict escalation) and offers
// their events into a bounded lock-free ring; a single checker goroutine
// drains the ring into a histcheck.Graph, the same incremental dependency
// graph the offline checker builds, and evicts closed transactions from it in
// FIFO order to keep a sliding window. Findings (G0, G1a, G1b, G1c, G-single,
// G2-item) therefore come from the one graph and classifier the offline
// checker uses. The commit path never blocks on the checker: a full ring
// sheds the event and counts the shed.
//
// What a windowed checker can and cannot prove: a cycle wholly contained in
// the window (all participants still resident when its last edge forms) is
// detected exactly as the offline checker would. A cycle that straddles the
// eviction horizon is not detectable — eviction of a transaction that still
// carries dependency state increments the window_truncated counter, so "zero
// anomalies, zero truncations" is a real certificate for the sampled
// subgraph, while "zero anomalies, some truncations" only bounds where an
// anomaly could hide. With a sample rate below 1, dependencies between a
// sampled and an unsampled transaction are invisible; conflict escalation
// exists to pull the transactions most likely to participate in a cycle into
// the sample.
package anomalywatch

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"feralcc/internal/histcheck"
)

// Config configures a Watcher. The zero value of every field gets a sane
// default from withDefaults; a zero SampleRate means no transaction is
// sampled by rate (conflict escalation still arms).
type Config struct {
	// SampleRate is the seeded probability a transaction's events enter the
	// window; >= 1 samples everything.
	SampleRate float64
	// Seed makes the sampling decision deterministic per transaction id.
	Seed uint64
	// WindowTxns bounds how many closed (committed or aborted) transactions
	// the sliding window retains. Default 4096.
	WindowTxns int
	// RingSize bounds the producer ring (rounded up to a power of two).
	// Default 16384 entries.
	RingSize int
	// EscalationBudget is how many subsequent transactions are sampled at
	// 100% after a conflict abort. Default 64.
	EscalationBudget int
	// MaxWitnesses bounds the retained witness ring served on /anomalies.
	// Default 32.
	MaxWitnesses int
	// MaxTxEvents caps the per-transaction event buffer kept for witness
	// projection. Default 256.
	MaxTxEvents int
	// OnFinding, when non-nil, is called from the checker goroutine for every
	// newly detected anomaly.
	OnFinding func(Witness)
}

func (c Config) withDefaults() Config {
	if c.WindowTxns <= 0 {
		c.WindowTxns = 4096
	}
	if c.RingSize <= 0 {
		c.RingSize = 16384
	}
	if c.EscalationBudget <= 0 {
		c.EscalationBudget = 64
	}
	if c.MaxWitnesses <= 0 {
		c.MaxWitnesses = 32
	}
	if c.MaxTxEvents <= 0 {
		c.MaxTxEvents = 256
	}
	return c
}

// Witness is one detected anomaly with enough context to replay it: the
// participants, their isolation levels and trace IDs, the human-readable
// cycle, and the projection of the participants' events — a self-contained
// sub-history feralcheck can re-verify.
type Witness struct {
	Anomaly   histcheck.Anomaly
	Forbidden bool
	Txs       []uint64
	Levels    []string
	// Traces are the distinct non-zero statement trace IDs observed across
	// the participants' events, linking the witness back to spans and
	// slow-query log lines.
	Traces []uint64
	// Cycle is the printable evidence, e.g. "T5 --rw[...]--> T9 --ww[...]--> T5".
	Cycle string
	// Truncated marks that a participant's event buffer overflowed
	// MaxTxEvents, so Events is incomplete.
	Truncated bool
	// Events is the participants' event projection in checker order.
	Events []histcheck.Event
}

// Stats is a point-in-time snapshot of the watcher's counters.
type Stats struct {
	Events      uint64 // events accepted into the ring
	Shed        uint64 // events dropped at a full ring
	Sampled     uint64 // transactions selected for live checking
	Escalations uint64 // transactions sampled by conflict escalation
	WindowTxns  int    // transactions currently resident in the window
	Evictions   uint64
	Truncated   uint64 // evictions that discarded live dependency state
	// Retargets counts rw edges re-pointed after an out-of-order install
	// revealed a closer successor. Engine feeds install in commit order, so
	// this stays zero; nonzero means intermediate detection ran over edges the
	// final graph does not contain, and exact-parity consumers should stand
	// down.
	Retargets uint64
	Anomalies map[histcheck.Anomaly]uint64
	Forbidden uint64
	Almost    int // near-miss count at the last refresh
}

// txBuf is the watcher's own record of one resident transaction: its event
// buffer for witness projection and the intake counters its caps need.
type txBuf struct {
	events          []histcheck.Event
	eventsTruncated bool
	reads           int // item reads forwarded to the graph
	closed          bool
}

// Watcher is the live checker: lock-free producers, one consumer goroutine.
type Watcher struct {
	cfg       Config
	threshold uint64 // sampling threshold over the splitmix64 hash space

	escalate atomic.Int64 // remaining conflict-escalation budget
	ring     *ring
	notify   chan struct{}
	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once

	enqueued  atomic.Uint64
	processed atomic.Uint64
	syncReq   atomic.Uint64
	syncAck   atomic.Uint64

	stShed        atomic.Uint64
	stSampled     atomic.Uint64
	stEscalations atomic.Uint64
	stRetargets   atomic.Uint64

	// Consumer-private state: only the checker goroutine touches these.
	seq         uint64
	graph       *histcheck.Graph
	txs         map[uint64]*txBuf // the window's resident transactions
	closed      []uint64          // FIFO of closed transaction ids awaiting eviction
	findKeys    map[string]struct{}
	sinceAlmost int
	// bufEvents counts events currently buffered across all window
	// transactions — a bound on the reads one almost-cycle scan walks — so
	// the refresh cadence can stay a fixed fraction of the scan it pays for.
	bufEvents int

	// mu guards the cross-goroutine snapshot the consumer publishes.
	mu          sync.Mutex
	witnesses   []Witness
	anomalies   map[histcheck.Anomaly]uint64
	forbidden   uint64
	windowSize  int
	evictions   uint64
	truncations uint64
	almost      int
}

// New starts a watcher and its checker goroutine.
func New(cfg Config) *Watcher {
	cfg = cfg.withDefaults()
	w := &Watcher{
		cfg:       cfg,
		ring:      newRing(cfg.RingSize),
		notify:    make(chan struct{}, 1),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
		graph:     histcheck.NewGraph(),
		txs:       make(map[uint64]*txBuf),
		findKeys:  make(map[string]struct{}),
		anomalies: make(map[histcheck.Anomaly]uint64),
	}
	switch {
	case cfg.SampleRate >= 1:
		w.threshold = ^uint64(0)
	case cfg.SampleRate > 0:
		w.threshold = uint64(cfg.SampleRate * float64(^uint64(0)))
	}
	go w.loop()
	return w
}

// splitmix64 is the standard SplitMix64 finalizer; the package carries its
// own copy so the sampling decision has no dependency beyond the stdlib.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// SampleTx decides whether the transaction with this id is live-checked:
// first against the conflict-escalation budget, then against the seeded hash
// of the id. The decision is per-transaction and all-or-nothing, so sampled
// transactions contribute complete event sequences.
func (w *Watcher) SampleTx(id uint64) bool {
	if w == nil {
		return false
	}
	for {
		v := w.escalate.Load()
		if v <= 0 {
			break
		}
		if w.escalate.CompareAndSwap(v, v-1) {
			mEscalations.Inc()
			mSampled.Inc()
			w.stEscalations.Add(1)
			w.stSampled.Add(1)
			return true
		}
	}
	if w.threshold == 0 {
		return false
	}
	if w.threshold == ^uint64(0) || splitmix64(w.cfg.Seed^id) <= w.threshold {
		mSampled.Inc()
		w.stSampled.Add(1)
		return true
	}
	return false
}

// NoteConflict arms the escalation budget: the next EscalationBudget
// transactions are sampled unconditionally. Conflict aborts mark exactly the
// contention cycles most likely to produce anomalies, so the sampler chases
// them even at low base rates.
func (w *Watcher) NoteConflict() {
	if w == nil {
		return
	}
	budget := int64(w.cfg.EscalationBudget)
	for {
		v := w.escalate.Load()
		if v >= budget {
			return
		}
		if w.escalate.CompareAndSwap(v, budget) {
			return
		}
	}
}

// Offer feeds one event of a sampled transaction to the checker. It never
// blocks: a full ring drops the event and counts the shed. Returns whether
// the event was accepted.
func (w *Watcher) Offer(e histcheck.Event) bool {
	if w == nil {
		return false
	}
	if !w.ring.offer(entry{ev: e, at: time.Now().UnixNano()}) {
		mShed.Inc()
		w.stShed.Add(1)
		return false
	}
	w.enqueued.Add(1)
	mEvents.Inc()
	select {
	case w.notify <- struct{}{}:
	default:
	}
	return true
}

// Drain blocks until every event accepted so far has been processed and the
// derived gauges (almost-cycles, window size) refreshed. Test hook; callers
// must have stopped producing.
func (w *Watcher) Drain() {
	target := w.enqueued.Load()
	for w.processed.Load() < target {
		time.Sleep(100 * time.Microsecond)
	}
	req := w.syncReq.Add(1)
	for w.syncAck.Load() < req {
		select {
		case w.notify <- struct{}{}:
		default:
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// Stop terminates the checker goroutine after draining the ring. Idempotent.
func (w *Watcher) Stop() {
	if w == nil {
		return
	}
	w.stopOnce.Do(func() { close(w.stop) })
	<-w.done
}

// The almost-cycle gauge is the one derived value whose recomputation walks
// every read in the window, so it runs on a self-amortizing
// cadence rather than per drain: only once almostRefreshEvery events have
// arrived (almostRefreshForce under sustained load, without waiting for the
// ring to empty) AND the new events amount to at least 1/almostRefreshCost
// of the scan they trigger. The scan's cost is thus always amortized over a
// proportional number of events, keeping overhead a constant fraction no
// matter how large the window grows; the price is a gauge that can lag by
// up to a quarter of the window's buffered events. Sync points (Drain, Stop)
// always recompute, so observers that quiesce first read exact values.
const (
	almostRefreshEvery = 256
	almostRefreshForce = 4096
	almostRefreshCost  = 4
)

func (w *Watcher) loop() {
	defer close(w.done)
	dirty := false
	for {
		e, ok := w.ring.poll()
		if !ok {
			if dirty {
				// A drained ring republishes the cheap window gauge every
				// time, but the almost-cycle scan walks every read in the
				// window — rerunning it per drain turns a lightly
				// loaded checker quadratic. Amortize it on an event cadence;
				// the sync path below still forces an exact refresh, so
				// Drain() observers never see a stale gauge.
				w.publishWindow()
				if w.sinceAlmost >= almostRefreshEvery && w.sinceAlmost*almostRefreshCost >= w.bufEvents {
					w.refreshDerived()
				}
				dirty = false
			}
			if sr := w.syncReq.Load(); sr != w.syncAck.Load() {
				w.refreshDerived()
				w.syncAck.Store(sr)
			}
			select {
			case <-w.notify:
				continue
			case <-w.stop:
				for {
					e, ok := w.ring.poll()
					if !ok {
						break
					}
					w.handle(e)
					w.processed.Add(1)
					mProcessed.Inc()
				}
				w.refreshDerived()
				if sr := w.syncReq.Load(); sr != w.syncAck.Load() {
					w.syncAck.Store(sr)
				}
				return
			}
		}
		w.handle(e)
		dirty = true
		w.sinceAlmost++
		if w.sinceAlmost >= almostRefreshForce && w.sinceAlmost*almostRefreshCost >= w.bufEvents {
			w.refreshDerived()
		}
		w.processed.Add(1)
		mProcessed.Inc()
	}
}

// ---- consumer side ----

func (w *Watcher) handle(en entry) {
	if en.at != 0 {
		if lag := time.Now().UnixNano() - en.at; lag > 0 {
			mCheckerLag.Observe(time.Duration(lag))
		}
	}
	e := en.ev
	w.seq++
	e.Seq = w.seq
	t := w.txs[e.Tx]
	if t == nil {
		t = &txBuf{events: make([]histcheck.Event, 0, 8)}
		w.txs[e.Tx] = t
	}
	if len(t.events) < w.cfg.MaxTxEvents {
		t.events = append(t.events, e)
		w.bufEvents++
	} else {
		t.eventsTruncated = true
	}
	if e.Kind == histcheck.KindRead && !e.Own && e.Observed != 0 {
		if t.reads >= w.cfg.MaxTxEvents {
			return
		}
		t.reads++
	}
	w.graph.Add(e)
	if e.Kind != histcheck.KindCommit && e.Kind != histcheck.KindAbort {
		return
	}
	if d := w.graph.Retargets() - w.stRetargets.Load(); d > 0 {
		mRetargets.Add(d)
		w.stRetargets.Add(d)
	}
	w.detect()
	w.closeTx(e.Tx, t)
}

// detect reports the graph's new findings. The graph reports each G1a/G1b
// once; cyclic findings are re-derived whenever their component grows, so
// they are deduplicated here on (class, participants).
func (w *Watcher) detect() {
	for _, f := range w.graph.Findings() {
		if f.Anomaly != histcheck.G1a && f.Anomaly != histcheck.G1b {
			ids := append([]uint64(nil), f.Txs...)
			sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
			key := string(f.Anomaly)
			for _, id := range ids {
				key += fmt.Sprintf("|%d", id)
			}
			if _, dup := w.findKeys[key]; dup {
				continue
			}
			w.noteFindKey(key)
		}
		w.report(f)
	}
}

// noteFindKey records a finding dedup key. Transaction ids never recur, so a
// full clear at the bound can re-report at most the currently-resident
// cycles once.
func (w *Watcher) noteFindKey(key string) {
	if len(w.findKeys) > 16384 {
		w.findKeys = make(map[string]struct{})
	}
	w.findKeys[key] = struct{}{}
}

// report updates the counters for one finding, publishes its witness, and
// fires the callback.
func (w *Watcher) report(f histcheck.Finding) {
	countFinding(f)
	wit := w.buildWitness(f)
	w.mu.Lock()
	w.anomalies[f.Anomaly]++
	if f.Forbidden {
		w.forbidden++
	}
	w.witnesses = append(w.witnesses, wit)
	if len(w.witnesses) > w.cfg.MaxWitnesses {
		w.witnesses = append(w.witnesses[:0], w.witnesses[len(w.witnesses)-w.cfg.MaxWitnesses:]...)
	}
	w.mu.Unlock()
	if w.cfg.OnFinding != nil {
		w.cfg.OnFinding(wit)
	}
}

// buildWitness projects the participants' buffered events into a
// self-contained, replayable sub-history.
func (w *Watcher) buildWitness(f histcheck.Finding) Witness {
	wit := Witness{
		Anomaly:   f.Anomaly,
		Forbidden: f.Forbidden,
		Txs:       append([]uint64(nil), f.Txs...),
		Levels:    append([]string(nil), f.Levels...),
		Cycle:     f.Witness,
	}
	seen := make(map[uint64]struct{}, len(f.Txs))
	traces := make(map[uint64]struct{})
	for _, id := range f.Txs {
		if _, dup := seen[id]; dup {
			continue
		}
		seen[id] = struct{}{}
		t := w.txs[id]
		if t == nil {
			wit.Truncated = true
			continue
		}
		if t.eventsTruncated {
			wit.Truncated = true
		}
		wit.Events = append(wit.Events, t.events...)
		for _, e := range t.events {
			if e.Trace != 0 {
				traces[e.Trace] = struct{}{}
			}
		}
	}
	sort.Slice(wit.Events, func(i, j int) bool { return wit.Events[i].Seq < wit.Events[j].Seq })
	for tr := range traces {
		wit.Traces = append(wit.Traces, tr)
	}
	sort.Slice(wit.Traces, func(i, j int) bool { return wit.Traces[i] < wit.Traces[j] })
	return wit
}

// closeTx moves a finished transaction into the eviction FIFO and evicts
// beyond the window bound.
func (w *Watcher) closeTx(id uint64, t *txBuf) {
	if t.closed {
		return
	}
	t.closed = true
	w.closed = append(w.closed, id)
	for len(w.closed) > w.cfg.WindowTxns {
		id := w.closed[0]
		w.closed = w.closed[1:]
		w.evict(id)
	}
	w.publishWindow()
}

// evict drops one closed transaction from the graph and the window. If it
// still carried dependency state, a cycle through it can no longer be
// detected, and window_truncated counts the loss.
func (w *Watcher) evict(id uint64) {
	t := w.txs[id]
	if t == nil {
		return
	}
	truncated := w.graph.Evict(id)
	mEvictions.Inc()
	if truncated {
		mTruncated.Inc()
	}
	w.mu.Lock()
	w.evictions++
	if truncated {
		w.truncations++
	}
	w.mu.Unlock()
	w.bufEvents -= len(t.events)
	delete(w.txs, id)
}

func (w *Watcher) publishWindow() {
	n := len(w.txs)
	mWindowTxns.Set(int64(n))
	w.mu.Lock()
	w.windowSize = n
	w.mu.Unlock()
}

// refreshDerived recomputes the almost-cycle gauge from the window's graph
// (the near-miss pressure signal feralhunt steers by, exported for operators)
// and republishes the window gauge. It walks every read in the window, so the
// loop runs it on the almostRefresh* cadence and at sync points, never per
// event.
func (w *Watcher) refreshDerived() {
	w.sinceAlmost = 0
	n := len(w.graph.AlmostCycles())
	mAlmostCycles.Set(int64(n))
	w.mu.Lock()
	w.almost = n
	w.mu.Unlock()
	w.publishWindow()
}

// ---- cross-goroutine read API ----

// Stats returns a snapshot of the watcher's counters.
func (w *Watcher) Stats() Stats {
	if w == nil {
		return Stats{}
	}
	s := Stats{
		Events:      w.enqueued.Load(),
		Shed:        w.stShed.Load(),
		Sampled:     w.stSampled.Load(),
		Escalations: w.stEscalations.Load(),
		Retargets:   w.stRetargets.Load(),
		Anomalies:   make(map[histcheck.Anomaly]uint64),
	}
	w.mu.Lock()
	s.WindowTxns = w.windowSize
	s.Evictions = w.evictions
	s.Truncated = w.truncations
	s.Forbidden = w.forbidden
	s.Almost = w.almost
	for a, n := range w.anomalies {
		s.Anomalies[a] = n
	}
	w.mu.Unlock()
	return s
}

// Witnesses returns a copy of the retained witness ring, oldest first.
func (w *Watcher) Witnesses() []Witness {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]Witness, len(w.witnesses))
	copy(out, w.witnesses)
	return out
}

// Classes returns the distinct anomaly classes detected so far, sorted.
func (w *Watcher) Classes() []histcheck.Anomaly {
	s := w.Stats()
	out := make([]histcheck.Anomaly, 0, len(s.Anomalies))
	for a := range s.Anomalies {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
