package histcheck

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strconv"
)

// Graph is a history's direct serialization graph, built one event at a time.
// It is the only graph builder in the repository: Check feeds it a whole
// history and never evicts, AlmostCycles reads its version order, and the
// live anomaly watcher (internal/anomalywatch) feeds it a sampled event stream
// and evicts closed transactions to keep a sliding window.
//
// The edges follow the version order as it grows. A committed install takes
// its place in its row's (version, seq) order. It adds ww edges to its
// neighbours, splitting the ww edge it lands between, and becomes the rw
// target of every tracked read it is now the closest successor of; when such
// a read already had a farther successor, that is a retarget. Reads resolve
// when their reader commits: a committed writer gives a wr edge (and G1b when
// the version was not its final write), an aborted writer gives G1a, and a
// still-open writer parks the read until it closes. A read resolves against
// the writers seen so far, so events must arrive in the order they were
// recorded: the engine records a write before its version becomes visible.
// Once a whole history is fed in Seq order, the edge set is the one batch
// construction over that history gives. That guarantee also assumes each
// version of a row has one writer, which holds for engine histories
// (versions are commit timestamps): the graph keys a version to its first
// writer.
//
// Edges are reference counted, one reference per justification (a row's ww
// adjacency, a tracked read, a resolved read), so a (from, to, kind) edge
// stays until its last justification is gone. A Graph is not safe for
// concurrent use.
type Graph struct {
	txs      map[uint64]*txInfo
	rows     map[rowKey]*rowState
	writerOf map[versionKey]uint64 // first writer of each version, any outcome
	// g1 holds the G1a/G1b findings made since the last Findings call; g1Seen
	// deduplicates them for as long as both participants are resident.
	g1     []Finding
	g1Seen map[g1Key]struct{}
	// dirty lists the sources of edges added since the last Findings call.
	// Every edge added at a commit touches the committing transaction, so any
	// new cycle runs through a dirty transaction.
	dirty     []uint64
	retargets uint64

	// Tarjan scratch, reused across Findings calls.
	epoch  uint32
	stack  []*txInfo
	frames []tarjanFrame
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{
		txs:      make(map[uint64]*txInfo),
		rows:     make(map[rowKey]*rowState),
		writerOf: make(map[versionKey]uint64),
	}
}

// rowKey names one item.
type rowKey struct {
	table string
	row   uint64
}

func (k rowKey) String() string { return k.table + " r" + strconv.FormatUint(k.row, 10) }

type versionKey struct {
	row     rowKey
	version uint64
}

type g1Key struct {
	anomaly        Anomaly
	reader, writer uint64
	row            rowKey
	observed       uint64
}

// txInfo is the graph's view of one transaction.
type txInfo struct {
	id        uint64
	level     string
	committed bool
	aborted   bool
	dirty     bool // listed in Graph.dirty

	reads  []readRec  // item reads that can give edges, in event order
	writes []writeRec // installed writes, in event order
	// deferred are reads by committed transactions that observed one of
	// this transaction's versions while its outcome was still unknown.
	deferred []deferredRead
	out      []edge   // one entry per distinct (to, kind)
	in       []uint64 // the source of every incoming edge
	// pending counts this transaction's tracked reads still awaiting a
	// successor install, and deferredOut its reads parked on open writers:
	// dependencies an eviction would lose.
	pending     int
	deferredOut int

	// Tarjan state, valid while visit equals the graph's epoch.
	visit      uint32
	index, low int
	onStack    bool

	readBuf  [1]readRec
	writeBuf [1]writeRec
}

type readRec struct {
	row      rowKey
	observed uint64
}

type writeRec struct {
	row     rowKey
	version uint64
	seq     uint64
}

type deferredRead struct {
	reader   uint64
	row      rowKey
	observed uint64
}

// install is one committed version of a row.
type install struct {
	version uint64
	tx      uint64
	seq     uint64
}

// before orders installs by version, then by the seq of their write event.
func (a install) before(b install) bool {
	if a.version != b.version {
		return a.version < b.version
	}
	return a.seq < b.seq
}

// rowState holds one row's committed installs in version order and its
// committed reads, tracked for rw-edge upkeep. A settled read has a successor
// that only an out-of-order install can move; an open read has none yet, or
// lost its successor to an eviction.
type rowState struct {
	installs      []install
	open, settled []trackedRead
	installBuf    [1]install
}

type trackedRead struct {
	tx       uint64
	observed uint64
	succ     install // succ.version == 0: no successor installed yet
}

// Add feeds one event. Writes with Version 0 were never installed and are
// ignored, as are reads of absent items and reads of the transaction's own
// buffered writes. A transaction's first commit or abort closes it; a second
// one is ignored.
func (g *Graph) Add(e Event) {
	t := g.tx(e.Tx)
	switch e.Kind {
	case KindBegin:
		t.level = e.Level
	case KindRead:
		if !e.Own && e.Observed != 0 {
			if t.reads == nil {
				t.reads = t.readBuf[:0]
			}
			t.reads = append(t.reads, readRec{row: rowKey{e.Table, e.Row}, observed: e.Observed})
		}
	case KindWrite:
		if e.Version == 0 {
			return
		}
		rk := rowKey{e.Table, e.Row}
		vk := versionKey{rk, e.Version}
		if _, dup := g.writerOf[vk]; !dup {
			g.writerOf[vk] = e.Tx
		}
		if t.writes == nil {
			t.writes = t.writeBuf[:0]
		}
		t.writes = append(t.writes, writeRec{row: rk, version: e.Version, seq: e.Seq})
	case KindCommit:
		if !t.committed && !t.aborted {
			g.commit(t)
		}
	case KindAbort:
		if !t.committed && !t.aborted {
			g.abort(t)
		}
	}
}

// addAll feeds a whole history in Seq order. Recorded histories are already
// in that order and are fed as they are. Joined witness blocks are not: a
// reader's commit can come before the write of the version it read, which
// would lose the wr edge. Those are fed in a stable Seq order instead,
// without touching the caller's slice.
func (g *Graph) addAll(events []Event) {
	sorted := true
	for i := 1; i < len(events) && sorted; i++ {
		sorted = events[i-1].Seq <= events[i].Seq
	}
	if sorted {
		for i := range events {
			g.Add(events[i])
		}
		return
	}
	order := make([]int, len(events))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(events[a].Seq, events[b].Seq) })
	for _, i := range order {
		g.Add(events[i])
	}
}

func (g *Graph) tx(id uint64) *txInfo {
	t := g.txs[id]
	if t == nil {
		t = &txInfo{id: id}
		g.txs[id] = t
	}
	return t
}

func (g *Graph) row(k rowKey) *rowState {
	r := g.rows[k]
	if r == nil {
		r = &rowState{}
		r.installs = r.installBuf[:0]
		g.rows[k] = r
	}
	return r
}

// commit installs the transaction's versions, resolves the reads parked on
// it, then resolves its own reads. Installs go first, so a read-modify-write
// finds its own install as the successor of what it read.
func (g *Graph) commit(t *txInfo) {
	t.committed = true
	for _, w := range t.writes {
		g.install(t, w)
	}
	for _, d := range t.deferred {
		if r := g.txs[d.reader]; r != nil {
			r.deferredOut--
			g.resolveWR(r, t, d.row, d.observed)
		}
	}
	t.deferred = nil
	for _, r := range t.reads {
		g.resolveRead(t, r)
	}
}

// abort turns the reads parked on the transaction into G1a findings. Its own
// reads give no edges: only committed readers enter the graph.
func (g *Graph) abort(t *txInfo) {
	t.aborted = true
	for _, d := range t.deferred {
		if r := g.txs[d.reader]; r != nil {
			r.deferredOut--
			g.noteG1(G1a, r, t, d.row, d.observed, 0)
		}
	}
	t.deferred = nil
}

// install places one committed version in its row's order, links it to its
// neighbours by ww edges, and moves the rw edge of every tracked read for
// which it is now the closest successor. Engine feeds install in commit
// order, so an install almost always lands last; the general insert keeps
// out-of-order histories exact.
func (g *Graph) install(t *txInfo, w writeRec) {
	r := g.row(w.row)
	rec := install{version: w.version, tx: t.id, seq: w.seq}
	idx := sort.Search(len(r.installs), func(i int) bool { return rec.before(r.installs[i]) })
	last := idx == len(r.installs)
	if idx > 0 && !last {
		g.removeEdge(r.installs[idx-1].tx, r.installs[idx].tx, edgeWW)
	}
	r.installs = append(r.installs, install{})
	copy(r.installs[idx+1:], r.installs[idx:])
	r.installs[idx] = rec
	if idx > 0 {
		a := r.installs[idx-1]
		g.addEdge(edge{from: a.tx, to: t.id, kind: edgeWW, row: w.row, v1: a.version, v2: rec.version})
	}
	if !last {
		b := r.installs[idx+1]
		g.addEdge(edge{from: t.id, to: b.tx, kind: edgeWW, row: w.row, v1: rec.version, v2: b.version})
		// Out of order: a settled read may now have a closer successor.
		for i := range r.settled {
			g.retarget(&r.settled[i], rec, w.row)
		}
	}
	kept := r.open[:0]
	for _, tr := range r.open {
		if g.retarget(&tr, rec, w.row) {
			r.settled = append(r.settled, tr)
		} else {
			kept = append(kept, tr)
		}
	}
	r.open = kept
}

// retarget points a tracked read's rw edge at rec when rec is a closer
// successor of the version it observed, and reports whether it did.
func (g *Graph) retarget(tr *trackedRead, rec install, row rowKey) bool {
	if tr.observed >= rec.version || (tr.succ.version != 0 && !rec.before(tr.succ)) {
		return false
	}
	if tr.succ.version != 0 {
		g.removeEdge(tr.tx, tr.succ.tx, edgeRW)
		g.retargets++
	} else {
		g.txs[tr.tx].pending--
	}
	tr.succ = rec
	g.addEdge(edge{from: tr.tx, to: rec.tx, kind: edgeRW, row: row, v1: tr.observed, v2: rec.version})
	return true
}

// resolveRead turns one committed read into its wr-side consequence (a wr
// edge, G1a, G1b, or a deferral on a still-open writer) and its rw-side one
// (an rw edge to the observed version's successor, or a tracked read waiting
// for one). A row with no installs yet still tracks the read, so a later
// install gives the rw edge.
func (g *Graph) resolveRead(t *txInfo, rr readRec) {
	if id, known := g.writerOf[versionKey{rr.row, rr.observed}]; known {
		switch w := g.txs[id]; {
		case w == nil:
			// Writer evicted between its install and this read.
		case w.aborted:
			g.noteG1(G1a, t, w, rr.row, rr.observed, 0)
		case w.committed:
			g.resolveWR(t, w, rr.row, rr.observed)
		default:
			w.deferred = append(w.deferred, deferredRead{reader: t.id, row: rr.row, observed: rr.observed})
			t.deferredOut++
		}
	}
	r := g.row(rr.row)
	tr := trackedRead{tx: t.id, observed: rr.observed}
	idx := sort.Search(len(r.installs), func(i int) bool { return r.installs[i].version > rr.observed })
	if idx == len(r.installs) {
		t.pending++
		r.open = append(r.open, tr)
		return
	}
	tr.succ = r.installs[idx]
	r.settled = append(r.settled, tr)
	g.addEdge(edge{from: t.id, to: tr.succ.tx, kind: edgeRW, row: rr.row, v1: rr.observed, v2: tr.succ.version})
}

// resolveWR adds the wr edge from a committed writer to a committed reader,
// with G1b when the observed version was not the writer's final write. A
// reader can be its own writer (an unmarked read of its own intermediate
// version): that is G1b too, and the self edge is dropped.
func (g *Graph) resolveWR(reader, writer *txInfo, row rowKey, observed uint64) {
	var final uint64
	for i := len(writer.writes) - 1; i >= 0; i-- {
		if writer.writes[i].row == row {
			final = writer.writes[i].version
			break
		}
	}
	if final != observed {
		g.noteG1(G1b, reader, writer, row, observed, final)
	}
	g.addEdge(edge{from: writer.id, to: reader.id, kind: edgeWR, row: row, v1: observed})
}

// noteG1 records a G1a or G1b finding once per (reader, writer, row, version).
func (g *Graph) noteG1(a Anomaly, reader, writer *txInfo, row rowKey, observed, final uint64) {
	k := g1Key{anomaly: a, reader: reader.id, writer: writer.id, row: row, observed: observed}
	if _, dup := g.g1Seen[k]; dup {
		return
	}
	if g.g1Seen == nil {
		g.g1Seen = make(map[g1Key]struct{})
	}
	g.g1Seen[k] = struct{}{}
	f := Finding{Anomaly: a, Txs: []uint64{reader.id, writer.id}, Levels: []string{reader.level, writer.level}}
	if a == G1a {
		f.Witness = fmt.Sprintf("T%d read %s v%d installed by aborted T%d", reader.id, row, observed, writer.id)
	} else {
		f.Witness = fmt.Sprintf("T%d read %s v%d, an intermediate write of T%d (final v%d)",
			reader.id, row, observed, writer.id, final)
	}
	g.g1 = append(g.g1, f)
}

// addEdge adds one reference to a (from, to, kind) edge; the first reference
// creates it with e's label fields. Self edges are dropped.
func (g *Graph) addEdge(e edge) {
	if e.from == e.to {
		return
	}
	from := g.txs[e.from]
	for i := range from.out {
		if o := &from.out[i]; o.to == e.to && o.kind == e.kind {
			o.refs++
			return
		}
	}
	e.refs = 1
	from.out = append(from.out, e)
	to := g.txs[e.to]
	to.in = append(to.in, e.from)
	if !from.dirty {
		from.dirty = true
		g.dirty = append(g.dirty, e.from)
	}
}

// removeEdge drops one reference to a (from, to, kind) edge and deletes the
// edge with its last reference.
func (g *Graph) removeEdge(from, to uint64, kind edgeKind) {
	if from == to {
		return
	}
	ft := g.txs[from]
	for i := range ft.out {
		o := &ft.out[i]
		if o.to != to || o.kind != kind {
			continue
		}
		if o.refs--; o.refs == 0 {
			ft.out = append(ft.out[:i], ft.out[i+1:]...)
			g.txs[to].in = dropOne(g.txs[to].in, from)
		}
		return
	}
}

// dropOne removes the first occurrence of id from ids.
func dropOne(ids []uint64, id uint64) []uint64 {
	for i, x := range ids {
		if x == id {
			return append(ids[:i], ids[i+1:]...)
		}
	}
	return ids
}

// Evict removes a closed transaction and every piece of graph state it
// anchors: its edges, installs, version writers and tracked reads. It
// reports whether the transaction still carried dependency state (edges,
// reads awaiting a successor, or reads parked on open writers), in which case
// a cycle through it can no longer be detected.
func (g *Graph) Evict(id uint64) (truncated bool) {
	t := g.txs[id]
	if t == nil {
		return false
	}
	truncated = len(t.out) > 0 || len(t.in) > 0 || t.pending > 0 || t.deferredOut > 0
	for _, e := range t.out {
		to := g.txs[e.to]
		to.in = dropOne(to.in, id)
	}
	for _, from := range t.in {
		ft := g.txs[from]
		kept := ft.out[:0]
		for _, e := range ft.out {
			if e.to != id {
				kept = append(kept, e)
			}
		}
		ft.out = kept
	}
	for _, w := range t.writes {
		if vk := (versionKey{w.row, w.version}); g.writerOf[vk] == id {
			delete(g.writerOf, vk)
		}
		r := g.rows[w.row]
		if r == nil {
			continue
		}
		installs := r.installs[:0]
		for _, in := range r.installs {
			if in.tx != id {
				installs = append(installs, in)
			}
		}
		r.installs = installs
		// Reads whose successor was evicted go back to open, so that an
		// out-of-order install below the lost successor still retargets them.
		settled := r.settled[:0]
		for _, tr := range r.settled {
			if tr.succ.tx == id {
				r.open = append(r.open, tr)
			} else {
				settled = append(settled, tr)
			}
		}
		r.settled = settled
		g.dropRowIfEmpty(w.row, r)
	}
	for _, rr := range t.reads {
		r := g.rows[rr.row]
		if r == nil {
			continue
		}
		r.open = dropReader(r.open, id)
		r.settled = dropReader(r.settled, id)
		g.dropRowIfEmpty(rr.row, r)
	}
	for k := range g.g1Seen {
		if k.reader == id || k.writer == id {
			delete(g.g1Seen, k)
		}
	}
	delete(g.txs, id)
	return truncated
}

func dropReader(trs []trackedRead, id uint64) []trackedRead {
	kept := trs[:0]
	for _, tr := range trs {
		if tr.tx != id {
			kept = append(kept, tr)
		}
	}
	return kept
}

func (g *Graph) dropRowIfEmpty(k rowKey, r *rowState) {
	if len(r.installs) == 0 && len(r.open) == 0 && len(r.settled) == 0 {
		delete(g.rows, k)
	}
}

// Retargets counts rw edges re-pointed after an out-of-order install revealed
// a closer successor. Engine feeds install in commit order, so it stays zero
// for them; nonzero means findings were made over edges the final graph may
// lack.
func (g *Graph) Retargets() uint64 { return g.retargets }

// Findings returns the G1a/G1b findings made since the previous call, then
// the cyclic findings (G0, G1c, G-single, G2-item) of every strongly
// connected component that gained an edge since the previous call, each with
// Forbidden set per Allowed. Feeding a whole history and calling Findings
// once yields every finding of the history.
func (g *Graph) Findings() []Finding {
	out := g.g1
	g.g1 = nil
	if len(g.dirty) > 0 {
		out = append(out, g.cycles()...)
	}
	for i := range out {
		f := &out[i]
		for _, lvl := range f.Levels {
			if !Allowed(lvl)[f.Anomaly] {
				f.Forbidden = true
				break
			}
		}
	}
	return out
}

// report fills the transaction, level and edge totals of rep.
func (g *Graph) report(rep *Report) {
	rep.Edges = map[string]int{"ww": 0, "wr": 0, "rw": 0}
	levels := map[string]bool{}
	for _, t := range g.txs {
		rep.Transactions++
		if t.committed {
			rep.Committed++
		}
		if t.aborted {
			rep.Aborted++
		}
		if t.level != "" && !levels[t.level] {
			levels[t.level] = true
			rep.Levels = append(rep.Levels, t.level)
		}
		for _, e := range t.out {
			rep.Edges[e.kind.String()]++
		}
	}
	sort.Strings(rep.Levels)
}
