package histcheck

import (
	"fmt"
	"sort"
	"strings"
)

// Anomaly names one Adya phenomenon the checker detects.
type Anomaly string

const (
	// G0 (write cycle): a cycle of only ww edges. Proscribed at every level.
	G0 Anomaly = "G0"
	// G1a (aborted read): a committed transaction read a version installed
	// by a transaction that aborted.
	G1a Anomaly = "G1a"
	// G1b (intermediate read): a committed transaction read a version that
	// was not the writer's final write to that item.
	G1b Anomaly = "G1b"
	// G1c (circular information flow): a cycle of ww and wr edges with at
	// least one wr edge.
	G1c Anomaly = "G1c"
	// GSingle (single anti-dependency cycle): a cycle with exactly one rw
	// edge — Lost Update is the canonical instance. Proscribed by snapshot
	// isolation and above.
	GSingle Anomaly = "G-single"
	// G2Item (item anti-dependency cycle): a cycle with two or more rw
	// edges over item reads — Write Skew is the canonical instance.
	// Proscribed only by serializability.
	G2Item Anomaly = "G2-item"
)

// Allowed returns the anomaly classes an isolation level admits, keyed by
// the level names storage.IsolationLevel.String() produces. The sets encode
// this engine's ladder (see internal/storage/iso.go): READ COMMITTED and
// REPEATABLE READ write last-writer-wins, so both admit Lost Update
// (G-single) and Write Skew (G2-item); SNAPSHOT ISOLATION adds
// first-committer-wins, which removes G-single but keeps G2-item; the two
// serializable levels admit nothing. G0 and G1 are forbidden everywhere —
// the MVCC engine must never exhibit them at any level, which is what makes
// the checker an engine-correctness oracle and not just an anomaly census.
func Allowed(level string) map[Anomaly]bool {
	switch strings.ToUpper(strings.TrimSpace(level)) {
	case "READ COMMITTED", "REPEATABLE READ":
		return map[Anomaly]bool{GSingle: true, G2Item: true}
	case "SNAPSHOT ISOLATION", "SNAPSHOT":
		return map[Anomaly]bool{G2Item: true}
	default:
		// SERIALIZABLE, SERIALIZABLE 2PL, and anything unknown: strict.
		return map[Anomaly]bool{}
	}
}

// Finding is one detected anomaly with its participating transactions and a
// human-readable witness (the dependency cycle, or the offending read).
type Finding struct {
	Anomaly Anomaly
	// Txs are the participating committed transactions, in cycle order for
	// the cyclic phenomena.
	Txs []uint64
	// Levels are the isolation levels of Txs, index-aligned.
	Levels []string
	// Witness is the printable evidence, e.g.
	// "T5 --rw[users r3: read v2, overwritten by v7]--> T9 --ww[...]--> T5".
	Witness string
	// Forbidden reports whether any participating transaction ran at a
	// level that proscribes this anomaly class.
	Forbidden bool
}

// Report is the checker's verdict over one history.
type Report struct {
	Transactions int
	Committed    int
	Aborted      int
	// Levels are the distinct isolation levels seen, sorted.
	Levels []string
	// Edges counts direct-serialization-graph edges by kind.
	Edges map[string]int
	// Findings are the detected anomalies, forbidden ones first.
	Findings []Finding
}

// Pass reports whether every detected anomaly is admitted by the isolation
// levels of the transactions it involves.
func (r *Report) Pass() bool {
	for _, f := range r.Findings {
		if f.Forbidden {
			return false
		}
	}
	return true
}

// Has reports whether an anomaly class was detected at all.
func (r *Report) Has(a Anomaly) bool {
	for _, f := range r.Findings {
		if f.Anomaly == a {
			return true
		}
	}
	return false
}

// Classes returns the distinct anomaly classes detected, sorted.
func (r *Report) Classes() []Anomaly {
	seen := map[Anomaly]bool{}
	for _, f := range r.Findings {
		seen[f.Anomaly] = true
	}
	out := make([]Anomaly, 0, len(seen))
	for a := range seen {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// String renders the report: a one-line summary, then one line per finding.
func (r *Report) String() string {
	var b strings.Builder
	verdict := "PASS"
	if !r.Pass() {
		verdict = "FAIL"
	}
	fmt.Fprintf(&b, "%s: %d txs (%d committed, %d aborted), levels %s, edges ww=%d wr=%d rw=%d",
		verdict, r.Transactions, r.Committed, r.Aborted,
		strings.Join(r.Levels, "/"), r.Edges["ww"], r.Edges["wr"], r.Edges["rw"])
	if len(r.Findings) == 0 {
		b.WriteString(", no anomalies")
		return b.String()
	}
	for _, f := range r.Findings {
		status := "admitted"
		if f.Forbidden {
			status = "FORBIDDEN"
		}
		fmt.Fprintf(&b, "\n  %s (%s): %s", f.Anomaly, status, f.Witness)
	}
	return b.String()
}

// edgeKind labels a direct-serialization-graph edge.
type edgeKind uint8

const (
	edgeWW edgeKind = iota // Ti installed a version, Tj installed its successor
	edgeWR                 // Ti installed a version Tj read
	edgeRW                 // Ti read a version whose successor Tj installed
)

func (k edgeKind) String() string {
	switch k {
	case edgeWW:
		return "ww"
	case edgeWR:
		return "wr"
	default:
		return "rw"
	}
}

// edge is one graph edge. Its label is kept as fields and formatted only for
// a reported witness: ww links version v1 of row to v2, wr is a read of v1,
// and rw a read of v1 overwritten by v2.
type edge struct {
	from, to uint64
	kind     edgeKind
	refs     int32 // justifications still holding the edge
	row      rowKey
	v1, v2   uint64
}

// label renders the edge's witness label, e.g. "users r3: v2->v7".
func (e edge) label() string {
	switch e.kind {
	case edgeWW:
		return fmt.Sprintf("%s: v%d->v%d", e.row, e.v1, e.v2)
	case edgeWR:
		return fmt.Sprintf("%s: T%d installed v%d, read by T%d", e.row, e.from, e.v1, e.to)
	default:
		return fmt.Sprintf("%s: read v%d, overwritten by v%d", e.row, e.v1, e.v2)
	}
}

// maxWitnessesPerClass bounds how many findings of one anomaly class a
// single strongly connected component contributes, so pathological histories
// stay readable. Presence/absence per class is still exact.
const maxWitnessesPerClass = 2

// Check builds the direct serialization graph for a history and returns the
// anomalies it contains: it feeds every event to a Graph in Seq order, never
// evicts, and asks for the findings once. Transactions with no commit or abort
// event (still in flight when the history was captured) add no edges, and
// neither do their writes.
func Check(events []Event) *Report {
	g := NewGraph()
	g.addAll(events)
	rep := &Report{Findings: g.Findings()}
	g.report(rep)
	sort.SliceStable(rep.Findings, func(i, j int) bool {
		return rep.Findings[i].Forbidden && !rep.Findings[j].Forbidden
	})
	return rep
}

// cycles detects the cyclic phenomena (G0, G1c, G-single, G2-item) in every
// strongly connected component that holds a dirty transaction, returns one
// finding per witness, bounded per class and component, and clears the dirty
// set.
func (g *Graph) cycles() []Finding {
	comps := g.sccs(g.dirty)
	for _, id := range g.dirty {
		if t := g.txs[id]; t != nil {
			t.dirty = false
		}
	}
	g.dirty = g.dirty[:0]

	var out []Finding
	for _, comp := range comps {
		in := make(map[uint64]bool, len(comp))
		for _, n := range comp {
			in[n] = true
		}
		member := func(e edge) bool { return in[e.to] }

		counts := map[Anomaly]int{}
		record := func(a Anomaly, cycle []edge) {
			if counts[a] >= maxWitnessesPerClass {
				return
			}
			counts[a]++
			f := Finding{Anomaly: a, Witness: formatCycle(cycle)}
			for _, e := range cycle {
				f.Txs = append(f.Txs, e.from)
				f.Levels = append(f.Levels, g.txs[e.from].level)
			}
			out = append(out, f)
		}

		// G0: a cycle of only ww edges.
		for _, n := range comp {
			if counts[G0] >= maxWitnessesPerClass {
				break
			}
			for _, e := range g.txs[n].out {
				if e.kind != edgeWW || !member(e) {
					continue
				}
				if path := g.shortestPath(e.to, e.from, in, func(x edge) bool { return x.kind == edgeWW }); path != nil {
					record(G0, append([]edge{e}, path...))
					break
				}
			}
		}
		// G1c: a ww/wr cycle through at least one wr edge.
		for _, n := range comp {
			if counts[G1c] >= maxWitnessesPerClass {
				break
			}
			for _, e := range g.txs[n].out {
				if e.kind != edgeWR || !member(e) {
					continue
				}
				if path := g.shortestPath(e.to, e.from, in, func(x edge) bool { return x.kind != edgeRW }); path != nil {
					record(G1c, append([]edge{e}, path...))
					break
				}
			}
		}
		// G-single vs G2-item: for every rw edge inside the component, a
		// ww/wr return path closes a cycle with exactly one anti-dependency
		// (G-single), and a return path crossing another rw edge closes one
		// with at least two (G2-item). Both are checked independently — the
		// same rw edge can participate in cycles of both classes, and the live
		// checker detects on growing edge sets, so class presence must be
		// monotone under edge addition for the two verdicts to agree.
		for _, n := range comp {
			if counts[GSingle] >= maxWitnessesPerClass && counts[G2Item] >= maxWitnessesPerClass {
				break
			}
			for _, e := range g.txs[n].out {
				if e.kind != edgeRW || !member(e) {
					continue
				}
				if path := g.shortestPath(e.to, e.from, in, func(x edge) bool { return x.kind != edgeRW }); path != nil {
					record(GSingle, append([]edge{e}, path...))
				}
				if path := g.rwReturnPath(e.to, e.from, in); path != nil {
					record(G2Item, append([]edge{e}, path...))
				}
				if counts[GSingle] >= maxWitnessesPerClass && counts[G2Item] >= maxWitnessesPerClass {
					break
				}
			}
		}
	}
	return out
}

// shortestPath returns the edges of a shortest path from src to dst using
// only edges admitted by ok, restricted to nodes with in[node], or nil.
func (g *Graph) shortestPath(src, dst uint64, in map[uint64]bool, ok func(edge) bool) []edge {
	if src == dst {
		return []edge{}
	}
	parent := map[uint64]edge{}
	visited := map[uint64]bool{src: true}
	queue := []uint64{src}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, e := range g.txs[n].out {
			if !ok(e) || !in[e.to] || visited[e.to] {
				continue
			}
			visited[e.to] = true
			parent[e.to] = e
			if e.to == dst {
				var path []edge
				for at := dst; at != src; {
					pe := parent[at]
					path = append([]edge{pe}, path...)
					at = pe.from
				}
				return path
			}
			queue = append(queue, e.to)
		}
	}
	return nil
}

// rwReturnPath returns the edges of a shortest path from src to dst that
// crosses at least one rw edge, restricted to nodes with in[node] and never
// extending through dst. Prepending the rw edge dst->src closes a cycle
// carrying two or more anti-dependencies (G2-item) even when an rw-free
// return path also exists (that one the G-single branch reports separately).
// The search runs over (node, crossed-an-rw) states, so a node may be visited
// once per flag value.
func (g *Graph) rwReturnPath(src, dst uint64, in map[uint64]bool) []edge {
	if src == dst {
		return nil
	}
	type state struct {
		node uint64
		rw   bool
	}
	start := state{node: src}
	parentS := map[state]state{}
	parentE := map[state]edge{}
	visited := map[state]bool{start: true}
	queue := []state{start}
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		if s.node == dst {
			continue // the destination terminates a path, never extends one
		}
		for _, e := range g.txs[s.node].out {
			if !in[e.to] {
				continue
			}
			ns := state{node: e.to, rw: s.rw || e.kind == edgeRW}
			if visited[ns] {
				continue
			}
			visited[ns] = true
			parentS[ns] = s
			parentE[ns] = e
			if e.to == dst && ns.rw {
				var path []edge
				for at := ns; at != start; at = parentS[at] {
					path = append([]edge{parentE[at]}, path...)
				}
				return path
			}
			queue = append(queue, ns)
		}
	}
	return nil
}

// formatCycle renders a cycle as "T1 --kind[label]--> T2 --...--> T1".
func formatCycle(cycle []edge) string {
	var b strings.Builder
	for _, e := range cycle {
		fmt.Fprintf(&b, "T%d --%s[%s]--> ", e.from, e.kind, e.label())
	}
	fmt.Fprintf(&b, "T%d", cycle[0].from)
	return b.String()
}

type tarjanFrame struct {
	t  *txInfo
	ei int
}

// sccs returns the strongly connected components of two or more
// transactions that hold a dirty transaction, searching only what the roots
// reach: a component's members all reach each other, so one holding a root
// is found whole. The Tarjan walk is iterative, so long dependency chains
// cannot overflow the goroutine stack, and keeps its per-node state on
// txInfo under a fresh epoch.
func (g *Graph) sccs(roots []uint64) [][]uint64 {
	g.epoch++
	epoch := g.epoch
	next := 0
	stack, frames := g.stack[:0], g.frames[:0]
	var comps [][]uint64
	push := func(t *txInfo) {
		t.visit, t.index, t.low, t.onStack = epoch, next, next, true
		next++
		stack = append(stack, t)
		frames = append(frames, tarjanFrame{t: t})
	}
	for _, id := range roots {
		if r := g.txs[id]; r != nil && r.visit != epoch {
			push(r)
		}
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.ei < len(f.t.out) {
				to := g.txs[f.t.out[f.ei].to]
				f.ei++
				if to.visit != epoch {
					push(to)
				} else if to.onStack && to.index < f.t.low {
					f.t.low = to.index
				}
				continue
			}
			// Node finished: pop, propagate lowlink, maybe emit component.
			n := f.t
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				if p := frames[len(frames)-1].t; n.low < p.low {
					p.low = n.low
				}
			}
			if n.low != n.index {
				continue
			}
			i := len(stack) - 1
			for stack[i] != n {
				i--
			}
			members, dirty := stack[i:], false
			for _, m := range members {
				m.onStack = false
				dirty = dirty || m.dirty
			}
			if len(members) > 1 && dirty {
				comp := make([]uint64, len(members))
				for j, m := range members {
					comp[j] = m.id
				}
				comps = append(comps, comp)
			}
			clear(members)
			stack = stack[:i]
		}
	}
	g.stack, g.frames = stack[:0], frames[:0]
	return comps
}
