package histcheck

// The reference checker: the batch construction Check and AlmostCycles used
// before both moved onto the incremental Graph, kept verbatim apart from the
// ref prefix on every identifier. It builds the whole version order first and
// derives every edge from it in one pass, so it shares no graph code with the
// incremental builder and serves as its independent oracle
// (TestGraphMatchesReference).

import (
	"fmt"
	"sort"
	"strings"
)

// refEdgeKind labels a direct-serialization-graph edge.
type refEdgeKind uint8

const (
	refWW refEdgeKind = iota // Ti installed a version, Tj installed its successor
	refWR                    // Ti installed a version Tj read
	refRW                    // Ti read a version whose successor Tj installed
)

func (k refEdgeKind) String() string {
	switch k {
	case refWW:
		return "ww"
	case refWR:
		return "wr"
	default:
		return "rw"
	}
}

type refEdge struct {
	from, to uint64
	kind     refEdgeKind
	label    string // e.g. "users r3: v2->v7"
}

// refTxInfo aggregates one transaction's events.
type refTxInfo struct {
	id        uint64
	level     string
	committed bool
	aborted   bool
}

// refInstall is one committed (or, in synthetic histories, dirty) version.
type refInstall struct {
	version uint64
	tx      uint64
	op      string
	seq     uint64
}

// refCheck builds the direct serialization graph for a history and returns the
// anomalies it contains. Transactions with no commit or abort event (still
// in flight when the history was captured) are ignored, as are their writes.
func refCheck(events []Event) *Report {
	txs := map[uint64]*refTxInfo{}
	get := func(id uint64) *refTxInfo {
		t := txs[id]
		if t == nil {
			t = &refTxInfo{id: id}
			txs[id] = t
		}
		return t
	}

	type rowVersions struct {
		installs []refInstall
	}
	rows := map[string]*rowVersions{}          // table\x00row -> committed installs
	writerOf := map[string]map[uint64]uint64{} // rowKey -> version -> writer tx (any outcome)
	// finalWrite tracks, per (tx, rowKey), the version of the tx's last
	// write event to that row — the value every other transaction is allowed
	// to read. Earlier versions are intermediate (G1b).
	finalWrite := map[uint64]map[string]uint64{}

	rowKey := func(e *Event) string { return e.Table + "\x00" + fmt.Sprint(e.Row) }

	for i := range events {
		e := &events[i]
		t := get(e.Tx)
		switch e.Kind {
		case KindBegin:
			t.level = e.Level
		case KindCommit:
			t.committed = true
		case KindAbort:
			t.aborted = true
		case KindWrite:
			if e.Version == 0 {
				continue // never installed (aborted in-engine); invisible
			}
			rk := rowKey(e)
			if writerOf[rk] == nil {
				writerOf[rk] = map[uint64]uint64{}
			}
			if _, dup := writerOf[rk][e.Version]; !dup {
				writerOf[rk][e.Version] = e.Tx
			}
			if finalWrite[e.Tx] == nil {
				finalWrite[e.Tx] = map[string]uint64{}
			}
			finalWrite[e.Tx][rk] = e.Version // later events overwrite: last wins
		}
	}

	// Committed installs define the version order per row.
	for i := range events {
		e := &events[i]
		if e.Kind != KindWrite || e.Version == 0 || !get(e.Tx).committed {
			continue
		}
		rk := rowKey(e)
		rv := rows[rk]
		if rv == nil {
			rv = &rowVersions{}
			rows[rk] = rv
		}
		rv.installs = append(rv.installs, refInstall{version: e.Version, tx: e.Tx, op: e.Op, seq: e.Seq})
	}
	for _, rv := range rows {
		sort.Slice(rv.installs, func(i, j int) bool {
			if rv.installs[i].version != rv.installs[j].version {
				return rv.installs[i].version < rv.installs[j].version
			}
			return rv.installs[i].seq < rv.installs[j].seq
		})
	}

	rep := &Report{Edges: map[string]int{"ww": 0, "wr": 0, "rw": 0}}
	levelSet := map[string]bool{}
	for _, t := range txs {
		rep.Transactions++
		if t.committed {
			rep.Committed++
		}
		if t.aborted {
			rep.Aborted++
		}
		if t.level != "" {
			levelSet[t.level] = true
		}
	}
	for l := range levelSet {
		rep.Levels = append(rep.Levels, l)
	}
	sort.Strings(rep.Levels)

	// Edge construction. Adjacency is deduplicated on (from, to, kind); the
	// first label wins, which keeps witnesses stable for a fixed history.
	adj := map[uint64][]refEdge{}
	seenEdge := map[[3]uint64]bool{}
	addEdge := func(from, to uint64, kind refEdgeKind, label string) {
		if from == to {
			return
		}
		k := [3]uint64{from, to, uint64(kind)}
		if seenEdge[k] {
			return
		}
		seenEdge[k] = true
		adj[from] = append(adj[from], refEdge{from: from, to: to, kind: kind, label: label})
		rep.Edges[kind.String()]++
	}
	prettyRow := func(rk string) string {
		parts := strings.SplitN(rk, "\x00", 2)
		if len(parts) == 2 {
			return parts[0] + " r" + parts[1]
		}
		return rk
	}

	// ww: consecutive committed versions of one row.
	for rk, rv := range rows {
		for i := 1; i < len(rv.installs); i++ {
			a, b := rv.installs[i-1], rv.installs[i]
			addEdge(a.tx, b.tx, refWW, fmt.Sprintf("%s: v%d->v%d", prettyRow(rk), a.version, b.version))
		}
	}

	// wr and rw from committed reads; G1a/G1b fall out of the same pass.
	var flat []Finding
	g1Seen := map[string]bool{} // dedup key for direct (non-cyclic) findings
	for i := range events {
		e := &events[i]
		if e.Kind != KindRead || e.Own || e.Observed == 0 {
			continue
		}
		reader := get(e.Tx)
		if !reader.committed {
			continue
		}
		rk := rowKey(e)
		writerID, known := uint64(0), false
		if m := writerOf[rk]; m != nil {
			writerID, known = m[e.Observed]
		}
		if known {
			w := get(writerID)
			switch {
			case w.aborted:
				key := fmt.Sprintf("G1a|%d|%d|%s|%d", e.Tx, writerID, rk, e.Observed)
				if !g1Seen[key] {
					g1Seen[key] = true
					flat = append(flat, Finding{
						Anomaly: G1a,
						Txs:     []uint64{e.Tx, writerID},
						Levels:  []string{reader.level, w.level},
						Witness: fmt.Sprintf("T%d read %s v%d installed by aborted T%d",
							e.Tx, prettyRow(rk), e.Observed, writerID),
					})
				}
			case w.committed:
				if final := finalWrite[writerID][rk]; final != e.Observed {
					key := fmt.Sprintf("G1b|%d|%d|%s|%d", e.Tx, writerID, rk, e.Observed)
					if !g1Seen[key] {
						g1Seen[key] = true
						flat = append(flat, Finding{
							Anomaly: G1b,
							Txs:     []uint64{e.Tx, writerID},
							Levels:  []string{reader.level, w.level},
							Witness: fmt.Sprintf("T%d read %s v%d, an intermediate write of T%d (final v%d)",
								e.Tx, prettyRow(rk), e.Observed, writerID, final),
						})
					}
				}
				addEdge(writerID, e.Tx, refWR,
					fmt.Sprintf("%s: T%d installed v%d, read by T%d", prettyRow(rk), writerID, e.Observed, e.Tx))
			}
		}
		// rw: the reader depends on the absence of the observed version's
		// committed successor.
		if rv := rows[rk]; rv != nil {
			idx := sort.Search(len(rv.installs), func(i int) bool {
				return rv.installs[i].version > e.Observed
			})
			if idx < len(rv.installs) {
				succ := rv.installs[idx]
				addEdge(e.Tx, succ.tx, refRW,
					fmt.Sprintf("%s: read v%d, overwritten by v%d", prettyRow(rk), e.Observed, succ.version))
			}
		}
	}

	cyclic := refFindCycles(adj, txs)
	rep.Findings = append(flat, cyclic...)
	for i := range rep.Findings {
		f := &rep.Findings[i]
		for _, lvl := range f.Levels {
			if !Allowed(lvl)[f.Anomaly] {
				f.Forbidden = true
				break
			}
		}
	}
	sort.SliceStable(rep.Findings, func(i, j int) bool {
		return rep.Findings[i].Forbidden && !rep.Findings[j].Forbidden
	})
	return rep
}

// refFindCycles detects the cyclic phenomena (G0, G1c, G-single, G2-item) and
// returns one finding per witness, bounded per class and strongly connected
// component.
func refFindCycles(adj map[uint64][]refEdge, txs map[uint64]*refTxInfo) []Finding {
	comps := refSCCs(adj)
	var out []Finding
	for _, comp := range comps {
		if len(comp) < 2 {
			continue // self-edges are never added, so singletons are acyclic
		}
		in := map[uint64]bool{}
		for _, n := range comp {
			in[n] = true
		}
		member := func(e refEdge) bool { return in[e.to] }

		counts := map[Anomaly]int{}
		record := func(a Anomaly, cycle []refEdge) {
			if counts[a] >= maxWitnessesPerClass {
				return
			}
			counts[a]++
			f := Finding{Anomaly: a, Witness: refFormatCycle(cycle)}
			for _, e := range cycle {
				f.Txs = append(f.Txs, e.from)
				f.Levels = append(f.Levels, txs[e.from].level)
			}
			out = append(out, f)
		}

		// G0: a cycle of only ww edges.
		for _, n := range comp {
			if counts[G0] >= maxWitnessesPerClass {
				break
			}
			for _, e := range adj[n] {
				if e.kind != refWW || !member(e) {
					continue
				}
				if path := refShortestPath(adj, e.to, e.from, in, func(x refEdge) bool { return x.kind == refWW }); path != nil {
					record(G0, append([]refEdge{e}, path...))
					break
				}
			}
		}
		// G1c: a ww/wr cycle through at least one wr edge.
		for _, n := range comp {
			if counts[G1c] >= maxWitnessesPerClass {
				break
			}
			for _, e := range adj[n] {
				if e.kind != refWR || !member(e) {
					continue
				}
				if path := refShortestPath(adj, e.to, e.from, in, func(x refEdge) bool { return x.kind != refRW }); path != nil {
					record(G1c, append([]refEdge{e}, path...))
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
			for _, e := range adj[n] {
				if e.kind != refRW || !member(e) {
					continue
				}
				if path := refShortestPath(adj, e.to, e.from, in, func(x refEdge) bool { return x.kind != refRW }); path != nil {
					record(GSingle, append([]refEdge{e}, path...))
				}
				if path := refRWReturnPath(adj, e.to, e.from, in); path != nil {
					record(G2Item, append([]refEdge{e}, path...))
				}
				if counts[GSingle] >= maxWitnessesPerClass && counts[G2Item] >= maxWitnessesPerClass {
					break
				}
			}
		}
	}
	return out
}

// refShortestPath returns the edges of a shortest path from src to dst using
// only edges admitted by ok, restricted to nodes with in[node], or nil.
func refShortestPath(adj map[uint64][]refEdge, src, dst uint64, in map[uint64]bool, ok func(refEdge) bool) []refEdge {
	if src == dst {
		return []refEdge{}
	}
	parent := map[uint64]refEdge{}
	visited := map[uint64]bool{src: true}
	queue := []uint64{src}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, e := range adj[n] {
			if !ok(e) || !in[e.to] || visited[e.to] {
				continue
			}
			visited[e.to] = true
			parent[e.to] = e
			if e.to == dst {
				var path []refEdge
				for at := dst; at != src; {
					pe := parent[at]
					path = append([]refEdge{pe}, path...)
					at = pe.from
				}
				return path
			}
			queue = append(queue, e.to)
		}
	}
	return nil
}

// refRWReturnPath returns the edges of a shortest path from src to dst that
// crosses at least one rw edge, restricted to nodes with in[node] and never
// extending through dst. Prepending the rw edge dst->src closes a cycle
// carrying two or more anti-dependencies (G2-item) even when an rw-free
// return path also exists (that one the G-single branch reports separately).
// The search runs over (node, crossed-an-rw) states, so a node may be visited
// once per flag value.
func refRWReturnPath(adj map[uint64][]refEdge, src, dst uint64, in map[uint64]bool) []refEdge {
	if src == dst {
		return nil
	}
	type state struct {
		node uint64
		rw   bool
	}
	start := state{node: src}
	parentS := map[state]state{}
	parentE := map[state]refEdge{}
	visited := map[state]bool{start: true}
	queue := []state{start}
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		if s.node == dst {
			continue // the destination terminates a path, never extends one
		}
		for _, e := range adj[s.node] {
			if !in[e.to] {
				continue
			}
			ns := state{node: e.to, rw: s.rw || e.kind == refRW}
			if visited[ns] {
				continue
			}
			visited[ns] = true
			parentS[ns] = s
			parentE[ns] = e
			if e.to == dst && ns.rw {
				var path []refEdge
				for at := ns; at != start; at = parentS[at] {
					path = append([]refEdge{parentE[at]}, path...)
				}
				return path
			}
			queue = append(queue, ns)
		}
	}
	return nil
}

// refFormatCycle renders a cycle as "T1 --kind[label]--> T2 --...--> T1".
func refFormatCycle(cycle []refEdge) string {
	var b strings.Builder
	for _, e := range cycle {
		fmt.Fprintf(&b, "T%d --%s[%s]--> ", e.from, e.kind, e.label)
	}
	fmt.Fprintf(&b, "T%d", cycle[0].from)
	return b.String()
}

// refSCCs computes strongly connected components with an iterative Tarjan, so
// long dependency chains cannot overflow the goroutine stack.
func refSCCs(adj map[uint64][]refEdge) [][]uint64 {
	index := map[uint64]int{}
	low := map[uint64]int{}
	onStack := map[uint64]bool{}
	var stack []uint64
	var comps [][]uint64
	next := 0

	type frame struct {
		node uint64
		ei   int
	}
	for start := range adj {
		if _, seen := index[start]; seen {
			continue
		}
		frames := []frame{{node: start}}
		index[start] = next
		low[start] = next
		next++
		stack = append(stack, start)
		onStack[start] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			edges := adj[f.node]
			if f.ei < len(edges) {
				to := edges[f.ei].to
				f.ei++
				if _, seen := index[to]; !seen {
					index[to] = next
					low[to] = next
					next++
					stack = append(stack, to)
					onStack[to] = true
					frames = append(frames, frame{node: to})
				} else if onStack[to] && index[to] < low[f.node] {
					low[f.node] = index[to]
				}
				continue
			}
			// Node finished: pop, propagate lowlink, maybe emit component.
			n := f.node
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := frames[len(frames)-1].node
				if low[n] < low[p] {
					low[p] = low[n]
				}
			}
			if low[n] == index[n] {
				var comp []uint64
				for {
					m := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[m] = false
					comp = append(comp, m)
					if m == n {
						break
					}
				}
				comps = append(comps, comp)
			}
		}
	}
	return comps
}

// refAlmostCycles scans a history for wr edges with no rw edge in the opposite
// direction, deduplicated on (writer, reader) with the first (table, row)
// witness kept, and returned in deterministic (writer, reader) order. The
// writer must have committed (only installed versions define edges); the
// reader need only have terminated — a reader that observed the writer's
// install and then rolled back is the strongest steering signal of all, since
// a feral validation that refused because it saw the install will proceed
// once the writer's commit is held back. An empty result means the schedule
// kept every read isolated from every concurrent writer — nothing to steer
// toward, so the hunter falls back to random schedules.
func refAlmostCycles(events []Event) []AlmostCycle {
	committed := map[uint64]bool{}
	terminated := map[uint64]bool{}
	for i := range events {
		switch events[i].Kind {
		case KindCommit:
			committed[events[i].Tx] = true
			terminated[events[i].Tx] = true
		case KindAbort:
			terminated[events[i].Tx] = true
		}
	}

	rowKey := func(e *Event) string { return e.Table + "\x00" + fmt.Sprint(e.Row) }

	// Version writers and the committed install order per row, mirroring
	// Check's reconstruction.
	writerOf := map[string]map[uint64]uint64{}
	type inst struct {
		version uint64
		tx      uint64
		seq     uint64
	}
	installs := map[string][]inst{}
	for i := range events {
		e := &events[i]
		if e.Kind != KindWrite || e.Version == 0 || !committed[e.Tx] {
			continue
		}
		rk := rowKey(e)
		if writerOf[rk] == nil {
			writerOf[rk] = map[uint64]uint64{}
		}
		if _, dup := writerOf[rk][e.Version]; !dup {
			writerOf[rk][e.Version] = e.Tx
		}
		installs[rk] = append(installs[rk], inst{version: e.Version, tx: e.Tx, seq: e.Seq})
	}
	for _, list := range installs {
		sort.Slice(list, func(i, j int) bool {
			if list[i].version != list[j].version {
				return list[i].version < list[j].version
			}
			return list[i].seq < list[j].seq
		})
	}

	type pair struct{ from, to uint64 }
	wr := map[pair]AlmostCycle{}
	rw := map[pair]bool{}
	var order []pair
	for i := range events {
		e := &events[i]
		if e.Kind != KindRead || e.Own || e.Observed == 0 || !terminated[e.Tx] {
			continue
		}
		rk := rowKey(e)
		if w, known := writerOf[rk][e.Observed]; known && w != e.Tx {
			p := pair{from: w, to: e.Tx}
			if _, dup := wr[p]; !dup {
				wr[p] = AlmostCycle{Writer: w, Reader: e.Tx, Table: e.Table, Row: e.Row}
				order = append(order, p)
			}
		}
		if list := installs[rk]; list != nil {
			idx := sort.Search(len(list), func(i int) bool { return list[i].version > e.Observed })
			if idx < len(list) && list[idx].tx != e.Tx {
				rw[pair{from: e.Tx, to: list[idx].tx}] = true
			}
		}
	}

	var out []AlmostCycle
	for _, p := range order {
		if !rw[pair{from: p.to, to: p.from}] {
			out = append(out, wr[p])
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Writer != out[j].Writer {
			return out[i].Writer < out[j].Writer
		}
		return out[i].Reader < out[j].Reader
	})
	return out
}
