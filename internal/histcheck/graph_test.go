package histcheck

import (
	"cmp"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// genRefHistory emits a random history for the differential test. Versions
// are assigned per row at write time but installed at commit, so commits in
// a different order install out of version order. Reads observe any version
// written so far (committed, aborted or still open) or the row's initial
// version, which no transaction wrote; some reads are of the reader's own
// buffered write (Own) or of an absent item. Some transactions abort, and
// some never close.
func genRefHistory(rng *rand.Rand, txns, rows int) []Event {
	levels := []string{"READ COMMITTED", "SNAPSHOT ISOLATION", "SERIALIZABLE"}
	var h hb
	nextVer := make([]uint64, rows)
	written := make([][]uint64, rows)
	for r := range nextVer {
		nextVer[r] = 1
		written[r] = []uint64{1}
	}
	open := make([]uint64, 0, txns)
	for i := 1; i <= txns; i++ {
		h.begin(uint64(i), levels[rng.Intn(len(levels))])
		open = append(open, uint64(i))
	}
	for steps := txns * 6; steps > 0 && len(open) > 0; steps-- {
		i := rng.Intn(len(open))
		tx, row := open[i], rng.Intn(rows)
		switch rng.Intn(8) {
		case 0, 1, 2:
			vs := written[row]
			h.read(tx, "t", uint64(row+1), vs[rng.Intn(len(vs))])
		case 3:
			if rng.Intn(2) == 0 {
				h.readOwn(tx, "t", uint64(row+1))
			} else {
				h.read(tx, "t", uint64(row+1), 0)
			}
		case 4, 5:
			nextVer[row]++
			written[row] = append(written[row], nextVer[row])
			h.write(tx, "t", uint64(row+1), nextVer[row])
		default:
			if rng.Intn(4) == 0 {
				h.abort(tx)
			} else {
				h.commit(tx)
			}
			open = append(open[:i], open[i+1:]...)
		}
	}
	// About half the transactions still open stay in flight.
	for _, tx := range open {
		if rng.Intn(2) == 0 {
			h.commit(tx)
		}
	}
	return h.events
}

// g1Findings renders the G1a/G1b findings of a report, sorted.
func g1Findings(rep *Report) []string {
	var out []string
	for _, f := range rep.Findings {
		if f.Anomaly == G1a || f.Anomaly == G1b {
			out = append(out, fmt.Sprintf("%s %v %v forbidden=%v: %s", f.Anomaly, f.Txs, f.Levels, f.Forbidden, f.Witness))
		}
	}
	sort.Strings(out)
	return out
}

// TestGraphMatchesReference is the differential test of the incremental
// Graph against the batch reference checker: on random histories, Check and
// AlmostCycles must agree with refCheck and refAlmostCycles.
func TestGraphMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5eed))
	trials := 3000
	if testing.Short() {
		trials = 500
	}
	seen := map[Anomaly]int{}
	retargeted := 0
	for trial := 0; trial < trials; trial++ {
		events := genRefHistory(rng, 2+rng.Intn(9), 1+rng.Intn(5))
		dump := func() string {
			var b strings.Builder
			for _, e := range events {
				fmt.Fprintf(&b, "  %+v\n", e)
			}
			return b.String()
		}
		g := NewGraph()
		for _, e := range events {
			g.Add(e)
		}
		if g.Retargets() > 0 {
			retargeted++
		}
		want := refCheck(events)
		for _, c := range want.Classes() {
			seen[c]++
		}
		if d := diffReports(Check(events), want); d != "" {
			t.Fatalf("trial %d: %s\n%s", trial, d, dump())
		}
		if g, w := AlmostCycles(events), refAlmostCycles(events); fmt.Sprint(g) != fmt.Sprint(w) {
			t.Fatalf("trial %d: almost-cycles %v, reference %v\n%s", trial, g, w, dump())
		}
	}
	// The generator must reach every class and install out of order, or
	// agreement proves little.
	if retargeted == 0 {
		t.Error("no generated history retargeted an rw edge")
	}
	for _, a := range []Anomaly{G0, G1a, G1b, G1c, GSingle, G2Item} {
		if seen[a] == 0 {
			t.Errorf("no generated history exhibits %s", a)
		}
	}
	t.Logf("classes over %d histories: %v; %d retargeted", trials, seen, retargeted)
}

// diffReports describes how a Check report differs from the reference's in
// verdict, classes, G1a/G1b findings, edge counts and totals, or returns "".
func diffReports(got, want *Report) string {
	switch {
	case fmt.Sprint(got.Classes()) != fmt.Sprint(want.Classes()):
		return fmt.Sprintf("classes %v, reference %v", got.Classes(), want.Classes())
	case got.Pass() != want.Pass():
		return fmt.Sprintf("pass %v, reference %v", got.Pass(), want.Pass())
	case fmt.Sprint(g1Findings(got)) != fmt.Sprint(g1Findings(want)):
		return fmt.Sprintf("G1 findings\n%s\nreference\n%s",
			strings.Join(g1Findings(got), "\n"), strings.Join(g1Findings(want), "\n"))
	case fmt.Sprint(got.Edges) != fmt.Sprint(want.Edges):
		return fmt.Sprintf("edges %v, reference %v", got.Edges, want.Edges)
	case got.Transactions != want.Transactions || got.Committed != want.Committed ||
		got.Aborted != want.Aborted || fmt.Sprint(got.Levels) != fmt.Sprint(want.Levels):
		return fmt.Sprintf("totals %d/%d/%d %v, reference %d/%d/%d %v",
			got.Transactions, got.Committed, got.Aborted, got.Levels,
			want.Transactions, want.Committed, want.Aborted, want.Levels)
	}
	return ""
}

// almostPairs lists the (writer, reader) pairs of a set of almost-cycles.
func almostPairs(acs []AlmostCycle) string {
	var b strings.Builder
	for _, a := range acs {
		fmt.Fprintf(&b, "%d->%d ", a.Writer, a.Reader)
	}
	return b.String()
}

// TestJoinedWitnessesMatchReference replays histories the way a saved
// /anomalies response reaches cmd/feralcheck: several witness blocks, each
// the Seq-ordered events of a few transactions, overlapping and joined in
// reverse order. A reader's commit then often comes before the write of the
// version it read. Check and AlmostCycles must still agree with the batch
// reference, which does not depend on event order.
func TestJoinedWitnessesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(0x10b5))
	trials := 2000
	if testing.Short() {
		trials = 300
	}
	reordered := 0
	for trial := 0; trial < trials; trial++ {
		events := genRefHistory(rng, 3+rng.Intn(8), 1+rng.Intn(4))
		var joined []Event
		for b := 1 + rng.Intn(4); b > 0; b-- {
			in := map[uint64]bool{}
			for _, e := range events {
				if rng.Intn(2) == 0 {
					in[e.Tx] = true
				}
			}
			var block []Event
			for _, e := range events {
				if in[e.Tx] {
					block = append(block, e)
				}
			}
			joined = append(block, joined...)
		}
		if !slices.IsSortedFunc(joined, func(a, b Event) int { return cmp.Compare(a.Seq, b.Seq) }) {
			reordered++
		}
		dump := func() string {
			var b strings.Builder
			for _, e := range joined {
				fmt.Fprintf(&b, "  %+v\n", e)
			}
			return b.String()
		}
		if d := diffReports(Check(joined), refCheck(joined)); d != "" {
			t.Fatalf("trial %d: %s\n%s", trial, d, dump())
		}
		if g, w := almostPairs(AlmostCycles(joined)), almostPairs(refAlmostCycles(joined)); g != w {
			t.Fatalf("trial %d: almost-cycles %s, reference %s\n%s", trial, g, w, dump())
		}
	}
	if reordered == 0 {
		t.Error("no joined history was out of Seq order")
	}
}

// TestHuntWitnessesMatchReference replays the checked-in hunt witnesses
// through both checkers: verdict, classes, edge counts and almost-cycles
// must agree.
func TestHuntWitnessesMatchReference(t *testing.T) {
	paths, err := filepath.Glob("../../testdata/hunt/*.jsonl")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no hunt witnesses: %v", err)
	}
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		events, err := ReadJSONL(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		got, want := Check(events), refCheck(events)
		if got.Pass() != want.Pass() || fmt.Sprint(got.Classes()) != fmt.Sprint(want.Classes()) ||
			fmt.Sprint(got.Edges) != fmt.Sprint(want.Edges) {
			t.Errorf("%s:\n%s\nreference:\n%s", path, got, want)
		}
		if g, w := AlmostCycles(events), refAlmostCycles(events); fmt.Sprint(g) != fmt.Sprint(w) {
			t.Errorf("%s: almost-cycles %v, reference %v", path, g, w)
		}
	}
}

// TestGraphEvictDropsState pins Evict: a transaction with edges reports the
// truncation, and once both ends of every edge are gone the graph is empty.
func TestGraphEvictDropsState(t *testing.T) {
	g := NewGraph()
	for _, e := range lostUpdate("READ COMMITTED") {
		g.Add(e)
	}
	if fs := g.Findings(); len(fs) == 0 {
		t.Fatal("lost update not found before eviction")
	}
	if !g.Evict(1) {
		t.Error("Evict(T1) with edges reported no truncation")
	}
	if g.Evict(2) {
		t.Error("Evict(T2) reported a truncation after its only neighbour left")
	}
	if len(g.txs) != 0 || len(g.rows) != 0 || len(g.writerOf) != 0 {
		t.Errorf("graph not empty after evicting everything: %d txs, %d rows, %d versions",
			len(g.txs), len(g.rows), len(g.writerOf))
	}
	if fs := g.Findings(); len(fs) != 0 {
		t.Errorf("findings after eviction: %v", fs)
	}
}

// TestGraphWindowInvariants feeds random histories through a small FIFO
// window of closed transactions, as the live watcher does, and checks after
// every event that the adjacency stays consistent: every edge joins two
// resident transactions, each incoming-edge list matches the outgoing edges
// that point at it, and every reference count is positive.
func TestGraphWindowInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		events := genRefHistory(rng, 4+rng.Intn(12), 1+rng.Intn(4))
		window := 1 + rng.Intn(4)
		g := NewGraph()
		var closed []uint64
		for i, e := range events {
			g.Add(e)
			if e.Kind == KindCommit || e.Kind == KindAbort {
				g.Findings()
				closed = append(closed, e.Tx)
				for len(closed) > window {
					g.Evict(closed[0])
					closed = closed[1:]
				}
			}
			in := map[[2]uint64]int{}
			for id, tx := range g.txs {
				for _, e := range tx.out {
					if g.txs[e.to] == nil || e.from != id || e.refs <= 0 {
						t.Fatalf("trial %d event %d: bad edge %+v", trial, i, e)
					}
					in[[2]uint64{e.from, e.to}]++
				}
			}
			for id, tx := range g.txs {
				for _, from := range tx.in {
					in[[2]uint64{from, id}]--
				}
			}
			for k, n := range in {
				if n != 0 {
					t.Fatalf("trial %d event %d: edges %d->%d: out and in lists differ by %d", trial, i, k[0], k[1], n)
				}
			}
		}
	}
}
