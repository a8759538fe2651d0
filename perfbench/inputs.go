package main

import (
	"fmt"
	"math/rand"

	"feralcc/internal/histcheck"
	"feralcc/internal/workload"
)

// Every input the benchmark feeds the program is generated here from the
// workload seed and nothing else, so one seed always yields the same request
// sequence per client and a byte-identical history. The program under test
// never sees the seed, only the generated keys, values and events.

const (
	// model is the Appendix C.1 model with a feral uniqueness validation.
	model = "ValidatedKeyValue"
	table = "validated_key_values"
	// preloadRows is the table size every serving workload starts from.
	preloadRows = 2000
	// zipfTheta is YCSB's workloada skew.
	zipfTheta = 0.99
)

type reqKind uint8

const (
	reqCreate reqKind = iota
	reqRead
)

// request is one HTTP call a client makes, with the answer it must get.
type request struct {
	kind  reqKind
	key   string
	value string // create: the value sent; read: the value expected back
	// fresh marks a create of a key no other request uses, which must be
	// accepted; a create of a preloaded key must be rejected with 422.
	fresh bool
}

// servingMix says what a serving workload's clients send.
type servingMix struct {
	// readShare is the fraction of requests that are GET point reads of
	// preloaded keys; the rest are creates.
	readShare float64
	// freshCreates makes every create use a new key; otherwise creates reuse
	// Zipfian-drawn preloaded keys and are all rejected by validation.
	freshCreates bool
}

// splitmix64 is the SplitMix64 finalizer, used to derive independent
// deterministic streams and values from the seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func preloadKey(i int) string { return fmt.Sprintf("k%04d", i) }

// preloadValue is the value the preloaded row for key i holds under seed.
func preloadValue(seed int64, i int) string {
	return fmt.Sprintf("v%016x", splitmix64(uint64(seed)^uint64(i)<<20))
}

// requestStream is one client's deterministic request sequence.
type requestStream struct {
	mix    servingMix
	seed   int64
	client int
	n      int
	rng    *rand.Rand
	keys   *workload.Zipfian
}

func newRequestStream(mix servingMix, seed int64, client int) *requestStream {
	src := int64(splitmix64(uint64(seed) ^ uint64(client+1)*0x5851f42d4c957f2d))
	rng := rand.New(rand.NewSource(src))
	return &requestStream{
		mix: mix, seed: seed, client: client, rng: rng,
		keys: workload.NewZipfian(preloadRows, zipfTheta, rng),
	}
}

func (s *requestStream) next() request {
	s.n++
	if s.rng.Float64() < s.mix.readShare {
		i := int(s.keys.Next())
		return request{kind: reqRead, key: preloadKey(i), value: preloadValue(s.seed, i)}
	}
	if s.mix.freshCreates {
		return request{
			kind:  reqCreate,
			key:   fmt.Sprintf("c%d-%d", s.client, s.n),
			value: fmt.Sprintf("w%016x", s.rng.Uint64()),
			fresh: true,
		}
	}
	i := int(s.keys.Next())
	return request{kind: reqCreate, key: preloadKey(i), value: fmt.Sprintf("w%016x", s.rng.Uint64())}
}

// histShape sizes the history-check workload's history.
type histShape struct {
	txns     int // transactions after the setup one
	sessions int // concurrently open transactions
	hotRows  int // rows of the hot table, drawn Zipfian
	keys     int // uniqueness keys, drawn Zipfian
	// Shares of the transaction shapes: validated creates,
	// read-modify-writes and read-only transactions; the rest transfer.
	// Every history of a shape has exactly these counts, in seeded order.
	unique, rmw, readOnly float64
}

// historyShape gives about 250k events. Validated creates dominate, as in
// the paper's applications; the few hot-row transactions keep the window's
// dependency graph small enough for a full live pass in a few seconds.
var historyShape = histShape{txns: 60000, sessions: 8, hotRows: 1024, keys: 8192,
	unique: 0.95, rmw: 0.02, readOnly: 0.015}

const hotTable = "accounts"

// genHistory simulates shape.sessions interleaved sessions against a READ
// COMMITTED engine and returns the events the engine would record: every read
// returns the latest committed version, writes install at commit with the
// commit timestamp as their version, and nothing uncommitted is ever visible.
// The history therefore contains only anomalies READ COMMITTED admits: lost
// updates and write skews on the hot rows, and duplicate inserts from
// validations that raced (a predicate read that found nothing, then an
// insert).
func genHistory(seed int64, shape histShape) []histcheck.Event {
	g := &histGen{
		shape:   shape,
		rng:     rand.New(rand.NewSource(int64(splitmix64(uint64(seed) ^ 0x68697374)))),
		version: map[histRow]uint64{},
		rowSeq:  map[string]uint64{},
		keyIdx:  map[string][]uint64{},
	}
	g.hot = workload.NewZipfian(int64(shape.hotRows), zipfTheta, g.rng)
	g.uniq = workload.NewZipfian(int64(shape.keys), zipfTheta, g.rng)

	// One setup transaction creates the hot rows.
	setup := g.begin()
	for i := 0; i < shape.hotRows; i++ {
		setup.writes = append(setup.writes, histWrite{table: hotTable, row: g.allocRow(hotTable), op: "insert"})
	}
	g.commit(setup)

	// Shapes are dealt from an exactly proportioned, shuffled deck, so that
	// histories of one shape differ only in order, keys and rows.
	n := shape.txns + shape.sessions
	for i := 0; i < n; i++ {
		switch f := float64(i) / float64(n); {
		case f < shape.unique:
			g.deck = append(g.deck, shapeUnique)
		case f < shape.unique+shape.rmw:
			g.deck = append(g.deck, shapeRMW)
		case f < shape.unique+shape.rmw+shape.readOnly:
			g.deck = append(g.deck, shapeReadOnly)
		default:
			g.deck = append(g.deck, shapeTransfer)
		}
	}
	g.rng.Shuffle(n, func(i, j int) { g.deck[i], g.deck[j] = g.deck[j], g.deck[i] })

	sessions := make([]*histTx, shape.sessions)
	for done := 0; done < shape.txns; {
		i := g.rng.Intn(shape.sessions)
		if sessions[i] == nil {
			sessions[i] = g.start()
			continue
		}
		if g.step(sessions[i]) {
			sessions[i] = nil
			done++
		}
	}
	return g.events
}

type histWrite struct {
	table string
	row   uint64
	op    string
	key   string // unique key of an insert into table
}

type histTx struct {
	id     uint64
	shape  int
	pc     int
	rows   [2]uint64
	key    string
	found  bool
	writes []histWrite
}

type histGen struct {
	shape  histShape
	deck   []int // transaction shapes still to start
	rng    *rand.Rand
	hot    *workload.Zipfian
	uniq   *workload.Zipfian
	events []histcheck.Event
	nextTx uint64
	clock  uint64 // last commit timestamp
	// version is the latest committed version of each row, keyed by
	// table and row.
	version map[histRow]uint64
	rowSeq  map[string]uint64
	keyIdx  map[string][]uint64 // committed rows of table per unique key
}

type histRow struct {
	table string
	row   uint64
}

func (g *histGen) emit(e histcheck.Event) {
	e.Seq = uint64(len(g.events) + 1)
	g.events = append(g.events, e)
}

func (g *histGen) allocRow(t string) uint64 {
	g.rowSeq[t]++
	return g.rowSeq[t]
}

func (g *histGen) begin() *histTx {
	g.nextTx++
	tx := &histTx{id: g.nextTx}
	g.emit(histcheck.Event{Tx: tx.id, Kind: histcheck.KindBegin, Level: "READ COMMITTED"})
	return tx
}

// Transaction shapes.
const (
	shapeUnique   = iota // validated create: predicate read, then insert if absent
	shapeRMW             // read-modify-write of one hot row
	shapeReadOnly        // read two hot rows
	shapeTransfer        // read two hot rows, then update both
)

func (g *histGen) start() *histTx {
	tx := g.begin()
	tx.shape, g.deck = g.deck[0], g.deck[1:]
	switch tx.shape {
	case shapeUnique:
		tx.key = fmt.Sprintf("u%04d", g.uniq.Next())
	case shapeRMW:
		tx.rows[0] = uint64(g.hot.Next()) + 1
	case shapeReadOnly:
		tx.rows = [2]uint64{uint64(g.hot.Next()) + 1, uint64(g.hot.Next()) + 1}
	default:
		tx.rows = [2]uint64{uint64(g.hot.Next()) + 1, uint64(g.hot.Next()) + 1}
		if tx.rows[0] == tx.rows[1] {
			tx.rows[1] = tx.rows[0]%uint64(g.shape.hotRows) + 1
		}
	}
	return tx
}

func (g *histGen) read(tx *histTx, t string, row uint64) {
	g.emit(histcheck.Event{Tx: tx.id, Kind: histcheck.KindRead, Table: t, Row: row,
		Observed: g.version[histRow{t, row}]})
}

// step runs the transaction's next operation and reports whether it ended.
func (g *histGen) step(tx *histTx) bool {
	tx.pc++
	switch tx.shape {
	case shapeUnique:
		switch tx.pc {
		case 1:
			g.emit(histcheck.Event{Tx: tx.id, Kind: histcheck.KindPredRead, Table: table,
				Pred: "p/" + table + "/key/s" + tx.key})
			for _, row := range g.keyIdx[tx.key] {
				g.read(tx, table, row)
				tx.found = true
			}
			return false
		case 2:
			if tx.found {
				// The validation failed: the ORM rolls back.
				g.emit(histcheck.Event{Tx: tx.id, Kind: histcheck.KindAbort, Reason: "rollback"})
				return true
			}
			tx.writes = append(tx.writes, histWrite{table: table, row: g.allocRow(table), op: "insert", key: tx.key})
			return false
		}
	case shapeRMW:
		switch tx.pc {
		case 1:
			g.read(tx, hotTable, tx.rows[0])
			return false
		case 2:
			tx.writes = append(tx.writes, histWrite{table: hotTable, row: tx.rows[0], op: "update"})
			return false
		}
	case shapeReadOnly:
		if tx.pc <= 2 {
			g.read(tx, hotTable, tx.rows[tx.pc-1])
			return false
		}
	case shapeTransfer:
		switch tx.pc {
		case 1, 2:
			g.read(tx, hotTable, tx.rows[tx.pc-1])
			return false
		case 3:
			tx.writes = append(tx.writes,
				histWrite{table: hotTable, row: tx.rows[0], op: "update"},
				histWrite{table: hotTable, row: tx.rows[1], op: "update"})
			return false
		}
	}
	g.commit(tx)
	return true
}

// commit installs the transaction's writes at a fresh commit timestamp and
// records them, then the commit, as the engine does.
func (g *histGen) commit(tx *histTx) {
	if len(tx.writes) > 0 {
		g.clock++
	}
	for _, w := range tx.writes {
		g.version[histRow{w.table, w.row}] = g.clock
		if w.key != "" {
			g.keyIdx[w.key] = append(g.keyIdx[w.key], w.row)
		}
		g.emit(histcheck.Event{Tx: tx.id, Kind: histcheck.KindWrite, Table: w.table, Row: w.row,
			Op: w.op, Version: g.clock})
	}
	g.emit(histcheck.Event{Tx: tx.id, Kind: histcheck.KindCommit})
}
