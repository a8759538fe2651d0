package storage

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"feralcc/internal/anomalywatch"
	"feralcc/internal/histcheck"
	"feralcc/internal/obs"
)

// writeOp distinguishes buffered write kinds.
type writeOp uint8

const (
	opInsert writeOp = iota
	opUpdate
	opDelete
)

// txWrite is one buffered row write. vals is the full new row image for
// inserts and updates; baseTS is the begin timestamp of the committed
// version the write was based on (0 when the row did not exist), used for
// first-committer-wins validation. cascade marks a write that commit
// validation added for an ON DELETE action.
type txWrite struct {
	op      writeOp
	cascade bool
	vals    []Value
	old     []Value // shared, read-only prior committed image (update/delete); nil for insert
	baseTS  uint64
	seq     int // execution order, to keep installs deterministic
}

// Tx is a transaction handle. A Tx must be used from one goroutine at a
// time (connections in the layers above enforce this), but separate
// transactions may run fully concurrently.
type Tx struct {
	db      *Database
	id      uint64
	level   IsolationLevel
	startTS uint64
	done    bool
	seq     int

	writes map[string]map[RowID]*txWrite // lower table name -> row writes

	// Read footprint, tracked only when the level certifies reads.
	readRows  map[string]struct{}
	readPreds map[string]struct{}

	// probes records the committed-state lookups commit validation performed
	// (unique-key probes, FK parent probes, cascade child probes), in summary
	// predicate-key format. The pipeline's registration conflict check tests
	// them against pending commit intents: a pending install that would change
	// a probe's answer forces this transaction to wait and revalidate.
	// trackProbes is set for a validation round only while some intent is
	// pending; with none, no probe could conflict (see hasPending).
	probes      map[string]struct{}
	trackProbes bool

	tookLocks bool

	// sampled marks the transaction as selected for live anomaly checking:
	// every history event it generates is also offered (never blocking) to
	// the database's anomalywatch ring. Decided once at Begin.
	sampled bool

	// stmtDeadline bounds the currently executing statement (zero = none).
	// Set from the caller's context deadline; lock waits respect it and
	// expiry surfaces as ErrStmtDeadline.
	stmtDeadline time.Time

	// trace, when non-nil, accumulates span timings (lock wait, commit, WAL
	// append/fsync) for the statement currently driving this transaction.
	// StmtTrace methods are nil-safe, so untraced paths cost one nil check.
	trace *obs.StmtTrace
}

// ID returns the transaction's unique id.
func (tx *Tx) ID() uint64 { return tx.id }

// Database returns the database this transaction belongs to.
func (tx *Tx) Database() *Database { return tx.db }

// Isolation returns the transaction's isolation level.
func (tx *Tx) Isolation() IsolationLevel { return tx.level }

// readTS returns the snapshot timestamp for a read starting now.
func (tx *Tx) readTS() uint64 {
	if tx.level.snapshotReads() {
		return tx.startTS
	}
	return atomic.LoadUint64(&tx.db.clock)
}

func (tx *Tx) checkLive() error {
	if tx.done {
		return ErrTxDone
	}
	return nil
}

// tableWrites returns the write buffer for a table, creating it on demand.
func (tx *Tx) tableWrites(lower string) map[RowID]*txWrite {
	m := tx.writes[lower]
	if m == nil {
		m = make(map[RowID]*txWrite)
		tx.writes[lower] = m
	}
	return m
}

// noteRowRead records a row in the certification read set.
func (tx *Tx) noteRowRead(lowerTable string, id RowID) {
	if !tx.level.certifiesReads() {
		return
	}
	if tx.readRows == nil {
		tx.readRows = make(map[string]struct{})
	}
	tx.readRows[lowerTable+"\x00"+formatRowID(id)] = struct{}{}
}

// notePredRead records a predicate in the certification read set.
func (tx *Tx) notePredRead(key string) {
	if !tx.level.certifiesReads() {
		return
	}
	if tx.readPreds == nil {
		tx.readPreds = make(map[string]struct{})
	}
	tx.readPreds[key] = struct{}{}
}

// noteProbe records one committed-state validation lookup, keyed exactly like
// a summary predicate key, when the validation round tracks probes.
func (tx *Tx) noteProbe(lowerTable, lowerCol, key string) {
	if !tx.trackProbes {
		return
	}
	if tx.probes == nil {
		tx.probes = make(map[string]struct{})
	}
	tx.probes["p\x00"+lowerTable+"\x00"+lowerCol+"\x00"+key] = struct{}{}
}

// SetStmtDeadline bounds the next statement(s) run in this transaction: lock
// waits stop at the deadline with ErrStmtDeadline instead of waiting out the
// full lock timeout. A zero time clears the bound.
func (tx *Tx) SetStmtDeadline(t time.Time) { tx.stmtDeadline = t }

// SetTrace attaches (or detaches, with nil) the statement trace that lock
// waits and the commit path accumulate spans into.
func (tx *Tx) SetTrace(tr *obs.StmtTrace) { tx.trace = tr }

// liveEmit offers one history event to the live anomaly watcher when this
// transaction was sampled. The trace ID is stamped here — only on the live
// path, never into the Recorder, so recorded histories stay byte-stable for
// fixed schedules. Offer never blocks; a full ring sheds the event.
func (tx *Tx) liveEmit(e histcheck.Event) {
	if !tx.sampled {
		return
	}
	if tx.trace != nil {
		e.Trace = tx.trace.ID
	}
	tx.db.watch.Offer(e)
}

// histRead records an item read in the operation history. observed is the
// begin timestamp of the version the read returned (0 = absent/invisible);
// own marks reads served from the transaction's own write buffer.
func (tx *Tx) histRead(lower string, id RowID, observed uint64, own bool) {
	e := histcheck.Event{
		Tx: tx.id, Kind: histcheck.KindRead,
		Table: lower, Row: uint64(id), Observed: observed, Own: own,
	}
	tx.db.histAppend(e)
	tx.liveEmit(e)
}

// histAbort records the end of an unsuccessfully finished transaction.
func (tx *Tx) histAbort(reason string) {
	e := histcheck.Event{Tx: tx.id, Kind: histcheck.KindAbort, Reason: reason}
	tx.db.histAppend(e)
	tx.liveEmit(e)
}

// recordInstalls emits one write event per installed row, into the offline
// recorder and/or the live watcher. Called immediately after install, inside
// the commit's install turn, so a history snapshot can never observe an
// installed version before the event that explains it — and, on the live
// path, so per-row install events reach the watcher in commit-sequence order,
// which is what lets it maintain the version order incrementally.
func (tx *Tx) recordInstalls(commitTS uint64) {
	type rec struct {
		lower string
		id    RowID
		w     *txWrite
	}
	recs := make([]rec, 0, 8)
	for lower, rows := range tx.writes {
		for id, w := range rows {
			recs = append(recs, rec{lower: lower, id: id, w: w})
		}
	}
	// Emit in execution order (txWrite.seq), not map order: recorded
	// histories must be byte-stable for a fixed schedule, which is what the
	// deterministic-scheduler determinism test pins.
	sort.Slice(recs, func(i, j int) bool { return recs[i].w.seq < recs[j].w.seq })
	for _, r := range recs {
		op := "insert"
		switch r.w.op {
		case opUpdate:
			op = "update"
		case opDelete:
			op = "delete"
		}
		e := histcheck.Event{
			Tx: tx.id, Kind: histcheck.KindWrite,
			Table: r.lower, Row: uint64(r.id), Op: op, Version: commitTS,
		}
		tx.db.histAppend(e)
		tx.liveEmit(e)
	}
}

// recordCommitEvents emits the install and commit events for a successful
// writing commit to whichever sinks are attached. Caller must invoke it at
// the same point the old inline recording happened: after install, before
// the clock publish, still inside the commit's install turn.
func (tx *Tx) recordCommitEvents(commitTS uint64) {
	if tx.db.hist == nil && !tx.sampled {
		return
	}
	tx.recordInstalls(commitTS)
	e := histcheck.Event{Tx: tx.id, Kind: histcheck.KindCommit}
	tx.db.histAppend(e)
	tx.liveEmit(e)
}

// lock acquires a lock for this transaction, remembering that cleanup is
// needed at finish. The engine fault hook fires first, so chaos tests can
// nominate this transaction as a deadlock victim deterministically.
func (tx *Tx) lock(key string, mode LockMode) error {
	if hook := tx.db.opts.FaultHook; hook != nil {
		if err := hook("lock"); err != nil {
			return err
		}
	}
	tx.db.yield(YieldLock)
	tx.tookLocks = true
	return tx.db.locks.acquire(tx.id, key, mode, tx.stmtDeadline, tx.trace)
}

// buildRow materializes a full row image from a column-value map, applying
// defaults, auto-assigning the primary key, and checking types and NOT NULL.
func buildRow(t *table, cols map[string]Value) ([]Value, error) {
	s := t.schema
	vals := make([]Value, len(s.Columns))
	for name, v := range cols {
		pos := s.ColumnIndex(name)
		if pos < 0 {
			return nil, fmt.Errorf("%w: %s.%s", ErrNoSuchColumn, s.Name, name)
		}
		cv, ok := v.CoerceTo(s.Columns[pos].Kind)
		if !ok {
			return nil, fmt.Errorf("%w: column %s.%s is %s, got %s",
				ErrTypeMismatch, s.Name, name, s.Columns[pos].Kind, v.Kind)
		}
		vals[pos] = cv
	}
	for i := range s.Columns {
		c := &s.Columns[i]
		if vals[i].IsNull() {
			if _, provided := lookupCol(cols, c.Name); !provided && !c.Default.IsNull() {
				vals[i] = c.Default
			}
		}
		if vals[i].IsNull() && c.PrimaryKey {
			vals[i] = Int(t.allocID())
		} else if c.PrimaryKey && vals[i].Kind == KindInt {
			t.bumpID(vals[i].I)
		}
		if vals[i].IsNull() && c.NotNull {
			return nil, fmt.Errorf("%w: %s.%s", ErrNotNull, s.Name, c.Name)
		}
	}
	return vals, nil
}

func lookupCol(cols map[string]Value, name string) (Value, bool) {
	if v, ok := cols[name]; ok {
		return v, true
	}
	for k, v := range cols {
		if strings.EqualFold(k, name) {
			return v, true
		}
	}
	return Value{}, false
}

// Insert buffers a new row and returns its RowID and primary-key value
// (0 when the table has no primary key column).
func (tx *Tx) Insert(tableName string, cols map[string]Value) (RowID, int64, error) {
	if err := tx.checkLive(); err != nil {
		return 0, 0, err
	}
	t, err := tx.db.lookupTable(tableName)
	if err != nil {
		return 0, 0, err
	}
	vals, err := buildRow(t, cols)
	if err != nil {
		return 0, 0, err
	}
	id := t.allocRow()
	lower := strings.ToLower(t.schema.Name)
	if tx.level.locking() {
		if err := tx.lockForWrite(t, lower, id, nil, vals); err != nil {
			return 0, 0, err
		}
	}
	tx.seq++
	tx.tableWrites(lower)[id] = &txWrite{op: opInsert, vals: vals, seq: tx.seq}
	var pk int64
	if pkCol := t.schema.PrimaryKey(); pkCol != "" {
		pk = vals[t.schema.ColumnIndex(pkCol)].I
	}
	return id, pk, nil
}

// Update buffers changes to an existing row. The row must be visible to the
// transaction (via a prior Scan) or buffered by it.
func (tx *Tx) Update(tableName string, id RowID, changes map[string]Value) error {
	if err := tx.checkLive(); err != nil {
		return err
	}
	t, err := tx.db.lookupTable(tableName)
	if err != nil {
		return err
	}
	s := t.schema
	newImage := make([]Value, len(s.Columns))
	applyChanges := func(base []Value) error {
		copy(newImage, base)
		for name, v := range changes {
			pos := s.ColumnIndex(name)
			if pos < 0 {
				return fmt.Errorf("%w: %s.%s", ErrNoSuchColumn, s.Name, name)
			}
			cv, ok := v.CoerceTo(s.Columns[pos].Kind)
			if !ok {
				return fmt.Errorf("%w: column %s.%s is %s, got %s",
					ErrTypeMismatch, s.Name, name, s.Columns[pos].Kind, v.Kind)
			}
			if cv.IsNull() && s.Columns[pos].NotNull {
				return fmt.Errorf("%w: %s.%s", ErrNotNull, s.Name, s.Columns[pos].Name)
			}
			newImage[pos] = cv
		}
		return nil
	}

	lower := strings.ToLower(s.Name)
	if w, ok := tx.tableWrites(lower)[id]; ok {
		switch w.op {
		case opDelete:
			return fmt.Errorf("%w: %s row %d (deleted in this transaction)", ErrNoSuchRow, s.Name, id)
		default:
			if err := applyChanges(w.vals); err != nil {
				return err
			}
			if tx.level.locking() {
				if err := tx.lockForWrite(t, lower, id, w.vals, newImage); err != nil {
					return err
				}
			}
			w.vals = newImage
			return nil
		}
	}

	// Writers serialize on the row lock at execute time, as real engines do;
	// lost updates under RC/RR come from unlocked *reads*, not torn writes.
	if err := tx.lock(rowLockKey(lower, id), LockX); err != nil {
		return err
	}
	old, baseTS := t.version(id, latestTS)
	if old == nil {
		return fmt.Errorf("%w: %s row %d", ErrNoSuchRow, s.Name, id)
	}
	if err := applyChanges(old); err != nil {
		return err
	}
	if tx.level.locking() {
		if err := tx.lockForWrite(t, lower, id, old, newImage); err != nil {
			return err
		}
	}
	tx.seq++
	tx.tableWrites(lower)[id] = &txWrite{op: opUpdate, vals: newImage, old: old, baseTS: baseTS, seq: tx.seq}
	return nil
}

// Delete buffers removal of a row.
func (tx *Tx) Delete(tableName string, id RowID) error {
	if err := tx.checkLive(); err != nil {
		return err
	}
	t, err := tx.db.lookupTable(tableName)
	if err != nil {
		return err
	}
	lower := strings.ToLower(t.schema.Name)
	if w, ok := tx.tableWrites(lower)[id]; ok {
		switch w.op {
		case opInsert:
			delete(tx.tableWrites(lower), id)
			return nil
		case opDelete:
			return fmt.Errorf("%w: %s row %d (deleted in this transaction)", ErrNoSuchRow, t.schema.Name, id)
		default:
			if tx.level.locking() {
				if err := tx.lockForWrite(t, lower, id, w.old, nil); err != nil {
					return err
				}
			}
			w.op = opDelete
			w.vals = nil
			return nil
		}
	}
	if err := tx.lock(rowLockKey(lower, id), LockX); err != nil {
		return err
	}
	old, baseTS := t.version(id, latestTS)
	if old == nil {
		return fmt.Errorf("%w: %s row %d", ErrNoSuchRow, t.schema.Name, id)
	}
	if tx.level.locking() {
		if err := tx.lockForWrite(t, lower, id, old, nil); err != nil {
			return err
		}
	}
	tx.seq++
	tx.tableWrites(lower)[id] = &txWrite{op: opDelete, old: old, baseTS: baseTS, seq: tx.seq}
	return nil
}

// lockForWrite acquires the Serializable2PL locks protecting a row write:
// an intent-exclusive table lock plus exclusive predicate locks covering
// every (column, value) pair of the old and new images (value granularity),
// or an exclusive table lock (table granularity).
func (tx *Tx) lockForWrite(t *table, lower string, id RowID, old, new []Value) error {
	if tx.db.opts.PredicateLocks == TableGranularity {
		return tx.lock(tableLockKey(lower), LockX)
	}
	if err := tx.lock(tableLockKey(lower), LockIX); err != nil {
		return err
	}
	if err := tx.lock(rowLockKey(lower, id), LockX); err != nil {
		return err
	}
	for i := range t.schema.Columns {
		col := strings.ToLower(t.schema.Columns[i].Name)
		if old != nil {
			if err := tx.lock(predLockKey(lower, col, old[i].Key()), LockX); err != nil {
				return err
			}
		}
		if new != nil {
			if err := tx.lock(predLockKey(lower, col, new[i].Key()), LockX); err != nil {
				return err
			}
		}
	}
	return nil
}

// EqFilter is an optional equality predicate pushed down into Scan so the
// engine can use a secondary index. Residual predicates are the caller's
// concern.
type EqFilter struct {
	Column string
	Value  Value
}

// ScanOptions configures a Scan.
type ScanOptions struct {
	// Filter, when non-nil, restricts the scan to rows whose column equals
	// the value (index-accelerated when an index exists).
	Filter *EqFilter
	// ForUpdate acquires exclusive row locks on matching rows and re-reads
	// their latest committed images, as SELECT ... FOR UPDATE does.
	ForUpdate bool
}

// Scan streams the rows visible to the transaction, merged with the
// transaction's own writes. fn returns false to stop early. The slice passed
// to fn is owned by the callee.
func (tx *Tx) Scan(tableName string, opts ScanOptions, fn func(RowID, []Value) bool) error {
	if err := tx.checkLive(); err != nil {
		return err
	}
	tx.db.yield(YieldRead)
	t, err := tx.db.lookupTable(tableName)
	if err != nil {
		return err
	}
	s := t.schema
	lower := strings.ToLower(s.Name)

	filterPos := -1
	var filterVal Value
	var filterKey string
	if opts.Filter != nil {
		filterPos = s.ColumnIndex(opts.Filter.Column)
		if filterPos < 0 {
			return fmt.Errorf("%w: %s.%s", ErrNoSuchColumn, s.Name, opts.Filter.Column)
		}
		filterVal, filterKey = opts.Filter.Value, opts.Filter.Value.Key()
	}

	// Predicate footprint: record for certification, and lock under 2PL.
	predKey := "t\x00" + lower
	if filterPos >= 0 {
		predKey = "p\x00" + lower + "\x00" + strings.ToLower(s.Columns[filterPos].Name) + "\x00" + filterKey
	}
	tx.notePredRead(predKey)
	if tx.db.hist != nil || tx.sampled {
		e := histcheck.Event{
			Tx: tx.id, Kind: histcheck.KindPredRead, Table: lower,
			Pred: strings.ReplaceAll(predKey, "\x00", "/"),
		}
		tx.db.histAppend(e)
		tx.liveEmit(e)
	}
	if tx.level.locking() {
		if tx.db.opts.PredicateLocks == TableGranularity || filterPos < 0 {
			if err := tx.lock(tableLockKey(lower), LockS); err != nil {
				return err
			}
		} else {
			if err := tx.lock(tableLockKey(lower), LockIS); err != nil {
				return err
			}
			col := strings.ToLower(s.Columns[filterPos].Name)
			if err := tx.lock(predLockKey(lower, col, filterKey), LockS); err != nil {
				return err
			}
		}
	}

	writes := tx.writes[lower]
	cur := t.cursor(filterPos, filterVal, filterKey, tx.readTS(), writes)
	var scanErr error
	// emit runs with no table lock held: it may take row locks, and it calls
	// fn, which gets a copy of the shared or buffered image. false stops the
	// scan.
	emit := func(id RowID, vals []Value, observed uint64, own bool) bool {
		if opts.ForUpdate {
			if scanErr = tx.lock(rowLockKey(lower, id), LockX); scanErr != nil {
				return false
			}
			// Re-read the latest committed image now that the row is locked:
			// a concurrent writer may have committed while we waited. Rows
			// written by this transaction keep their buffered image.
			if _, ours := writes[id]; !ours {
				vals, observed = t.version(id, latestTS)
				if vals == nil || !cur.matches(vals) {
					return true
				}
			}
		}
		tx.noteRowRead(lower, id)
		if tx.level.locking() && !opts.ForUpdate {
			if scanErr = tx.lock(rowLockKey(lower, id), LockS); scanErr != nil {
				return false
			}
		}
		tx.histRead(lower, id, observed, own)
		return fn(id, slices.Clone(vals))
	}
	if !cur.each(func(h rowHit) bool {
		if w := h.own; w != nil {
			return w.op == opDelete || !cur.matches(w.vals) || emit(h.id, w.vals, 0, true)
		}
		return emit(h.id, h.vals, h.beginTS, false)
	}) {
		return scanErr
	}
	// Own inserts, and own updates into an indexed key, that the candidate
	// set cannot know about.
	for id, w := range writes {
		if w.op != opDelete && w.vals != nil && cur.matches(w.vals) && !cur.covered(id) && !emit(id, w.vals, 0, true) {
			break
		}
	}
	return scanErr
}

// Get returns the row with the given RowID as visible to the transaction,
// or nil when invisible or absent.
func (tx *Tx) Get(tableName string, id RowID) ([]Value, error) {
	if err := tx.checkLive(); err != nil {
		return nil, err
	}
	tx.db.yield(YieldRead)
	t, err := tx.db.lookupTable(tableName)
	if err != nil {
		return nil, err
	}
	lower := strings.ToLower(t.schema.Name)
	if w, ok := tx.writes[lower][id]; ok {
		if w.op == opDelete {
			return nil, nil
		}
		tx.noteRowRead(lower, id)
		tx.histRead(lower, id, 0, true)
		return slices.Clone(w.vals), nil
	}
	// Point reads lock under 2PL exactly as scans do (Scan takes LockS per
	// visited row): without this, a Get-then-Update read-modify-write slips
	// through the lock protocol and loses updates even at Serializable2PL.
	// The gap survived every wall-clock stress run — the deterministic
	// scheduler's almost-cycle-closing delay found it in one schedule.
	if tx.level.locking() {
		if err := tx.lock(rowLockKey(lower, id), LockS); err != nil {
			return nil, err
		}
	}
	vals, observed := t.version(id, tx.readTS())
	if vals != nil {
		tx.noteRowRead(lower, id)
	}
	tx.histRead(lower, id, observed, false)
	return slices.Clone(vals), nil
}

// Rollback abandons the transaction. Safe to call after Commit (no-op).
func (tx *Tx) Rollback() {
	if tx.done {
		return
	}
	tx.done = true
	atomic.AddUint64(&tx.db.statAborts, 1)
	mAbortsRollback.Inc()
	tx.histAbort("rollback")
	tx.db.finish(tx)
}

// Commit validates and atomically installs the transaction's writes.
// On any validation error the transaction is rolled back and the error
// returned; ErrSerialization and ErrUniqueViolation/-ForeignKeyViolation are
// the interesting cases for the layers above.
//
// A writing commit runs the staged commit pipeline (see commitpipeline.go):
// validation under per-table latches, a group-commit WAL append, and an
// install strictly ordered by commit sequence number.
func (tx *Tx) Commit() error {
	if err := tx.checkLive(); err != nil {
		return err
	}
	start := time.Now()
	db := tx.db
	if hook := db.opts.FaultHook; hook != nil {
		// The commit fault point: a forced serialization abort here takes the
		// same path a first-committer-wins conflict would.
		if err := hook("commit"); err != nil {
			return tx.abortCommit(err)
		}
	}
	// The pre-validation commit yield: the scheduler's main handle for
	// directed exploration (holding a writer here keeps its installs
	// invisible to concurrent readers — the almost-cycle-closing move).
	db.yield(YieldCommit)
	hasWrites := false
	for _, m := range tx.writes {
		if len(m) > 0 {
			hasWrites = true
			break
		}
	}
	if !hasWrites {
		tx.done = true
		atomic.AddUint64(&db.statCommits, 1)
		mCommits.Inc()
		tx.trace.Add(obs.SpanCommit, time.Since(start))
		e := histcheck.Event{Tx: tx.id, Kind: histcheck.KindCommit}
		db.histAppend(e)
		tx.liveEmit(e)
		db.finish(tx)
		return nil
	}
	return tx.commitPipelined(start)
}

// abortCommit applies the standard failed-commit bookkeeping and returns err.
func (tx *Tx) abortCommit(err error) error {
	db := tx.db
	tx.done = true
	atomic.AddUint64(&db.statAborts, 1)
	recordAbort(err)
	// Conflict-class aborts arm the live checker's escalation: the next
	// transactions sample at 100%, because contention is exactly where
	// anomalies live.
	if db.watch != nil && isConflictAbort(err) {
		db.watch.NoteConflict()
	}
	tx.histAbort(err.Error())
	db.finish(tx)
	return err
}

// isConflictAbort reports whether a commit failure indicates data contention
// worth escalating the live-check sample rate for.
func isConflictAbort(err error) bool {
	return errors.Is(err, ErrSerialization) ||
		errors.Is(err, ErrUniqueViolation) ||
		errors.Is(err, ErrForeignKeyViolation) ||
		errors.Is(err, ErrLockTimeout)
}

// commitPipelined runs the staged commit pipeline.
//
// Stage 1 — validate: under the latches of the write set's FK-connected
// component, run first-committer-wins, cascade expansion, and constraint
// checks, then (still latched) register a commit intent. Registration fails
// three ways: a footprint overlap with a pending intent means a not-yet-
// installed commit could invalidate what validation just observed, so the
// transaction waits for those intents to resolve and revalidates from its
// original write set; a serializable certification conflict aborts; otherwise
// the intent is admitted with the next CSN.
//
// Stage 2 — group-commit WAL: the encoded record joins the group-commit
// queue, and the committer either leads (writing the queued batch as one
// frame) or waits as a follower until its batch is durable. A log failure
// aborts the commit, consuming its CSN turn so later commits never stall.
//
// Stage 3 — ordered install: strictly in CSN order, install versions under
// the component's latches, emit history events, publish the clock, and
// expose the summary for certification before leaving the pending set.
func (tx *Tx) commitPipelined(start time.Time) error {
	db := tx.db
	p := db.pipe
	p.gateRLock()

	vstart := time.Now()
	latches := p.latchFor(tx.writes)
	cs := commitStates.Get().(*commitState)
	defer cs.release()
	in := &cs.intent
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			// Cascade expansion added to the write set; a retry restarts from
			// the transaction's own writes, or a prior round's cascade targets
			// would be double-applied against a changed committed state.
			tx.pruneCascades()
		}
		tx.probes = nil
		db.yield(YieldEnqueue)
		p.latch(latches)
		tx.trackProbes = p.hasPending()
		err := tx.validate()
		var wait uint64
		if err == nil {
			wait, err = p.register(tx, tx.buildSummary(0), in)
		}
		p.unlatch(latches)
		if err != nil {
			tx.trace.Add(obs.SpanCommitValidate, time.Since(vstart))
			p.gate.RUnlock()
			return tx.abortCommit(err)
		}
		if wait == 0 {
			break
		}
		if y := db.opts.Yielder; y != nil {
			// Scheduler mode: instead of blocking until the conflicting
			// intents resolve, park and revalidate on our own next turn. The
			// park is not victim-eligible — a registered intent always resolves.
			_ = y.Park(ParkConflict, false)
			continue
		}
		p.awaitInstalled(wait)
	}
	tx.trace.Add(obs.SpanCommitValidate, time.Since(vstart))

	if db.wal != nil {
		cs.rec = walRecord{payload: encodeCommit(tx.writes, in.csn), tr: tx.trace}
		if werr := p.submit(&cs.rec); werr != nil {
			p.abortIntent(in)
			p.gate.RUnlock()
			tx.done = true
			atomic.AddUint64(&db.statAborts, 1)
			mAbortsWAL.Inc()
			tx.histAbort(werr.Error())
			db.finish(tx)
			return fmt.Errorf("commit aborted: %w", werr)
		}
	}

	istart := time.Now()
	db.yield(YieldInstall)
	p.awaitTurn(in)
	p.latch(latches)
	tx.install(in.csn)
	tx.recordCommitEvents(in.csn)
	atomic.StoreUint64(&db.clock, in.csn)
	p.unlatch(latches)
	// Publish the summary for certification before resolving the intent, so a
	// registering transaction always sees this commit in exactly one of the
	// two conflict sources (pending intents or recorded summaries).
	db.recordCommit(in.summary)
	p.finish(in)
	p.gate.RUnlock()
	tx.trace.Add(obs.SpanCommitInstall, time.Since(istart))

	tx.done = true
	atomic.AddUint64(&db.statCommits, 1)
	db.finish(tx)
	d := time.Since(start)
	mCommits.Inc()
	mCommitSeconds.Observe(d)
	tx.trace.Add(obs.SpanCommit, d)
	return nil
}

// pruneCascades drops the writes cascade expansion added.
func (tx *Tx) pruneCascades() {
	for _, rows := range tx.writes {
		for id, w := range rows {
			if w.cascade {
				delete(rows, id)
			}
		}
	}
}

// validate runs commit-time validation: write-write conflicts and in-database
// unique and foreign key constraints (expanding cascades into the write set).
// Serializable read certification runs later, during intent registration,
// where the registry lock closes the race against concurrently publishing
// commits. Caller holds the table latches of the write set's FK component.
func (tx *Tx) validate() error {
	db := tx.db

	// First-committer-wins: abort if any written row has a committed version
	// newer than our snapshot.
	if tx.level.firstCommitterWins() {
		for lower, rows := range tx.writes {
			t, err := db.lookupTable(lower)
			if err != nil {
				return err
			}
			t.mu.RLock()
			for id, w := range rows {
				if w.op == opInsert {
					continue
				}
				c := t.chain(id)
				if c == nil {
					t.mu.RUnlock()
					return fmt.Errorf("%w: %s row %d vanished", ErrNoSuchRow, lower, id)
				}
				v := c.latest()
				if v == nil || v.beginTS > tx.startTS || (v.endTS != 0 && v.endTS > tx.startTS) {
					t.mu.RUnlock()
					atomic.AddUint64(&db.statConflict, 1)
					return fmt.Errorf("%w: concurrent update of %s row %d", ErrSerialization, lower, id)
				}
			}
			t.mu.RUnlock()
		}
	}

	if err := tx.expandCascades(); err != nil {
		return err
	}
	if err := tx.checkUnique(); err != nil {
		return err
	}
	return tx.checkForeignKeys()
}

// certify runs serializable read certification: the transaction's reads must
// not overlap writes committed after its snapshot. With PhantomBug set,
// predicate reads are not certified — PostgreSQL bug #11732's observable
// behavior.
func (tx *Tx) certify() error {
	db := tx.db
	for _, c := range db.conflictingSummaries(tx.startTS) {
		for rk := range tx.readRows {
			if _, hit := c.rowKeys[rk]; hit {
				atomic.AddUint64(&db.statConflict, 1)
				return fmt.Errorf("%w: read-write conflict on row", ErrSerialization)
			}
		}
		if !db.opts.PhantomBug {
			for pk := range tx.readPreds {
				if _, hit := c.predKeys[pk]; hit {
					atomic.AddUint64(&db.statConflict, 1)
					return fmt.Errorf("%w: phantom conflict on predicate", ErrSerialization)
				}
			}
		}
	}
	return nil
}

// expandCascades applies in-database ON DELETE actions: for every buffered
// delete of a row in a table referenced by foreign keys, child rows are
// deleted (CASCADE), nulled (SET NULL), or cause an abort (NO ACTION). Runs
// to a fixpoint so cascades chain across tables. Operates on the latest
// committed state — under the component latches (or exclusive gate) this is
// the authoritative state, which is exactly why in-database cascades never
// orphan rows while feral (application-level) cascades do.
func (tx *Tx) expandCascades() error {
	db := tx.db
	work := make([]struct {
		table string
		id    RowID
	}, 0, 8)
	for lower, rows := range tx.writes {
		for id, w := range rows {
			if w.op == opDelete {
				work = append(work, struct {
					table string
					id    RowID
				}{lower, id})
			}
		}
	}
	for len(work) > 0 {
		item := work[0]
		work = work[1:]
		db.catalogMu.RLock()
		edges := append([]fkEdge(nil), db.childFKs[item.table]...)
		db.catalogMu.RUnlock()
		if len(edges) == 0 {
			continue
		}
		parent, err := db.lookupTable(item.table)
		if err != nil {
			return err
		}
		pkCol := parent.schema.PrimaryKey()
		if pkCol == "" {
			continue
		}
		// Every buffered delete carries the image it removes.
		w := tx.writes[item.table][item.id]
		if w == nil || w.old == nil {
			continue
		}
		pkVal := w.old[parent.schema.ColumnIndex(pkCol)]
		for _, e := range edges {
			child, err := db.lookupTable(e.childTable)
			if err != nil {
				return err
			}
			fkPos := child.schema.ColumnIndex(e.fk.Column)
			if fkPos < 0 {
				return fmt.Errorf("%w: %s.%s", ErrNoSuchColumn, e.childTable, e.fk.Column)
			}
			key := pkVal.Key()
			tx.noteProbe(e.childTable, strings.ToLower(child.schema.Columns[fkPos].Name), key)
			// Rows this transaction already wrote need no action: its deletes
			// are done, and rows it inserted/updated to reference the dying
			// parent are handled by the FK existence check afterward.
			childWrites := tx.tableWrites(e.childTable)
			cur := child.cursor(fkPos, pkVal, key, latestTS, childWrites)
			var cascadeErr error
			cur.each(func(h rowHit) bool {
				if h.own != nil {
					return true
				}
				switch e.fk.OnDelete {
				case Cascade:
					tx.seq++
					childWrites[h.id] = &txWrite{op: opDelete, cascade: true, old: h.vals, baseTS: h.beginTS, seq: tx.seq}
					work = append(work, struct {
						table string
						id    RowID
					}{e.childTable, h.id})
				case SetNull:
					if child.schema.Columns[fkPos].NotNull {
						cascadeErr = fmt.Errorf("%w: ON DELETE SET NULL into NOT NULL column %s.%s",
							ErrForeignKeyViolation, e.childTable, e.fk.Column)
						return false
					}
					newVals := slices.Clone(h.vals)
					newVals[fkPos] = Null()
					tx.seq++
					childWrites[h.id] = &txWrite{op: opUpdate, cascade: true, vals: newVals, old: h.vals, baseTS: h.beginTS, seq: tx.seq}
				default: // NoAction
					cascadeErr = fmt.Errorf("%w: %s row referenced by %s.%s",
						ErrForeignKeyViolation, item.table, e.childTable, e.fk.Column)
					return false
				}
				return true
			})
			if cascadeErr != nil {
				anomalywatch.ObserveInvariant(anomalywatch.TierStorage, anomalywatch.InvForeignKey, true)
				return cascadeErr
			}
		}
	}
	return nil
}

// checkUnique enforces in-database unique indexes against the latest
// committed state plus this transaction's own writes. Evaluations and
// violations feed the invariant observatory's storage tier: this is the
// race-free enforcement the paper recommends over feral validation, and the
// counters are what let an operator compare the two tiers' violation rates.
func (tx *Tx) checkUnique() error {
	err := tx.checkUniqueConstraints()
	if errors.Is(err, ErrUniqueViolation) {
		anomalywatch.ObserveInvariant(anomalywatch.TierStorage, anomalywatch.InvUniqueness, true)
	}
	return err
}

func (tx *Tx) checkUniqueConstraints() error {
	db := tx.db
	checked := false
	defer func() {
		if checked {
			anomalywatch.ObserveInvariant(anomalywatch.TierStorage, anomalywatch.InvUniqueness, false)
		}
	}()
	for lower, rows := range tx.writes {
		t, err := db.lookupTable(lower)
		if err != nil {
			return err
		}
		s := t.schema
		for _, spec := range s.Indexes {
			if !spec.Unique {
				continue
			}
			pos := s.ColumnIndex(spec.Column)
			if pos < 0 {
				continue
			}
			checked = true
			// Keys written by this transaction, for intra-transaction dups.
			newKeys := make(map[string]RowID)
			for id, w := range rows {
				if w.op == opDelete || w.vals == nil {
					continue
				}
				v := w.vals[pos]
				if v.IsNull() {
					continue // SQL unique indexes admit multiple NULLs
				}
				key := v.Key()
				if other, dup := newKeys[key]; dup && other != id {
					return fmt.Errorf("%w: duplicate %s.%s = %s within transaction",
						ErrUniqueViolation, s.Name, spec.Column, v.Format())
				}
				newKeys[key] = id

				tx.noteProbe(lower, strings.ToLower(s.Columns[pos].Name), key)
				// Own-write hits are covered by newKeys (or being deleted).
				dup := false
				cur := t.cursor(pos, v, key, latestTS, rows)
				cur.each(func(h rowHit) bool {
					dup = h.own == nil
					return !dup
				})
				if dup {
					return fmt.Errorf("%w: %s.%s = %s already exists",
						ErrUniqueViolation, s.Name, spec.Column, v.Format())
				}
			}
		}
	}
	return nil
}

// checkForeignKeys verifies every inserted/updated child row's parent
// exists (in committed state or in this transaction's writes) and is not
// being deleted by this transaction. Like checkUnique, evaluations and
// violations feed the invariant observatory's storage tier.
func (tx *Tx) checkForeignKeys() error {
	err := tx.checkFKConstraints()
	if errors.Is(err, ErrForeignKeyViolation) {
		anomalywatch.ObserveInvariant(anomalywatch.TierStorage, anomalywatch.InvForeignKey, true)
	}
	return err
}

func (tx *Tx) checkFKConstraints() error {
	db := tx.db
	checked := false
	defer func() {
		if checked {
			anomalywatch.ObserveInvariant(anomalywatch.TierStorage, anomalywatch.InvForeignKey, false)
		}
	}()
	for lower, rows := range tx.writes {
		t, err := db.lookupTable(lower)
		if err != nil {
			return err
		}
		for _, fk := range t.schema.ForeignKeys {
			fkPos := t.schema.ColumnIndex(fk.Column)
			if fkPos < 0 {
				continue
			}
			parent, err := db.lookupTable(fk.ParentTable)
			if err != nil {
				return err
			}
			pkCol := parent.schema.PrimaryKey()
			pkPos := parent.schema.ColumnIndex(pkCol)
			parentLower := strings.ToLower(parent.schema.Name)
			for _, w := range rows {
				if w.op == opDelete || w.vals == nil {
					continue
				}
				ref := w.vals[fkPos]
				if ref.IsNull() {
					continue
				}
				tx.noteProbe(parentLower, strings.ToLower(parent.schema.Columns[pkPos].Name), ref.Key())
				if tx.parentExists(parent, parentLower, pkPos, ref) {
					continue
				}
				return fmt.Errorf("%w: %s.%s = %s has no parent in %s",
					ErrForeignKeyViolation, t.schema.Name, fk.Column, ref.Format(), fk.ParentTable)
			}
		}
	}
	return nil
}

// parentExists reports whether a live parent row with primary key ref
// exists, accounting for this transaction's own inserts and deletes.
func (tx *Tx) parentExists(parent *table, parentLower string, pkPos int, ref Value) bool {
	parentWrites := tx.writes[parentLower]
	found := false
	cur := parent.cursor(pkPos, ref, ref.Key(), latestTS, parentWrites)
	cur.each(func(h rowHit) bool {
		if w := h.own; w != nil {
			found = w.op != opDelete && w.vals != nil && Equal(w.vals[pkPos], ref)
		} else {
			found = true
		}
		return !found
	})
	if found {
		return true
	}
	// Own inserts may not be index-visible; scan the write buffer too.
	for _, w := range parentWrites {
		if w.op != opDelete && w.vals != nil && Equal(w.vals[pkPos], ref) {
			return true
		}
	}
	return false
}

// buildSummary computes the certification footprint of the transaction's
// write set: its row keys plus the full column-value predicate fan-out of
// every old and new image. The pipeline builds the summary at intent
// registration, which stamps commitTS.
func (tx *Tx) buildSummary(commitTS uint64) *txSummary {
	db := tx.db
	summary := &txSummary{
		commitTS: commitTS,
		rowKeys:  make(map[string]struct{}),
		predKeys: make(map[string]struct{}),
	}
	for lower, rows := range tx.writes {
		t, err := db.lookupTable(lower)
		if err != nil {
			continue // table dropped mid-transaction; nothing to install
		}
		summary.predKeys["t\x00"+lower] = struct{}{}
		for id, w := range rows {
			summary.rowKeys[lower+"\x00"+formatRowID(id)] = struct{}{}
			addPreds := func(vals []Value) {
				for i := range t.schema.Columns {
					col := strings.ToLower(t.schema.Columns[i].Name)
					summary.predKeys["p\x00"+lower+"\x00"+col+"\x00"+vals[i].Key()] = struct{}{}
				}
			}
			switch w.op {
			case opInsert:
				addPreds(w.vals)
			case opUpdate:
				addPreds(w.vals)
				if w.old != nil {
					addPreds(w.old)
				}
			case opDelete:
				if w.old != nil {
					addPreds(w.old)
				}
			}
		}
	}
	return summary
}

// install writes all buffered changes as committed versions with the given
// timestamp. Caller holds the write tables' latches;
// the clock is published by the caller after install completes so readers
// never observe a partially installed commit.
func (tx *Tx) install(commitTS uint64) {
	db := tx.db
	for lower, rows := range tx.writes {
		t, err := db.lookupTable(lower)
		if err != nil {
			continue // table dropped mid-transaction; nothing to install
		}
		for id, w := range rows {
			switch w.op {
			case opInsert:
				t.installInsert(id, w.vals, commitTS)
			case opUpdate:
				t.installUpdate(id, w.vals, commitTS)
			case opDelete:
				t.installDelete(id, commitTS)
			}
		}
	}
}
