package storage

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"feralcc/internal/anomalywatch"
	"feralcc/internal/histcheck"
)

// Database is an in-memory multi-version relational store. It is safe for
// concurrent use by any number of transactions.
//
// Commits run through a staged pipeline (commitpipeline.go): validation under
// per-table latches, a group-commit WAL append, and an install strictly
// ordered by commit sequence number. In-database constraints (unique indexes,
// foreign keys) are still enforced race-free — which is precisely why the
// paper recommends them over feral application-level checks — but commits
// touching disjoint table groups no longer serialize against each other.
type Database struct {
	opts Options

	catalogMu sync.RWMutex
	tables    map[string]*table   // lower-cased name -> table
	childFKs  map[string][]fkEdge // lower-cased parent name -> referencing FKs

	clock uint64 // atomic: timestamp of the newest published commit
	txSeq uint64 // atomic: transaction id allocator

	// schemaEpoch counts catalog mutations (CREATE/DROP TABLE, CREATE INDEX,
	// ADD FOREIGN KEY). Plan caches key their validity on it: a cached plan
	// prepared at epoch E is stale once the epoch moves past E.
	schemaEpoch uint64 // atomic

	// pipe is the staged commit pipeline: per-table validation latches, the
	// commit-intent registry, the group-commit queue, and the quiesce gate
	// that Checkpoint/Vacuum/DDL take exclusively.
	pipe *commitPipeline

	activeMu  sync.Mutex
	active    map[uint64]uint64 // tx id -> start timestamp
	committed []*txSummary      // recent commits, for read certification

	locks *lockManager

	// wal is the durability log; nil when Options.DataDir is empty and the
	// database is purely in-memory. recovery describes what OpenDir replayed.
	wal      *wal
	recovery RecoveryStats

	// hist records per-transaction operation histories for the offline
	// isolation checker; nil unless Options.RecordHistory is set.
	hist *histcheck.Recorder

	// watch is the live anomaly watcher sampled transactions stream events
	// into; nil unless Options.LiveCheck is set.
	watch *anomalywatch.Watcher

	statCommits  uint64 // atomic
	statAborts   uint64 // atomic
	statConflict uint64 // atomic: serialization failures
}

// fkEdge records that childTable.fk.Column references a parent table.
type fkEdge struct {
	childTable string
	fk         ForeignKey
}

// txSummary is the footprint of a committed transaction retained for
// serializable read certification.
type txSummary struct {
	commitTS uint64
	rowKeys  map[string]struct{}
	predKeys map[string]struct{}
}

// Open creates a database. With Options.DataDir empty this is the historical
// in-memory constructor and cannot fail; with a data directory it delegates to
// OpenDir and panics on I/O or recovery errors — callers that care use OpenDir.
func Open(opts Options) *Database {
	db, err := OpenDir(opts)
	if err != nil {
		panic(fmt.Sprintf("storage: Open(%s): %v", opts.DataDir, err))
	}
	return db
}

// newDatabase builds the empty in-memory shell shared by both constructors.
func newDatabase(o Options) *Database {
	db := &Database{
		opts:     o,
		tables:   make(map[string]*table),
		childFKs: make(map[string][]fkEdge),
		active:   make(map[uint64]uint64),
		locks:    newLockManager(o.LockTimeout, o.LockQueueBound, o.Yielder),
	}
	db.pipe = newCommitPipeline(db)
	if o.RecordHistory {
		db.hist = histcheck.NewRecorder()
	}
	if o.LiveCheck != nil {
		db.watch = anomalywatch.New(*o.LiveCheck)
	}
	return db
}

// Watcher returns the live anomaly watcher, or nil when the database was
// opened without Options.LiveCheck.
func (db *Database) Watcher() *anomalywatch.Watcher { return db.watch }

// History returns a copy of the recorded operation history, or nil when the
// database was opened without Options.RecordHistory.
func (db *Database) History() []histcheck.Event {
	if db.hist == nil {
		return nil
	}
	return db.hist.Events()
}

// ResetHistory discards recorded events so far, keeping recording enabled.
// Useful between a setup phase and the measured workload.
func (db *Database) ResetHistory() {
	if db.hist != nil {
		db.hist.Reset()
	}
}

// histAppend records one history event; no-op when recording is disabled.
func (db *Database) histAppend(e histcheck.Event) {
	if db.hist != nil {
		db.hist.Append(e)
	}
}

// yield hands control to the deterministic scheduler at a named progress
// point; a single nil check when no scheduler is attached.
func (db *Database) yield(point string) {
	if y := db.opts.Yielder; y != nil {
		y.Yield(point)
	}
}

// Close stops the live anomaly watcher (draining its ring), then flushes and
// closes the write-ahead log. In-memory databases (no DataDir) have no log to
// release. The caller must have quiesced transactions: a commit or DDL that
// reaches the log after Close fails with an error. Idempotent.
func (db *Database) Close() error {
	if db.watch != nil {
		db.watch.Stop()
	}
	if db.wal == nil {
		return nil
	}
	return db.wal.close()
}

// walAppend logs one DDL record if the database is durable, consulting the
// wal.append fault point first. The error, if any, must abort the operation
// whose record failed to reach the log.
func (db *Database) walAppend(payload []byte) error {
	if db.wal == nil {
		return nil
	}
	if err := db.wal.fault("wal.append"); err != nil {
		return err
	}
	return db.wal.append([]*walRecord{{payload: payload}})
}

// Options returns the options the database was opened with.
func (db *Database) Options() Options { return db.opts }

// SchemaEpoch returns the current catalog version. It increases on every
// successful DDL operation, so holders of schema-derived state (prepared
// plans, cached schemas) can detect staleness with one atomic load.
func (db *Database) SchemaEpoch() uint64 { return atomic.LoadUint64(&db.schemaEpoch) }

// bumpSchemaEpoch marks the catalog as changed.
func (db *Database) bumpSchemaEpoch() { atomic.AddUint64(&db.schemaEpoch, 1) }

// CreateTable registers a new table. A unique index on the primary key
// column is added implicitly. Foreign keys must reference existing tables
// with primary keys.
func (db *Database) CreateTable(schema *Schema) error {
	s := schema.Clone()
	if err := s.Validate(); err != nil {
		return err
	}
	db.catalogMu.Lock()
	defer db.catalogMu.Unlock()
	lower := strings.ToLower(s.Name)
	if _, ok := db.tables[lower]; ok {
		return fmt.Errorf("%w: %s", ErrTableExists, s.Name)
	}
	if pk := s.PrimaryKey(); pk != "" {
		found := false
		for _, ix := range s.Indexes {
			if strings.EqualFold(ix.Column, pk) {
				found = true
				break
			}
		}
		if !found {
			s.Indexes = append(s.Indexes, IndexSpec{Column: pk, Unique: true, Name: s.Name + "_pkey"})
		}
	}
	for _, fk := range s.ForeignKeys {
		parent, ok := db.tables[strings.ToLower(fk.ParentTable)]
		if !ok {
			return fmt.Errorf("%w: foreign key %s.%s references unknown table %s",
				ErrInvalidSchema, s.Name, fk.Column, fk.ParentTable)
		}
		if parent.schema.PrimaryKey() == "" {
			return fmt.Errorf("%w: foreign key %s.%s references table %s without a primary key",
				ErrInvalidSchema, s.Name, fk.Column, fk.ParentTable)
		}
	}
	// s now carries the implicit pkey index, so replaying this record rebuilds
	// the exact catalog state.
	if err := db.walAppend(encodeCreateTable(s)); err != nil {
		return err
	}
	db.tables[lower] = newTable(s)
	for _, fk := range s.ForeignKeys {
		parentLower := strings.ToLower(fk.ParentTable)
		db.childFKs[parentLower] = append(db.childFKs[parentLower], fkEdge{childTable: lower, fk: fk})
	}
	db.bumpSchemaEpoch()
	return nil
}

// DropTable removes a table and any foreign-key edges touching it.
func (db *Database) DropTable(name string) error {
	db.catalogMu.Lock()
	defer db.catalogMu.Unlock()
	lower := strings.ToLower(name)
	if _, ok := db.tables[lower]; !ok {
		return fmt.Errorf("%w: %s", ErrNoSuchTable, name)
	}
	if err := db.walAppend(encodeDropTable(name)); err != nil {
		return err
	}
	delete(db.tables, lower)
	delete(db.childFKs, lower)
	for parent, edges := range db.childFKs {
		kept := edges[:0]
		for _, e := range edges {
			if e.childTable != lower {
				kept = append(kept, e)
			}
		}
		db.childFKs[parent] = kept
	}
	db.bumpSchemaEpoch()
	return nil
}

// AddUniqueIndex adds a unique index to an existing table, failing with
// ErrUniqueViolation if current live rows already contain duplicates. This
// models the schema-migration remedy the paper applied (`unique: true`).
func (db *Database) AddUniqueIndex(tableName, column string) error {
	return db.AddIndex(tableName, column, true)
}

// AddIndex adds a secondary index to an existing table. When unique is set,
// existing live rows are verified duplicate-free first. Runs under the
// exclusive pipeline gate (taken before catalogMu, per the lock order), so
// no commit can validate against the half-changed index set.
func (db *Database) AddIndex(tableName, column string, unique bool) error {
	db.pipe.gate.Lock()
	defer db.pipe.gate.Unlock()
	db.catalogMu.Lock()
	defer db.catalogMu.Unlock()
	t, ok := db.tables[strings.ToLower(tableName)]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoSuchTable, tableName)
	}
	pos := t.schema.ColumnIndex(column)
	if pos < 0 {
		return fmt.Errorf("%w: %s.%s", ErrNoSuchColumn, tableName, column)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if existing := t.indexOn(column); existing != nil {
		if unique {
			// Logged before the mutation; note the quirk below that a failed
			// duplicate precheck still leaves the index installed, which is
			// exactly what replaying this record reproduces.
			if err := db.walAppend(encodeAddIndex(tableName, column, unique)); err != nil {
				return err
			}
			existing.spec.Unique = true
			for i := range t.schema.Indexes {
				if strings.EqualFold(t.schema.Indexes[i].Column, column) {
					t.schema.Indexes[i].Unique = true
				}
			}
			db.bumpSchemaEpoch()
			return db.checkExistingUniqueLocked(t, pos)
		}
		return nil
	}
	if err := db.walAppend(encodeAddIndex(tableName, column, unique)); err != nil {
		return err
	}
	spec := IndexSpec{Column: t.schema.Columns[pos].Name, Unique: unique,
		Name: tableName + "_" + column + "_idx"}
	ix := newIndex(spec)
	t.eachChain(func(id RowID, chain *versionChain) {
		for _, v := range chain.versions {
			ix.add(v.vals[pos].Key(), id)
		}
	})
	t.indexes[strings.ToLower(column)] = ix
	t.schema.Indexes = append(t.schema.Indexes, spec)
	db.bumpSchemaEpoch()
	if unique {
		return db.checkExistingUniqueLocked(t, pos)
	}
	return nil
}

// checkExistingUniqueLocked verifies live rows have no duplicate values in
// column pos. Caller holds the exclusive pipeline gate and t.mu.
func (db *Database) checkExistingUniqueLocked(t *table, pos int) error {
	if dup := duplicateLive(t, pos); dup != nil {
		return fmt.Errorf("%w: column %s has existing duplicate value %s",
			ErrUniqueViolation, t.schema.Columns[pos].Name, dup.Format())
	}
	return nil
}

// duplicateLive returns the first non-NULL value in column pos that two live
// rows share, or nil. Caller holds t.mu.
func duplicateLive(t *table, pos int) *Value {
	var dup *Value
	seen := make(map[string]struct{})
	t.eachLive(func(_ RowID, v *version) {
		if val := v.vals[pos]; !val.IsNull() && dup == nil {
			if _, ok := seen[val.Key()]; ok {
				dup = &val
			}
			seen[val.Key()] = struct{}{}
		}
	})
	return dup
}

// liveKeys returns the index keys of column pos across t's live rows.
func liveKeys(t *table, pos int) map[string]struct{} {
	keys := make(map[string]struct{})
	t.mu.RLock()
	defer t.mu.RUnlock()
	t.eachLive(func(_ RowID, v *version) { keys[v.vals[pos].Key()] = struct{}{} })
	return keys
}

// firstOrphan returns the first non-NULL value in column pos of a live row of
// t whose key is not in parentKeys, or nil.
func firstOrphan(t *table, pos int, parentKeys map[string]struct{}) *Value {
	var orphan *Value
	t.mu.RLock()
	defer t.mu.RUnlock()
	t.eachLive(func(_ RowID, v *version) {
		if ref := v.vals[pos]; !ref.IsNull() && orphan == nil {
			if _, ok := parentKeys[ref.Key()]; !ok {
				orphan = &ref
			}
		}
	})
	return orphan
}

// AddForeignKey adds an in-database referential constraint to an existing
// table — the migration remedy of the paper's footnote 13. Existing rows are
// verified: every non-NULL value in column must reference a live parent row.
func (db *Database) AddForeignKey(tableName, column, parentTable string, onDelete ReferentialAction) error {
	// The exclusive gate (ordered before catalogMu) quiesces commits: FK
	// edges — and with them the pipeline's latch components — never change
	// while a commit is in flight.
	db.pipe.gate.Lock()
	defer db.pipe.gate.Unlock()
	db.catalogMu.Lock()
	defer db.catalogMu.Unlock()
	child, ok := db.tables[strings.ToLower(tableName)]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoSuchTable, tableName)
	}
	pos := child.schema.ColumnIndex(column)
	if pos < 0 {
		return fmt.Errorf("%w: %s.%s", ErrNoSuchColumn, tableName, column)
	}
	parent, ok := db.tables[strings.ToLower(parentTable)]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoSuchTable, parentTable)
	}
	pkCol := parent.schema.PrimaryKey()
	if pkCol == "" {
		return fmt.Errorf("%w: foreign key references table %s without a primary key",
			ErrInvalidSchema, parentTable)
	}
	pkPos := parent.schema.ColumnIndex(pkCol)

	// Validate existing rows against the live parent set.
	if orphan := firstOrphan(child, pos, liveKeys(parent, pkPos)); orphan != nil {
		return fmt.Errorf("%w: existing %s.%s = %s has no parent in %s",
			ErrForeignKeyViolation, tableName, column, orphan.Format(), parentTable)
	}

	if err := db.walAppend(encodeAddForeignKey(tableName, column, parentTable, onDelete)); err != nil {
		return err
	}
	fk := ForeignKey{
		Column:      child.schema.Columns[pos].Name,
		ParentTable: parent.schema.Name,
		OnDelete:    onDelete,
		Name:        tableName + "_" + column + "_fkey",
	}
	child.schema.ForeignKeys = append(child.schema.ForeignKeys, fk)
	parentLower := strings.ToLower(parent.schema.Name)
	db.childFKs[parentLower] = append(db.childFKs[parentLower],
		fkEdge{childTable: strings.ToLower(child.schema.Name), fk: fk})
	db.bumpSchemaEpoch()
	return nil
}

// lookupTable resolves a table by name.
func (db *Database) lookupTable(name string) (*table, error) {
	db.catalogMu.RLock()
	defer db.catalogMu.RUnlock()
	t, ok := db.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchTable, name)
	}
	return t, nil
}

// Table returns a copy of the schema for name, or an error.
func (db *Database) Table(name string) (*Schema, error) {
	t, err := db.lookupTable(name)
	if err != nil {
		return nil, err
	}
	return t.schema.Clone(), nil
}

// Tables lists the current table schemas, sorted by name.
func (db *Database) Tables() []*Schema {
	db.catalogMu.RLock()
	defer db.catalogMu.RUnlock()
	out := make([]*Schema, 0, len(db.tables))
	for _, t := range db.tables {
		out = append(out, t.schema.Clone())
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Name < out[j-1].Name; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Begin starts a transaction at the given isolation level.
func (db *Database) Begin(level IsolationLevel) *Tx {
	// Under the scheduler the begin yield orders both transaction-id
	// allocation and snapshot acquisition: ids and startTS are assigned in
	// scheduling order, which is what makes recorded histories byte-stable.
	db.yield(YieldBegin)
	id := atomic.AddUint64(&db.txSeq, 1)
	start := atomic.LoadUint64(&db.clock)
	db.activeMu.Lock()
	db.active[id] = start
	db.activeMu.Unlock()
	db.histAppend(histcheck.Event{Tx: id, Kind: histcheck.KindBegin, Level: level.String()})
	tx := &Tx{
		db:      db,
		id:      id,
		level:   level,
		startTS: start,
		writes:  make(map[string]map[RowID]*txWrite),
	}
	// The live-checking sampling decision is per-transaction and made here,
	// so a sampled transaction contributes its complete event sequence.
	if db.watch != nil && db.watch.SampleTx(id) {
		tx.sampled = true
		tx.liveEmit(histcheck.Event{Tx: id, Kind: histcheck.KindBegin, Level: level.String()})
	}
	return tx
}

// BeginDefault starts a transaction at the database default isolation level.
func (db *Database) BeginDefault() *Tx { return db.Begin(db.opts.DefaultIsolation) }

// Stats reports cumulative transaction outcomes.
type Stats struct {
	Commits               uint64
	Aborts                uint64
	SerializationFailures uint64
}

// Stats returns cumulative counters.
func (db *Database) Stats() Stats {
	return Stats{
		Commits:               atomic.LoadUint64(&db.statCommits),
		Aborts:                atomic.LoadUint64(&db.statAborts),
		SerializationFailures: atomic.LoadUint64(&db.statConflict),
	}
}

// finish removes tx from the active set and releases its locks.
func (db *Database) finish(tx *Tx) {
	db.activeMu.Lock()
	delete(db.active, tx.id)
	db.activeMu.Unlock()
	if tx.tookLocks {
		db.locks.ReleaseAll(tx.id)
		// Releasing locks is the progress peers blocked on; the yield gives
		// the scheduler a decision point right after it.
		db.yield(YieldLockRelease)
	}
}

// minActiveStart returns the smallest start timestamp among active
// transactions, or the current clock when none are active. Caller holds
// activeMu.
func (db *Database) minActiveStartLocked() uint64 {
	min := atomic.LoadUint64(&db.clock)
	for _, start := range db.active {
		if start < min {
			min = start
		}
	}
	return min
}

// recordCommit appends a certification summary and prunes entries no active
// transaction can conflict with.
func (db *Database) recordCommit(s *txSummary) {
	db.activeMu.Lock()
	defer db.activeMu.Unlock()
	db.committed = append(db.committed, s)
	if len(db.committed) > 512 {
		min := db.minActiveStartLocked()
		kept := db.committed[:0]
		for _, c := range db.committed {
			if c.commitTS > min {
				kept = append(kept, c)
			}
		}
		db.committed = append([]*txSummary(nil), kept...)
	}
}

// conflictingSummaries returns the commit summaries with commitTS > since.
func (db *Database) conflictingSummaries(since uint64) []*txSummary {
	db.activeMu.Lock()
	defer db.activeMu.Unlock()
	out := make([]*txSummary, 0, 4)
	for _, c := range db.committed {
		if c.commitTS > since {
			out = append(out, c)
		}
	}
	return out
}
