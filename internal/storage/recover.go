package storage

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"
)

// RecoveryStats describes what OpenDir found and replayed.
type RecoveryStats struct {
	// SnapshotLoaded reports whether a snapshot checkpoint was restored, and
	// SnapshotRows how many live rows it contained.
	SnapshotLoaded bool
	SnapshotRows   int
	// RecordsReplayed counts WAL records applied (commits + DDL).
	RecordsReplayed int
	CommitsReplayed int
	DDLReplayed     int
	// TornTailBytes is how many trailing log bytes were discarded because the
	// final record never completely reached the disk; CorruptTail is set when
	// the discarded tail failed its checksum rather than merely being short.
	TornTailBytes int64
	CorruptTail   bool
}

// Recovery returns what OpenDir replayed when this database was opened.
// Zero-valued for in-memory databases and fresh directories.
func (db *Database) Recovery() RecoveryStats { return db.recovery }

// OpenDir opens a database. When Options.DataDir is empty the result is the
// historical in-memory engine and the error is always nil. Otherwise the
// directory is created if needed, the latest snapshot checkpoint is loaded,
// the write-ahead log's valid prefix is replayed (commits reinstall their
// versions and rebuild indexes and FK edges; DDL records re-run their catalog
// mutations), any torn or corrupt tail is truncated away, and the log is
// reopened for appending — all before the first transaction can start.
func OpenDir(opts Options) (*Database, error) {
	o := opts.withDefaults()
	db := newDatabase(o)
	if o.DataDir == "" {
		return db, nil
	}
	recoverStart := time.Now()
	hook := o.FaultHook
	if hook != nil {
		if err := hook("wal.recover"); err != nil {
			return nil, err
		}
	}
	if err := os.MkdirAll(o.DataDir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: open %s: %w", o.DataDir, err)
	}
	// A crash between writing snapshot.db.tmp and the rename leaves a stray
	// temp file; the real snapshot (if any) is still authoritative.
	os.Remove(filepath.Join(o.DataDir, snapFileName+".tmp"))

	if raw, err := os.ReadFile(filepath.Join(o.DataDir, snapFileName)); err == nil {
		clock, rows, serr := db.loadSnapshot(raw)
		if serr != nil {
			return nil, serr
		}
		atomic.StoreUint64(&db.clock, clock)
		db.recovery.SnapshotLoaded = true
		db.recovery.SnapshotRows = rows
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("storage: open snapshot: %w", err)
	}

	walPath := filepath.Join(o.DataDir, walFileName)
	raw, err := os.ReadFile(walPath)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("storage: open wal: %w", err)
	}
	scan := scanWAL(raw)
	db.recovery.TornTailBytes = scan.tornTail
	db.recovery.CorruptTail = scan.corrupt
	off := int64(0)
	for _, payload := range scan.payloads {
		if hook != nil {
			if err := hook("wal.recover"); err != nil {
				return nil, err
			}
		}
		if err := db.replayRecord(payload); err != nil {
			// An undecodable record that passed its checksum means the bytes
			// are intact but unintelligible; trust nothing from here on.
			scan.validLen = off
			db.recovery.TornTailBytes = int64(len(raw)) - off
			db.recovery.CorruptTail = true
			break
		}
		off += walHeaderSize + int64(len(payload))
		db.recovery.RecordsReplayed++
	}
	if scan.validLen < int64(len(raw)) {
		if err := os.Truncate(walPath, scan.validLen); err != nil {
			return nil, fmt.Errorf("storage: truncate torn wal tail: %w", err)
		}
	}

	db.wal, err = openWAL(walPath, scan.validLen, o.SyncPolicy, o.SyncInterval, hook)
	if err != nil {
		return nil, fmt.Errorf("storage: open wal for append: %w", err)
	}
	// Continue the CSN sequence from the recovered clock.
	db.pipe.setBase(atomic.LoadUint64(&db.clock))
	mRecoverySeconds.Observe(time.Since(recoverStart))
	mRecoveryRecords.Add(uint64(db.recovery.RecordsReplayed))
	return db, nil
}

// replayRecord applies one decoded WAL record. DDL records re-run the public
// catalog methods (db.wal is still nil during replay, so nothing is
// re-logged); commit records install their versions directly at the recorded
// commit timestamp. A commit or group-commit record is decoded whole before
// any of it is installed, so a record that fails to decode leaves memory
// untouched and is truncated away like any corrupt tail.
func (db *Database) replayRecord(payload []byte) error {
	d := &walDecoder{b: payload}
	switch typ := d.byteVal(); typ {
	case recCommit:
		c, err := db.decodeCommit(d)
		if err != nil {
			return err
		}
		db.replayCommit(c)
		return nil
	case recGroupCommit:
		// A group-commit frame: its sub-records replay in order, all of them
		// or none.
		n := d.u64()
		if d.err != nil || n > uint64(len(d.b)) {
			d.fail("group commit count")
			return d.err
		}
		var commits []walCommit // grown as sub-records decode, never sized by n
		for i := uint64(0); i < n; i++ {
			subLen := d.u64()
			if d.err != nil || uint64(len(d.b)) < subLen {
				d.fail("group commit record")
				return d.err
			}
			sub := &walDecoder{b: d.b[:subLen]}
			d.b = d.b[subLen:]
			if sub.byteVal() != recCommit {
				return fmt.Errorf("storage: wal group commit: unexpected sub-record type")
			}
			c, err := db.decodeCommit(sub)
			if err != nil {
				return err
			}
			commits = append(commits, c)
		}
		for _, c := range commits {
			db.replayCommit(c)
		}
		return nil
	case recCreateTable:
		s := d.schema()
		if d.err != nil {
			return d.err
		}
		db.recovery.DDLReplayed++
		return db.CreateTable(s)
	case recDropTable:
		name := d.str()
		if d.err != nil {
			return d.err
		}
		db.recovery.DDLReplayed++
		return db.DropTable(name)
	case recAddIndex:
		table := d.str()
		column := d.str()
		unique := d.byteVal() != 0
		if d.err != nil {
			return d.err
		}
		db.recovery.DDLReplayed++
		// Mirror the original semantics: a unique precheck failure still left
		// the index installed, so the same error at replay is not a replay
		// failure.
		if err := db.AddIndex(table, column, unique); err != nil && !errors.Is(err, ErrUniqueViolation) {
			return err
		}
		return nil
	case recAddForeignKey:
		table := d.str()
		column := d.str()
		parent := d.str()
		onDelete := ReferentialAction(d.byteVal())
		if d.err != nil {
			return d.err
		}
		db.recovery.DDLReplayed++
		return db.AddForeignKey(table, column, parent, onDelete)
	default:
		return fmt.Errorf("storage: wal record: unknown type %d", typ)
	}
}

// walCommit is one decoded commit record.
type walCommit struct {
	commitTS uint64
	tables   []walTableOps
}

// walTableOps is one table's operations within a commit record.
type walTableOps struct {
	name string
	ops  []walOp
}

// walOp is one row operation; vals is nil for deletes.
type walOp struct {
	op   byte
	id   RowID
	vals []Value
}

// decodeCommit decodes a commit record's body (after its type byte),
// rejecting unknown ops, out-of-range row ids, and row images whose width
// does not match their table's schema.
func (db *Database) decodeCommit(d *walDecoder) (walCommit, error) {
	c := walCommit{commitTS: d.u64()}
	nTables := d.u64()
	if d.err != nil || nTables > uint64(len(d.b)) {
		d.fail("commit tables")
		return c, d.err
	}
	for i := uint64(0); i < nTables; i++ {
		t := walTableOps{name: d.str()}
		width := -1
		if tbl := db.tables[strings.ToLower(t.name)]; tbl != nil {
			width = len(tbl.schema.Columns)
		}
		nOps := d.u64()
		if d.err != nil || nOps > uint64(len(d.b)) { // each op is ≥ 2 bytes
			d.fail("commit ops")
			return c, d.err
		}
		for j := uint64(0); j < nOps; j++ {
			o := walOp{op: d.byteVal(), id: RowID(d.u64())}
			switch o.op {
			case walOpInsert, walOpUpdate:
				o.vals = d.row()
			case walOpDelete:
			default:
				if d.err == nil {
					return c, fmt.Errorf("storage: wal commit record: unknown op %d", o.op)
				}
			}
			if d.err != nil {
				return c, d.err
			}
			if o.id > maxRowID {
				return c, fmt.Errorf("storage: wal commit record: row id %d out of range", o.id)
			}
			if o.vals != nil && width >= 0 && len(o.vals) != width {
				return c, fmt.Errorf("storage: wal commit record: %d values for %d columns of %s", len(o.vals), width, t.name)
			}
			t.ops = append(t.ops, o)
		}
		c.tables = append(c.tables, t)
	}
	return c, nil
}

// replayCommit reinstalls one committed transaction's writes at its original
// commit timestamp, bumping the per-table row and primary-key allocators so
// new traffic never collides with recovered rows.
func (db *Database) replayCommit(c walCommit) {
	for _, ops := range c.tables {
		t := db.tables[strings.ToLower(ops.name)]
		if t == nil {
			continue // table dropped by a later record's era; nothing to install
		}
		pkPos := -1
		if pk := t.schema.PrimaryKey(); pk != "" {
			pkPos = t.schema.ColumnIndex(pk)
		}
		for _, o := range ops.ops {
			switch o.op {
			case walOpInsert:
				t.installInsert(o.id, o.vals, c.commitTS)
				t.bumpRow(o.id)
			case walOpUpdate:
				t.installUpdate(o.id, o.vals, c.commitTS)
				t.bumpRow(o.id)
			case walOpDelete:
				t.installDelete(o.id, c.commitTS)
			}
			if o.vals != nil && pkPos >= 0 && pkPos < len(o.vals) && o.vals[pkPos].Kind == KindInt {
				t.bumpID(o.vals[pkPos].I)
			}
		}
	}
	if c.commitTS > atomic.LoadUint64(&db.clock) {
		atomic.StoreUint64(&db.clock, c.commitTS)
	}
	db.recovery.CommitsReplayed++
}

// CheckIntegrity verifies the in-database constraints over the live state:
// every unique index is duplicate-free and every non-NULL foreign-key value
// references a live parent row. It is the post-recovery invariant the crash
// suites assert; an error here after a clean replay indicates a WAL bug.
func (db *Database) CheckIntegrity() error {
	// Quiesce the commit pipeline so no intent is mid-install while the
	// constraint scan walks the tables.
	db.pipe.gate.Lock()
	defer db.pipe.gate.Unlock()
	db.catalogMu.RLock()
	defer db.catalogMu.RUnlock()
	for _, t := range db.tables {
		t.mu.RLock()
		for col, ix := range t.indexes {
			if !ix.spec.Unique {
				continue
			}
			pos := t.schema.ColumnIndex(col)
			if pos < 0 {
				continue
			}
			if dup := duplicateLive(t, pos); dup != nil {
				t.mu.RUnlock()
				return fmt.Errorf("%w: %s.%s duplicate value %s",
					ErrUniqueViolation, t.schema.Name, t.schema.Columns[pos].Name, dup.Format())
			}
		}
		t.mu.RUnlock()
	}
	for parentLower, edges := range db.childFKs {
		parent := db.tables[parentLower]
		if parent == nil {
			continue
		}
		pkPos := parent.schema.ColumnIndex(parent.schema.PrimaryKey())
		if pkPos < 0 {
			continue
		}
		parentKeys := liveKeys(parent, pkPos)
		for _, e := range edges {
			child := db.tables[e.childTable]
			if child == nil {
				continue
			}
			pos := child.schema.ColumnIndex(e.fk.Column)
			if pos < 0 {
				continue
			}
			if orphan := firstOrphan(child, pos, parentKeys); orphan != nil {
				return fmt.Errorf("%w: %s.%s = %s has no parent in %s",
					ErrForeignKeyViolation, child.schema.Name, e.fk.Column,
					orphan.Format(), parent.schema.Name)
			}
		}
	}
	return nil
}
