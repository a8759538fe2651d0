package storage

import (
	"errors"
	"strings"
	"testing"
)

func orgUserSchemas() (*Schema, *Schema) {
	orgs := &Schema{
		Name: "orgs",
		Columns: []Column{
			{Name: "id", Kind: KindInt, PrimaryKey: true},
			{Name: "name", Kind: KindString, NotNull: true},
		},
	}
	users := &Schema{
		Name: "users",
		Columns: []Column{
			{Name: "id", Kind: KindInt, PrimaryKey: true},
			{Name: "email", Kind: KindString},
			{Name: "org_id", Kind: KindInt},
		},
		Indexes:     []IndexSpec{{Column: "email", Unique: true, Name: "users_email_idx"}},
		ForeignKeys: []ForeignKey{{Column: "org_id", ParentTable: "orgs", OnDelete: Cascade, Name: "users_org_id_fkey"}},
	}
	return orgs, users
}

func seedOrgUsers(t *testing.T, db *Database) {
	t.Helper()
	orgs, users := orgUserSchemas()
	mustCreate(t, db, orgs)
	mustCreate(t, db, users)
	tx := db.BeginDefault()
	if _, _, err := tx.Insert("orgs", map[string]Value{"id": Int(1), "name": Str("acme")}); err != nil {
		t.Fatalf("insert org: %v", err)
	}
	for _, email := range []string{"a@acme.test", "b@acme.test", "c@acme.test"} {
		if _, _, err := tx.Insert("users", map[string]Value{"email": Str(email), "org_id": Int(1)}); err != nil {
			t.Fatalf("insert user: %v", err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
}

func TestRecoveryReplaysCommitsAndDDL(t *testing.T) {
	dir := t.TempDir()
	db := durableDB(t, dir, Options{})
	seedOrgUsers(t, db)

	// Exercise update and delete so all three ops hit the log.
	tx := db.BeginDefault()
	var victim RowID
	if err := tx.Scan("users", ScanOptions{Filter: &EqFilter{Column: "email", Value: Str("c@acme.test")}},
		func(id RowID, _ []Value) bool { victim = id; return false }); err != nil {
		t.Fatalf("scan: %v", err)
	}
	if err := tx.Delete("users", victim); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit delete: %v", err)
	}
	wantDump := dumpDatabase(t, db)
	wantClock := db.Clock()
	db.Close()

	re := durableDB(t, dir, Options{})
	defer re.Close()
	st := re.Recovery()
	if st.SnapshotLoaded || st.CommitsReplayed != 2 || st.DDLReplayed != 2 || st.TornTailBytes != 0 {
		t.Fatalf("recovery stats: %+v", st)
	}
	if got := dumpDatabase(t, re); got != wantDump {
		t.Fatalf("recovered state differs:\n%s\nwant:\n%s", got, wantDump)
	}
	if re.Clock() != wantClock {
		t.Fatalf("clock %d, want %d", re.Clock(), wantClock)
	}
	if err := re.CheckIntegrity(); err != nil {
		t.Fatalf("integrity: %v", err)
	}

	// The unique index must be live, not just cataloged: a duplicate email
	// inserted post-recovery has to be rejected.
	tx = re.BeginDefault()
	if _, _, err := tx.Insert("users", map[string]Value{"email": Str("a@acme.test"), "org_id": Int(1)}); err != nil {
		t.Fatalf("insert: %v", err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrUniqueViolation) {
		t.Fatalf("duplicate email after recovery: %v", err)
	}
	// And the FK edge too: cascading delete of the org must remove its users.
	tx = re.BeginDefault()
	var orgRow RowID
	if err := tx.Scan("orgs", ScanOptions{}, func(id RowID, _ []Value) bool { orgRow = id; return false }); err != nil {
		t.Fatalf("scan orgs: %v", err)
	}
	if err := tx.Delete("orgs", orgRow); err != nil {
		t.Fatalf("delete org: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("cascade commit: %v", err)
	}
	if n := countRows(t, re, "users", nil); n != 0 {
		t.Fatalf("cascade after recovery left %d users", n)
	}
}

func TestRecoveryReplaysLaterDDL(t *testing.T) {
	dir := t.TempDir()
	db := durableDB(t, dir, Options{})
	mustCreate(t, db, kvSchema("kv"))
	insertKV(t, db, "kv", "dup", "1")
	if err := db.AddUniqueIndex("kv", "key"); err != nil {
		t.Fatalf("add unique index: %v", err)
	}
	mustCreate(t, db, kvSchema("scratch"))
	if err := db.DropTable("scratch"); err != nil {
		t.Fatalf("drop: %v", err)
	}
	db.Close()

	re := durableDB(t, dir, Options{})
	defer re.Close()
	if _, err := re.Table("scratch"); !errors.Is(err, ErrNoSuchTable) {
		t.Fatalf("dropped table resurrected: %v", err)
	}
	tx := re.BeginDefault()
	if _, _, err := tx.Insert("kv", map[string]Value{"key": Str("dup"), "value": Str("2")}); err != nil {
		t.Fatalf("insert: %v", err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrUniqueViolation) {
		t.Fatalf("replayed ALTER-style unique index not enforced: %v", err)
	}
}

func TestRecoveryRowAndIDAllocatorsAdvance(t *testing.T) {
	dir := t.TempDir()
	db := durableDB(t, dir, Options{})
	mustCreate(t, db, kvSchema("kv"))
	var lastPK int64
	for i := 0; i < 5; i++ {
		tx := db.BeginDefault()
		_, pk, err := tx.Insert("kv", map[string]Value{"key": Str("k"), "value": Str("v")})
		if err != nil {
			t.Fatalf("insert: %v", err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("commit: %v", err)
		}
		lastPK = pk
	}
	db.Close()

	re := durableDB(t, dir, Options{})
	defer re.Close()
	tx := re.BeginDefault()
	_, pk, err := tx.Insert("kv", map[string]Value{"key": Str("k"), "value": Str("v")})
	if err != nil {
		t.Fatalf("insert: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
	if pk <= lastPK {
		t.Fatalf("primary-key sequence regressed: %d after %d", pk, lastPK)
	}
	if n := countRows(t, re, "kv", nil); n != 6 {
		t.Fatalf("row collision after recovery: %d rows, want 6", n)
	}
}

// TestRecoveryRejectsOutOfRangeRowID pins that a log record naming a row id
// past maxRowID is treated as a corrupt tail instead of sizing the dense row
// store to it.
func TestRecoveryRejectsOutOfRangeRowID(t *testing.T) {
	dir := t.TempDir()
	db := durableDB(t, dir, Options{})
	mustCreate(t, db, kvSchema("kv"))
	forged := map[string]map[RowID]*txWrite{"kv": {maxRowID + 1: {op: opInsert, vals: []Value{Int(1), Str("k"), Str("v")}}}}
	if err := db.wal.append([]*walRecord{{payload: encodeCommit(forged, db.Clock()+1)}}); err != nil {
		t.Fatal(err)
	}
	db.Close()
	re := durableDB(t, dir, Options{})
	defer re.Close()
	tbl, _ := re.lookupTable("kv")
	if !re.Recovery().CorruptTail || len(tbl.chunks) != 0 {
		t.Fatalf("forged row id: recovery %+v, %d chunks; want a corrupt tail and no rows", re.Recovery(), len(tbl.chunks))
	}
}

func TestCheckpointTruncatesAndRestores(t *testing.T) {
	dir := t.TempDir()
	db := durableDB(t, dir, Options{})
	seedOrgUsers(t, db)
	grown := walSize(t, dir)
	if grown == 0 {
		t.Fatal("wal did not grow")
	}
	stats, err := db.Checkpoint()
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if stats.Tables != 2 || stats.Rows != 4 || stats.WALBytesTruncated != grown {
		t.Fatalf("checkpoint stats: %+v", stats)
	}
	if got := walSize(t, dir); got != 0 {
		t.Fatalf("wal not truncated: %d bytes", got)
	}
	// Post-checkpoint traffic lands in the fresh log.
	tx := db.BeginDefault()
	if _, _, err := tx.Insert("users", map[string]Value{"email": Str("d@acme.test"), "org_id": Int(1)}); err != nil {
		t.Fatalf("insert: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
	want := dumpDatabase(t, db)
	db.Close()

	re := durableDB(t, dir, Options{})
	defer re.Close()
	st := re.Recovery()
	if !st.SnapshotLoaded || st.SnapshotRows != 4 || st.CommitsReplayed != 1 || st.DDLReplayed != 0 {
		t.Fatalf("recovery stats: %+v", st)
	}
	if got := dumpDatabase(t, re); got != want {
		t.Fatalf("recovered state differs:\n%s\nwant:\n%s", got, want)
	}
	if err := re.CheckIntegrity(); err != nil {
		t.Fatalf("integrity: %v", err)
	}
}

func TestCheckpointThenCleanCloseReplaysNothing(t *testing.T) {
	dir := t.TempDir()
	db := durableDB(t, dir, Options{})
	seedOrgUsers(t, db)
	if _, err := db.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	db.Close()
	re := durableDB(t, dir, Options{})
	defer re.Close()
	st := re.Recovery()
	if st.RecordsReplayed != 0 || !st.SnapshotLoaded {
		t.Fatalf("clean checkpointed dir still replayed: %+v", st)
	}
}

// dumpDatabase renders the full committed live state deterministically:
// schemas (sorted), then every live row sorted by RowID with formatted
// values. Two databases with equal dumps are observably identical to any
// future reader.
func dumpDatabase(t testing.TB, db *Database) string {
	t.Helper()
	var b strings.Builder
	for _, s := range db.Tables() {
		b.WriteString("table ")
		b.WriteString(s.Name)
		for _, c := range s.Columns {
			b.WriteString(" ")
			b.WriteString(c.Name)
			b.WriteString(":")
			b.WriteString(c.Kind.String())
		}
		for _, ix := range s.Indexes {
			b.WriteString(" ix:")
			b.WriteString(ix.Name)
			if ix.Unique {
				b.WriteString("!")
			}
		}
		for _, fk := range s.ForeignKeys {
			b.WriteString(" fk:")
			b.WriteString(fk.Name)
		}
		b.WriteString("\n")
		tx := db.Begin(ReadCommitted)
		type row struct {
			id   RowID
			line string
		}
		var rows []row
		err := tx.Scan(s.Name, ScanOptions{}, func(id RowID, vals []Value) bool {
			var l strings.Builder
			for _, v := range vals {
				l.WriteString(v.Format())
				l.WriteString("|")
			}
			rows = append(rows, row{id, l.String()})
			return true
		})
		tx.Rollback()
		if err != nil {
			t.Fatalf("dump scan %s: %v", s.Name, err)
		}
		for i := 1; i < len(rows); i++ {
			for j := i; j > 0 && rows[j].id < rows[j-1].id; j-- {
				rows[j], rows[j-1] = rows[j-1], rows[j]
			}
		}
		for _, r := range rows {
			b.WriteString("  ")
			b.WriteString(formatRowID(r.id))
			b.WriteString(": ")
			b.WriteString(r.line)
			b.WriteString("\n")
		}
	}
	return b.String()
}
