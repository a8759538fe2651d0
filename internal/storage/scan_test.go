package storage

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// kvTable creates kv with n committed rows k0..k(n-1), optionally indexing
// the key column.
func kvTable(t testing.TB, n int, indexed bool) *Database {
	t.Helper()
	db := Open(Options{LockTimeout: 250 * time.Millisecond})
	s := kvSchema("kv")
	if indexed {
		s.Indexes = []IndexSpec{{Column: "key"}}
	}
	if err := db.CreateTable(s); err != nil {
		t.Fatal(err)
	}
	tx := db.BeginDefault()
	for i := 0; i < n; i++ {
		if _, _, err := tx.Insert("kv", map[string]Value{"key": Str(fmt.Sprintf("k%d", i)), "value": Str("v")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestScanAllocsIndependentOfTableSize(t *testing.T) {
	allocs := func(rows int) float64 {
		db := kvTable(t, rows, false)
		tx := db.Begin(ReadCommitted)
		defer tx.Rollback()
		filter := &EqFilter{Column: "key", Value: Str("k1")}
		return testing.AllocsPerRun(20, func() {
			n := 0
			if err := tx.Scan("kv", ScanOptions{Filter: filter}, func(RowID, []Value) bool { n++; return true }); err != nil || n != 1 {
				t.Fatalf("scan: n=%d err=%v", n, err)
			}
		})
	}
	small, large := allocs(200), allocs(2000)
	if small != large {
		t.Fatalf("one-match full scan allocs: %v at 200 rows, %v at 2000", small, large)
	}
	if large > 8 {
		t.Fatalf("one-match full scan allocs = %v, want <= 8", large)
	}
}

func TestScanCalleeMayMutateRow(t *testing.T) {
	for _, indexed := range []bool{false, true} {
		db := kvTable(t, 3, indexed)
		scribble := func(_ RowID, vals []Value) bool {
			for i := range vals {
				vals[i] = Str("scribbled")
			}
			return true
		}
		filter := &EqFilter{Column: "key", Value: Str("k1")}
		tx := db.BeginDefault()
		var id RowID
		if err := tx.Scan("kv", ScanOptions{Filter: filter}, func(rid RowID, vals []Value) bool {
			id = rid
			return scribble(rid, vals)
		}); err != nil {
			t.Fatal(err)
		}
		if got, _ := tx.Get("kv", id); got != nil {
			scribble(id, got)
		}
		// An own write's buffered image is handed out as a copy too.
		if err := tx.Update("kv", id, map[string]Value{"value": Str("own")}); err != nil {
			t.Fatal(err)
		}
		if err := tx.Scan("kv", ScanOptions{Filter: filter}, scribble); err != nil {
			t.Fatal(err)
		}
		if got, _ := tx.Get("kv", id); got != nil {
			scribble(id, got)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}

		tx = db.BeginDefault()
		var seen [][]Value
		if err := tx.Scan("kv", ScanOptions{Filter: filter}, func(_ RowID, vals []Value) bool {
			seen = append(seen, vals)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		got, err := tx.Get("kv", id)
		tx.Rollback()
		if err != nil {
			t.Fatal(err)
		}
		want := []Value{Int(2), Str("k1"), Str("own")}
		if len(seen) != 1 || !slices.Equal(seen[0], want) || !slices.Equal(got, want) {
			t.Fatalf("indexed=%v: scan %v, get %v, want %v", indexed, seen, got, want)
		}
	}
}

// TestScanMergesOwnWrites pins how a scan merges the reader's write set into
// the committed rows, at every isolation level, on the full-scan and the
// index path: an own update of a committed row is emitted once with the own
// image, an own insert and an own update into the key once each, an own
// delete is hidden, a vacuum-reclaimed slot is skipped, and FOR UPDATE
// re-reads the latest committed image of rows the reader did not write.
func TestScanMergesOwnWrites(t *testing.T) {
	for _, indexed := range []bool{false, true} {
		for _, level := range []IsolationLevel{ReadCommitted, RepeatableRead, SnapshotIsolation, Serializable, Serializable2PL} {
			t.Run(fmt.Sprintf("indexed=%v/%s", indexed, level), func(t *testing.T) {
				db := testDB(t, Options{})
				s := kvSchema("kv")
				if indexed {
					s.Indexes = []IndexSpec{{Column: "key"}}
				}
				mustCreate(t, db, s)
				upd := insertKV(t, db, "kv", "a", "upd")
				del := insertKV(t, db, "kv", "a", "del")
				other := insertKV(t, db, "kv", "a", "other")
				reclaimed := insertKV(t, db, "kv", "a", "reclaimed")
				moved := insertKV(t, db, "kv", "b", "moved")
				gone := db.BeginDefault()
				if err := gone.Delete("kv", reclaimed); err != nil {
					t.Fatal(err)
				}
				if err := gone.Commit(); err != nil {
					t.Fatal(err)
				}
				if st := db.Vacuum(); st.RowsReclaimed != 1 {
					t.Fatalf("vacuum reclaimed %d rows, want 1", st.RowsReclaimed)
				}

				tx := db.Begin(level)
				defer tx.Rollback()
				// A concurrent commit after tx's snapshot, before tx locks anything.
				peer := db.BeginDefault()
				if err := peer.Update("kv", other, map[string]Value{"value": Str("other2")}); err != nil {
					t.Fatal(err)
				}
				if err := peer.Commit(); err != nil {
					t.Fatal(err)
				}
				if err := tx.Update("kv", upd, map[string]Value{"value": Str("upd2")}); err != nil {
					t.Fatal(err)
				}
				if err := tx.Delete("kv", del); err != nil {
					t.Fatal(err)
				}
				ins, _, err := tx.Insert("kv", map[string]Value{"key": Str("a"), "value": Str("ins")})
				if err != nil {
					t.Fatal(err)
				}
				if err := tx.Update("kv", moved, map[string]Value{"key": Str("a")}); err != nil {
					t.Fatal(err)
				}

				otherSeen := "other2"
				if level.snapshotReads() {
					otherSeen = "other"
				}
				for _, forUpdate := range []bool{false, true} {
					got := map[RowID]string{}
					err := tx.Scan("kv", ScanOptions{Filter: &EqFilter{Column: "key", Value: Str("a")}, ForUpdate: forUpdate},
						func(id RowID, vals []Value) bool {
							if _, dup := got[id]; dup {
								t.Errorf("forUpdate=%v: row %d emitted twice", forUpdate, id)
							}
							got[id] = vals[2].S
							return true
						})
					if err != nil {
						t.Fatal(err)
					}
					want := map[RowID]string{upd: "upd2", other: otherSeen, ins: "ins", moved: "moved"}
					if forUpdate {
						want[other] = "other2"
					}
					if fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("forUpdate=%v: got %v, want %v", forUpdate, got, want)
					}
				}
			})
		}
	}
}

// TestScanConcurrentWithCommitsAndVacuum runs snapshot scans, full and
// indexed, against writers that each delete one row and insert another, with
// Vacuum reclaiming the dead rows underneath. Under -race it checks the scan
// path's locking; the row count a snapshot sees must never move.
func TestScanConcurrentWithCommitsAndVacuum(t *testing.T) {
	const rows = 300
	db := kvTable(t, 0, true)
	for i := 0; i < rows; i++ {
		insertKV(t, db, "kv", "live", fmt.Sprint(i))
	}
	filters := []*EqFilter{nil, {Column: "key", Value: Str("live")}, {Column: "value", Value: Str("0")}}
	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				tx := db.Begin(SnapshotIsolation)
				var victim RowID
				tx.Scan("kv", ScanOptions{Filter: filters[1]}, func(id RowID, _ []Value) bool {
					victim = id
					return id%2 != RowID(w) // spread the writers over different rows
				})
				if victim == 0 || tx.Delete("kv", victim) != nil {
					tx.Rollback()
					continue
				}
				if _, _, err := tx.Insert("kv", map[string]Value{"key": Str("live"), "value": Str(fmt.Sprint(i))}); err != nil {
					errs <- err
					return
				}
				tx.Commit() // first-committer-wins aborts are expected
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			db.Vacuum()
			time.Sleep(time.Millisecond)
		}
	}()
	// Keep scanning until the writers have replaced a good share of the rows.
	for i := 0; i < 200 || db.Stats().Commits < 2*rows; i++ {
		tx := db.Begin(SnapshotIsolation)
		for _, f := range filters[:2] {
			n := 0
			seen := map[RowID]bool{}
			if err := tx.Scan("kv", ScanOptions{Filter: f}, func(id RowID, vals []Value) bool {
				if seen[id] {
					t.Errorf("row %d emitted twice", id)
				}
				seen[id] = true
				n++
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if n != rows {
				t.Fatalf("snapshot scan (filter %v) saw %d rows, want %d", f, n, rows)
			}
		}
		if err := tx.Scan("kv", ScanOptions{Filter: filters[2]}, func(RowID, []Value) bool { return true }); err != nil {
			t.Fatal(err)
		}
		tx.Rollback()
	}
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestIndexBucketsStaySortedAndCopyOnWrite(t *testing.T) {
	db := kvTable(t, 0, true)
	first, second := db.BeginDefault(), db.BeginDefault()
	a, _, _ := first.Insert("kv", map[string]Value{"key": Str("x")})
	b, _, _ := second.Insert("kv", map[string]Value{"key": Str("x")})
	c := insertKV(t, db, "kv", "x", "")
	if err := second.Commit(); err != nil {
		t.Fatal(err)
	}
	tbl, _ := db.lookupTable("kv")
	held := tbl.indexOn("key").buckets[Str("x").Key()]
	if err := first.Commit(); err != nil {
		t.Fatal(err)
	}
	if want := []RowID{b, c}; !slices.Equal(held, want) {
		t.Fatalf("bucket held across an out-of-order install changed to %v, want %v", held, want)
	}
	if got, want := tbl.indexOn("key").buckets[Str("x").Key()], []RowID{a, b, c}; !slices.Equal(got, want) {
		t.Fatalf("bucket = %v, want %v", got, want)
	}
	if err := db.AddIndex("kv", "value", false); err != nil {
		t.Fatal(err)
	}
	db.Vacuum()
	for _, col := range []string{"key", "value"} {
		for key, ids := range tbl.indexOn(col).buckets {
			if !slices.IsSorted(ids) {
				t.Fatalf("%s bucket %q not sorted: %v", col, key, ids)
			}
		}
	}
}
