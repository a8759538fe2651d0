package faultinject_test

import (
	"errors"
	"testing"
	"time"

	"feralcc/internal/faultinject"
	"feralcc/internal/storage"
)

func orderTestDB(t *testing.T, inj *faultinject.Injector) *storage.Database {
	t.Helper()
	db, err := storage.OpenDir(storage.Options{
		DataDir:     t.TempDir(),
		LockTimeout: 2 * time.Second,
		FaultHook:   inj.EngineHook(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if err := db.CreateTable(&storage.Schema{
		Name: "kv",
		Columns: []storage.Column{
			{Name: "id", Kind: storage.KindInt, PrimaryKey: true},
			{Name: "value", Kind: storage.KindString},
		},
	}); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestStatementPointOrder pins the cross-point evaluation order within one
// committing statement: storage.commit (before validation), then
// storage.wal.append (as the record joins the group-commit queue), then
// storage.wal.fsync (SyncAlways). The order was previously unspecified; the
// directed scheduler made it observable, so it is now contract. Latency
// faults with zero delay fire at every point without failing anything, and
// the fired ledger records the consult order.
func TestStatementPointOrder(t *testing.T) {
	inj := faultinject.New(1)
	db := orderTestDB(t, inj) // arm after DDL so CreateTable's WAL records stay out of the ledger
	for _, pt := range []string{
		faultinject.PointStorageCommit,
		faultinject.PointWALAppend,
		faultinject.PointWALFsync,
	} {
		inj.Arm(pt, faultinject.Rule{Kind: faultinject.KindLatency, Rate: 1})
	}

	tx := db.Begin(storage.ReadCommitted)
	if _, _, err := tx.Insert("kv", map[string]storage.Value{"value": storage.Str("x")}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	want := []string{
		faultinject.PointStorageCommit,
		faultinject.PointWALAppend,
		faultinject.PointWALFsync,
	}
	fired := inj.Fired()
	if len(fired) != len(want) {
		t.Fatalf("fired %d faults, want %d: %+v", len(fired), len(want), fired)
	}
	for i, f := range fired {
		if f.Point != want[i] {
			t.Errorf("fired[%d] = %s, want %s", i, f.Point, want[i])
		}
	}
}

// TestEarlierPointFaultSkipsLater pins the abort half of the contract: a
// failing fault at storage.commit aborts the statement before the WAL points
// are consulted, so their deterministic sequence numbers do not advance.
func TestEarlierPointFaultSkipsLater(t *testing.T) {
	inj := faultinject.New(1)
	db := orderTestDB(t, inj)
	inj.Arm(faultinject.PointStorageCommit, faultinject.Rule{Kind: faultinject.KindSerialization, Rate: 1})
	inj.Arm(faultinject.PointWALAppend, faultinject.Rule{Kind: faultinject.KindLatency, Rate: 1})
	inj.Arm(faultinject.PointWALFsync, faultinject.Rule{Kind: faultinject.KindLatency, Rate: 1})

	tx := db.Begin(storage.ReadCommitted)
	if _, _, err := tx.Insert("kv", map[string]storage.Value{"value": storage.Str("x")}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); !errors.Is(err, storage.ErrSerialization) {
		t.Fatalf("commit err = %v, want injected serialization abort", err)
	}

	stats := inj.Stats()
	if n := stats[faultinject.PointStorageCommit].Evals; n != 1 {
		t.Errorf("storage.commit evals = %d, want 1", n)
	}
	for _, pt := range []string{faultinject.PointWALAppend, faultinject.PointWALFsync} {
		if n := stats[pt].Evals; n != 0 {
			t.Errorf("%s evals = %d, want 0 — aborted statement must not reach later points", pt, n)
		}
	}
}

// TestRuleOrderWithinPoint pins first-fire-wins in Arm order when several
// always-firing rules share a point.
func TestRuleOrderWithinPoint(t *testing.T) {
	inj := faultinject.New(7)
	inj.Arm("p",
		faultinject.Rule{Kind: faultinject.KindLatency, Rate: 1},
		faultinject.Rule{Kind: faultinject.KindError, Rate: 1},
	)
	for i := 0; i < 8; i++ {
		f := inj.Eval("p")
		if f == nil || f.Kind != faultinject.KindLatency {
			t.Fatalf("eval %d: %+v, want the first armed rule (latency) to win every draw", i, f)
		}
	}
	if fires := inj.Stats()["p"].Fires[faultinject.KindError]; fires != 0 {
		t.Errorf("second rule fired %d times behind a rate-1 first rule", fires)
	}
}
