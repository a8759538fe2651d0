// Commit-storm suites for the staged commit pipeline: the pipeline must be
// observationally equivalent to a one-commit-at-a-time engine at every
// isolation level. Deterministic anomaly shapes pin the equivalence exactly —
// same per-step outcomes, same anomaly classes out of the offline checker as
// the serial commit path (one exclusive critical section per commit, since
// removed) produced, recorded in stormGolden — and a storm of disjoint and
// overlapping write sets, run both free and under the deterministic
// scheduler, gates the engine against each level's allowed-anomaly contract.
// Runs under -race via the chaos CI job.
package storage_test

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"feralcc/internal/histcheck"
	"feralcc/internal/sched"
	"feralcc/internal/storage"
)

var stormLevels = []storage.IsolationLevel{
	storage.ReadCommitted,
	storage.RepeatableRead,
	storage.SnapshotIsolation,
	storage.Serializable,
	storage.Serializable2PL,
}

// stormDB opens a history-recording engine, under the deterministic
// scheduler y when it is non-nil.
func stormDB(t *testing.T, level storage.IsolationLevel, y storage.Yielder) *storage.Database {
	t.Helper()
	db := storage.Open(storage.Options{
		DefaultIsolation: level,
		RecordHistory:    true,
		LockTimeout:      150 * time.Millisecond,
		Yielder:          y,
	})
	if err := db.CreateTable(&storage.Schema{
		Name: "kv",
		Columns: []storage.Column{
			{Name: "id", Kind: storage.KindInt, PrimaryKey: true},
			{Name: "key", Kind: storage.KindString},
			{Name: "value", Kind: storage.KindString},
		},
	}); err != nil {
		t.Fatal(err)
	}
	return db
}

func stormInsert(t *testing.T, db *storage.Database, key, value string) storage.RowID {
	t.Helper()
	tx := db.BeginDefault()
	id, _, err := tx.Insert("kv", map[string]storage.Value{
		"key": storage.Str(key), "value": storage.Str(value),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return id
}

// stormRead reads one row through Scan, the path that takes shared locks
// under the 2PL level.
func stormRead(tx *storage.Tx, id storage.RowID) error {
	return tx.Scan("kv", storage.ScanOptions{
		Filter: &storage.EqFilter{Column: "id", Value: storage.Int(int64(id))},
	}, func(storage.RowID, []storage.Value) bool { return false })
}

func stormUpdate(tx *storage.Tx, id storage.RowID, value string) error {
	return tx.Update("kv", id, map[string]storage.Value{"value": storage.Str(value)})
}

// errClass folds an error into the vocabulary the parity assertions compare:
// the engine must fail the same steps for the same reasons as the golden
// table records.
func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, storage.ErrSerialization):
		return "serialization"
	case errors.Is(err, storage.ErrLockTimeout):
		return "locktimeout"
	default:
		return err.Error()
	}
}

// A stormShape drives one deterministic two-transaction interleaving and
// returns a step-outcome signature. Steps tolerate the level-specific
// failures (FCW aborts, certification aborts, lock timeouts) and record them
// instead, so the signature captures exactly how the level resolved the
// conflict.
type stormShape struct {
	name string
	run  func(t *testing.T, db *storage.Database) string
}

var stormShapes = []stormShape{
	{"lost-update", func(t *testing.T, db *storage.Database) string {
		id := stormInsert(t, db, "a", "v0")
		t1, t2 := db.BeginDefault(), db.BeginDefault()
		r1 := stormRead(t1, id)
		r2 := stormRead(t2, id)
		u2 := stormUpdate(t2, id, "t2")
		c2 := error(nil)
		if u2 == nil {
			c2 = t2.Commit()
		} else {
			t2.Rollback()
		}
		u1 := stormUpdate(t1, id, "t1")
		c1 := error(nil)
		if u1 == nil {
			c1 = t1.Commit()
		} else {
			t1.Rollback()
		}
		return fmt.Sprintf("r1=%s r2=%s u2=%s c2=%s u1=%s c1=%s",
			errClass(r1), errClass(r2), errClass(u2), errClass(c2), errClass(u1), errClass(c1))
	}},
	{"write-skew", func(t *testing.T, db *storage.Database) string {
		x := stormInsert(t, db, "x", "on")
		y := stormInsert(t, db, "y", "on")
		t1, t2 := db.BeginDefault(), db.BeginDefault()
		r1 := stormRead(t1, x)
		r2 := stormRead(t2, y)
		u1 := stormUpdate(t1, y, "off")
		c1 := error(nil)
		if u1 == nil {
			c1 = t1.Commit()
		} else {
			t1.Rollback()
		}
		u2 := stormUpdate(t2, x, "off")
		c2 := error(nil)
		if u2 == nil {
			c2 = t2.Commit()
		} else {
			t2.Rollback()
		}
		return fmt.Sprintf("r1=%s r2=%s u1=%s c1=%s u2=%s c2=%s",
			errClass(r1), errClass(r2), errClass(u1), errClass(c1), errClass(u2), errClass(c2))
	}},
	{"phantom-insert", func(t *testing.T, db *storage.Database) string {
		// t1 predicate-reads an empty key range, t2 populates it and commits
		// first; serializable certification must see the phantom through the
		// predicate footprint.
		t1 := db.BeginDefault()
		r1 := t1.Scan("kv", storage.ScanOptions{
			Filter: &storage.EqFilter{Column: "key", Value: storage.Str("p")},
		}, func(storage.RowID, []storage.Value) bool { return true })
		_, _, u1 := t1.Insert("kv", map[string]storage.Value{
			"key": storage.Str("q"), "value": storage.Str("t1")})
		t2 := db.BeginDefault()
		_, _, u2 := t2.Insert("kv", map[string]storage.Value{
			"key": storage.Str("p"), "value": storage.Str("t2")})
		c2 := error(nil)
		if u2 == nil {
			c2 = t2.Commit()
		} else {
			t2.Rollback()
		}
		c1 := error(nil)
		if u1 == nil {
			c1 = t1.Commit()
		} else {
			t1.Rollback()
		}
		return fmt.Sprintf("r1=%s u1=%s u2=%s c2=%s c1=%s",
			errClass(r1), errClass(u1), errClass(u2), errClass(c2), errClass(c1))
	}},
}

// stormGolden is each shape's result at each level — step outcomes, commit
// census, checker classes — as the serial commit path produced it before its
// removal: every commit ran validate, log and install alone under the
// exclusive gate. The staged pipeline matched it byte for byte then, and must
// keep doing so.
var stormGolden = []struct {
	level, shape, outcome, commits, classes string
}{
	{"READ COMMITTED", "lost-update", "r1=ok r2=ok u2=ok c2=ok u1=ok c1=ok", "committed=3 aborted=0", "[G-single]"},
	{"READ COMMITTED", "write-skew", "r1=ok r2=ok u1=ok c1=ok u2=ok c2=ok", "committed=4 aborted=0", "[G2-item]"},
	{"READ COMMITTED", "phantom-insert", "r1=ok u1=ok u2=ok c2=ok c1=ok", "committed=2 aborted=0", "[]"},
	{"REPEATABLE READ", "lost-update", "r1=ok r2=ok u2=ok c2=ok u1=ok c1=ok", "committed=3 aborted=0", "[G-single]"},
	{"REPEATABLE READ", "write-skew", "r1=ok r2=ok u1=ok c1=ok u2=ok c2=ok", "committed=4 aborted=0", "[G2-item]"},
	{"REPEATABLE READ", "phantom-insert", "r1=ok u1=ok u2=ok c2=ok c1=ok", "committed=2 aborted=0", "[]"},
	{"SNAPSHOT ISOLATION", "lost-update", "r1=ok r2=ok u2=ok c2=ok u1=ok c1=serialization", "committed=2 aborted=1", "[]"},
	{"SNAPSHOT ISOLATION", "write-skew", "r1=ok r2=ok u1=ok c1=ok u2=ok c2=ok", "committed=4 aborted=0", "[G2-item]"},
	{"SNAPSHOT ISOLATION", "phantom-insert", "r1=ok u1=ok u2=ok c2=ok c1=ok", "committed=2 aborted=0", "[]"},
	{"SERIALIZABLE", "lost-update", "r1=ok r2=ok u2=ok c2=ok u1=ok c1=serialization", "committed=2 aborted=1", "[]"},
	{"SERIALIZABLE", "write-skew", "r1=ok r2=ok u1=ok c1=ok u2=ok c2=serialization", "committed=3 aborted=1", "[]"},
	{"SERIALIZABLE", "phantom-insert", "r1=ok u1=ok u2=ok c2=ok c1=serialization", "committed=1 aborted=1", "[]"},
	{"SERIALIZABLE 2PL", "lost-update", "r1=ok r2=ok u2=locktimeout c2=ok u1=ok c1=ok", "committed=2 aborted=1", "[]"},
	{"SERIALIZABLE 2PL", "write-skew", "r1=ok r2=ok u1=locktimeout c1=ok u2=ok c2=ok", "committed=3 aborted=1", "[]"},
	{"SERIALIZABLE 2PL", "phantom-insert", "r1=ok u1=ok u2=locktimeout c2=ok c1=ok", "committed=1 aborted=1", "[]"},
}

// TestChaosCommitStormShapeParity runs each deterministic conflict shape at
// every isolation level and requires the golden serial-path result exactly:
// the same step outcomes, the same commit/abort census, and the same anomaly
// classes from the offline checker. This pins the pipeline to the
// one-commit-at-a-time engine's observable isolation behavior.
func TestChaosCommitStormShapeParity(t *testing.T) {
	if got, want := len(stormGolden), len(stormLevels)*len(stormShapes); got != want {
		t.Fatalf("golden table has %d rows, want one per (level, shape) = %d", got, want)
	}
	for _, level := range stormLevels {
		for _, shape := range stormShapes {
			t.Run(fmt.Sprintf("%s/%s", level, shape.name), func(t *testing.T) {
				db := stormDB(t, level, nil)
				defer db.Close()
				outcome := shape.run(t, db)
				rep := histcheck.Check(db.History())
				if !rep.Pass() {
					t.Fatalf("history fails its own level:\n%s", rep)
				}
				commits := fmt.Sprintf("committed=%d aborted=%d", rep.Committed, rep.Aborted)
				classes := fmt.Sprintf("%v", rep.Classes())
				for _, g := range stormGolden {
					if g.level != level.String() || g.shape != shape.name {
						continue
					}
					if outcome != g.outcome || commits != g.commits || classes != g.classes {
						t.Fatalf("diverges from the serial commit path:\ngolden: %s | %s | classes %s\ngot:    %s | %s | classes %s",
							g.outcome, g.commits, g.classes, outcome, commits, classes)
					}
					t.Logf("%s @ %v: %s | %s | classes %s", shape.name, level, outcome, commits, classes)
					return
				}
				t.Fatalf("no golden row for %s @ %v", shape.name, level)
			})
		}
	}
}

// TestChaosCommitStormAllLevels runs a seeded storm of committers with
// disjoint write sets (each worker owns a private row) and overlapping ones
// (all workers contend on a shared row set) at every isolation level, and
// gates the recorded history: it must pass the checker, never show a
// structural anomaly, and never show a class the level's Allowed set
// proscribes. serial=true runs the workers under the deterministic scheduler
// with a seeded PCT schedule, so exactly one of them makes progress between
// yield points — commits serialized, group-commit election and CSN turns
// decided by the schedule; serial=false lets them race freely.
func TestChaosCommitStormAllLevels(t *testing.T) {
	const (
		seed    = 2015
		workers = 8
		ops     = 30
		shared  = 3
	)
	for _, level := range stormLevels {
		for _, serial := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/serial=%v", level, serial), func(t *testing.T) {
				var s *sched.Scheduler
				var y storage.Yielder
				if serial {
					s = sched.New(workers, sched.RandomSchedule(seed, workers, ops*8, 60))
					y = s
				}
				db := stormDB(t, level, y)
				defer db.Close()
				sharedIDs := make([]storage.RowID, shared)
				for i := range sharedIDs {
					sharedIDs[i] = stormInsert(t, db, fmt.Sprintf("s%d", i), "0")
				}
				ownIDs := make([]storage.RowID, workers)
				for w := range ownIDs {
					ownIDs[w] = stormInsert(t, db, fmt.Sprintf("w%d", w), "0")
				}

				bodies := make([]func(), workers)
				for w := range bodies {
					bodies[w] = func() {
						rng := rand.New(rand.NewSource(seed + int64(w)*7919))
						for op := 0; op < ops; op++ {
							id := ownIDs[w] // disjoint: private row, conflict-free
							if rng.Intn(2) == 0 {
								id = sharedIDs[rng.Intn(shared)] // overlapping
							}
							tx := db.BeginDefault()
							if err := stormRead(tx, id); err != nil {
								tx.Rollback()
								continue
							}
							if err := stormUpdate(tx, id, fmt.Sprintf("w%d-%d", w, op)); err != nil {
								tx.Rollback()
								continue
							}
							if err := tx.Commit(); err != nil &&
								!errors.Is(err, storage.ErrSerialization) &&
								!errors.Is(err, storage.ErrLockTimeout) {
								t.Errorf("unexpected commit error: %v", err)
							}
						}
					}
				}
				if s != nil {
					s.Run(bodies...)
				} else {
					var wg sync.WaitGroup
					for _, body := range bodies {
						wg.Add(1)
						go func() {
							defer wg.Done()
							body()
						}()
					}
					wg.Wait()
				}

				rep := histcheck.Check(db.History())
				t.Logf("storm at %v serial=%v: %d txs (%d committed, %d aborted), classes %v",
					level, serial, rep.Transactions, rep.Committed, rep.Aborted, rep.Classes())
				if !rep.Pass() {
					t.Fatalf("engine emitted a history %v forbids:\n%s", level, rep)
				}
				allowed := histcheck.Allowed(level.String())
				for _, a := range rep.Classes() {
					if !allowed[a] {
						t.Fatalf("%s appears at %v (serial=%v) but is proscribed:\n%s", a, level, serial, rep)
					}
				}
			})
		}
	}
}
