package sqlexec

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"feralcc/internal/storage"
)

func newTestDB(t *testing.T) (*storage.Database, *Session) {
	t.Helper()
	store := storage.Open(storage.Options{})
	s := NewSession(store)
	if _, err := s.Exec("CREATE TABLE t (id BIGINT PRIMARY KEY, a TEXT)"); err != nil {
		t.Fatal(err)
	}
	return store, s
}

func TestPrepareResolvesSchemaOnce(t *testing.T) {
	_, s := newTestDB(t)
	p, err := s.Prepare("SELECT a FROM t WHERE id = ?")
	if err != nil {
		t.Fatal(err)
	}
	if p.NumParams() != 1 {
		t.Fatalf("NumParams = %d", p.NumParams())
	}
	if len(p.schemas) != 1 || p.schemas["t"] == nil {
		t.Fatalf("schema not resolved at prepare time: %v", p.schemas)
	}
	if _, err := s.Exec("INSERT INTO t (a) VALUES ('x')"); err != nil {
		t.Fatal(err)
	}
	res, err := s.ExecutePrepared(p, storage.Int(1))
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].S != "x" {
		t.Fatalf("%+v %v", res, err)
	}
}

func TestPrepareUnknownTableDefersResolution(t *testing.T) {
	store := storage.Open(storage.Options{})
	s := NewSession(store)
	p, err := s.Prepare("SELECT a FROM later")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ExecutePrepared(p); err == nil {
		t.Fatal("execution should fail before CREATE TABLE")
	}
	if _, err := s.Exec("CREATE TABLE later (id BIGINT PRIMARY KEY, a TEXT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ExecutePrepared(p); err != nil {
		t.Fatalf("plan not refreshed after CREATE TABLE: %v", err)
	}
}

// TestSchemaEpochBumpsOnDDL pins which operations invalidate plans.
func TestSchemaEpochBumpsOnDDL(t *testing.T) {
	store, s := newTestDB(t)
	ddl := []string{
		"CREATE TABLE u (id BIGINT PRIMARY KEY, e TEXT)",
		"CREATE UNIQUE INDEX ON u (e)",
		"ALTER TABLE u ADD FOREIGN KEY (id) REFERENCES t (id)",
		"DROP TABLE u",
	}
	for _, stmt := range ddl {
		before := store.SchemaEpoch()
		if _, err := s.Exec(stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
		if store.SchemaEpoch() == before {
			t.Errorf("%s did not bump the schema epoch", stmt)
		}
	}
	before := store.SchemaEpoch()
	if _, err := s.Exec("INSERT INTO t (a) VALUES ('x')"); err != nil {
		t.Fatal(err)
	}
	if store.SchemaEpoch() != before {
		t.Error("DML bumped the schema epoch")
	}
}

// TestStalePlanNeverExecutes is the DDL-invalidation acceptance test: a plan
// prepared against one table definition must not run against the catalog
// entry it captured once the table has been dropped and re-created with a
// different column set.
func TestStalePlanNeverExecutes(t *testing.T) {
	store, s := newTestDB(t)
	if _, err := s.Exec("INSERT INTO t (a) VALUES ('old')"); err != nil {
		t.Fatal(err)
	}
	p, err := s.Prepare("SELECT * FROM t")
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.ExecutePrepared(p)
	if err != nil || len(res.Columns) != 2 {
		t.Fatalf("before DDL: %+v %v", res, err)
	}
	staleEpoch := p.Epoch()

	if _, err := s.Exec("DROP TABLE t"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("CREATE TABLE t (id BIGINT PRIMARY KEY, a TEXT, b TEXT, c TEXT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("INSERT INTO t (a, b, c) VALUES ('n1', 'n2', 'n3')"); err != nil {
		t.Fatal(err)
	}
	if store.SchemaEpoch() == staleEpoch {
		t.Fatal("DDL did not advance the epoch; staleness undetectable")
	}

	// Executing the old handle must transparently re-prepare: the result has
	// to reflect the 4-column table, and the shared Prepared must not have
	// been mutated in place.
	res, err = s.ExecutePrepared(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Columns) != 4 || len(res.Rows) != 1 || len(res.Rows[0]) != 4 {
		t.Fatalf("stale plan executed: columns=%v rows=%v", res.Columns, res.Rows)
	}
	if p.Epoch() != staleEpoch {
		t.Fatal("shared Prepared mutated during refresh")
	}

	// Refreshed returns a distinct, current plan and leaves p alone.
	fresh, err := s.Refreshed(p)
	if err != nil {
		t.Fatal(err)
	}
	if fresh == p || fresh.Epoch() != store.SchemaEpoch() {
		t.Fatalf("Refreshed returned %p (epoch %d), want new plan at epoch %d",
			fresh, fresh.Epoch(), store.SchemaEpoch())
	}
}

func TestPlanCacheHitsAndInvalidation(t *testing.T) {
	store, s := newTestDB(t)
	c := NewPlanCache(64)
	const q = "SELECT a FROM t WHERE id = ?"
	p1, err := c.Get(s, q)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := c.Get(s, q)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatal("second Get did not hit the cache")
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats after hit: %+v", st)
	}
	// DDL: the cached plan is stale, Get must hand back a fresh one.
	if _, err := s.Exec("CREATE TABLE other (id BIGINT PRIMARY KEY)"); err != nil {
		t.Fatal(err)
	}
	p3, err := c.Get(s, q)
	if err != nil {
		t.Fatal(err)
	}
	if p3 == p1 {
		t.Fatal("cache served a stale plan after DDL")
	}
	if p3.Epoch() != store.SchemaEpoch() {
		t.Fatalf("refreshed plan at epoch %d, current %d", p3.Epoch(), store.SchemaEpoch())
	}
	if st := c.Stats(); st.Misses != 2 {
		t.Fatalf("stale entry should count as a miss: %+v", st)
	}
}

func TestPlanCacheParseErrorsNotCached(t *testing.T) {
	_, s := newTestDB(t)
	c := NewPlanCache(8)
	if _, err := c.Get(s, "SELEKT nope"); err == nil {
		t.Fatal("parse error swallowed")
	}
	if c.Len() != 0 {
		t.Fatalf("failed plan cached: len=%d", c.Len())
	}
}

// TestPlanCacheSizeBound fills the cache far past capacity and checks the
// LRU discipline holds per shard.
func TestPlanCacheSizeBound(t *testing.T) {
	_, s := newTestDB(t)
	const capacity = 32 // 2 per shard
	c := NewPlanCache(capacity)
	for i := 0; i < 10*capacity; i++ {
		q := fmt.Sprintf("SELECT a FROM t WHERE id = %d", i)
		if _, err := c.Get(s, q); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() > capacity {
		t.Fatalf("cache grew to %d entries, capacity %d", c.Len(), capacity)
	}
	if st := c.Stats(); st.Evictions == 0 {
		t.Fatalf("no evictions recorded: %+v", st)
	}
	// The most recently used entry must still be resident (a Get on it is a
	// hit, not a miss).
	last := fmt.Sprintf("SELECT a FROM t WHERE id = %d", 10*capacity-1)
	before := c.Stats().Hits
	if _, err := c.Get(s, last); err != nil {
		t.Fatal(err)
	}
	if c.Stats().Hits != before+1 {
		t.Fatal("most recent entry was evicted")
	}
}

// TestPlanCacheConcurrent hammers one cache from many goroutines, mixing
// lookups with DDL-driven invalidation; run under -race this is the
// concurrency-safety acceptance test.
func TestPlanCacheConcurrent(t *testing.T) {
	store, s := newTestDB(t)
	if _, err := s.Exec("INSERT INTO t (a) VALUES ('x')"); err != nil {
		t.Fatal(err)
	}
	c := NewPlanCache(16)
	queries := make([]string, 40)
	for i := range queries {
		queries[i] = fmt.Sprintf("SELECT a FROM t WHERE id = %d", i%8)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sess := NewSession(store)
			for i, q := range queries {
				p, err := c.Get(sess, q)
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := sess.ExecutePrepared(p); err != nil {
					t.Error(err)
					return
				}
				if g == 0 && i%10 == 0 {
					// Concurrent DDL invalidates everything mid-flight.
					_, _ = sess.Exec(fmt.Sprintf("CREATE TABLE tmp%d (id BIGINT PRIMARY KEY)", i))
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 16 {
		t.Fatalf("cache exceeded capacity under concurrency: %d", c.Len())
	}
}

// TestExecutePreparedDeadline pins the context-free deadline entry point: a
// deadline already passed refuses the statement as a timeout and aborts the
// open transaction, a future one runs it, and the zero time means none.
func TestExecutePreparedDeadline(t *testing.T) {
	_, s := newTestDB(t)
	ins, err := s.Prepare("INSERT INTO t (a) VALUES ('x')")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("BEGIN"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ExecutePreparedDeadline(time.Now().Add(-time.Millisecond), ins); !errors.Is(err, storage.ErrStmtDeadline) {
		t.Fatalf("passed deadline: got %v, want %v", err, storage.ErrStmtDeadline)
	}
	if s.InTx() {
		t.Fatal("a refused statement left its transaction open")
	}
	for _, dl := range []time.Time{{}, time.Now().Add(time.Minute)} {
		if _, err := s.ExecutePreparedDeadline(dl, ins); err != nil {
			t.Fatalf("deadline %v: %v", dl, err)
		}
	}
	res, err := s.Exec("SELECT COUNT(*) FROM t")
	if err != nil || res.Rows[0][0].I != 2 {
		t.Fatalf("rows: %+v %v", res, err)
	}
}
