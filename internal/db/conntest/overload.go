package conntest

import (
	"errors"
	"testing"

	"feralcc/internal/db"
	"feralcc/internal/histcheck"
	"feralcc/internal/storage"
)

// OverloadFactory provisions a fresh database opened with the given options
// (the suite passes bounded-queue settings) plus history recording. connect
// opens a new connection to that database; capture snapshots its history.
type OverloadFactory func(t *testing.T, opts storage.Options) (connect func() db.Conn, capture func() []histcheck.Event)

// RunOverload is the shared contract suite for overload-shed semantics,
// exercised against both the embedded connection (internal/db) and the wire
// client (internal/wire). The contract: a shed surfaces as an error that
// errors.Is-matches storage.ErrOverloaded, classifies retryable and
// transient, carries a positive retry-after hint — identically on both
// seams — and leaves no trace in the database, which the history checker
// verifies as the absence of G1a (no committed transaction ever observes a
// shed statement's effects, because a shed statement has none).
func RunOverload(t *testing.T, factory OverloadFactory) {
	// A negative LockQueueBound forbids lock waiting entirely: any acquire
	// that would block sheds immediately, which makes the contended schedule
	// below deterministic without sleeps or timing assumptions.
	opts := storage.Options{LockQueueBound: -1, RecordHistory: true}

	t.Run("ShedClassification", func(t *testing.T) {
		connect, _ := factory(t, opts)
		a, b := connect(), connect()
		defer a.Close()
		defer b.Close()
		mustExec(t, a, "CREATE TABLE kv (id BIGINT PRIMARY KEY, key TEXT, value TEXT)")
		mustExec(t, a, "INSERT INTO kv (key, value) VALUES ('k', 'original')")

		// a holds the row's exclusive lock in an open transaction; b's
		// update would have to queue, and the bound says queues are full.
		mustExec(t, a, "BEGIN")
		mustExec(t, a, "UPDATE kv SET value = 'held' WHERE key = 'k'")
		_, err := b.Exec("UPDATE kv SET value = 'intruder' WHERE key = 'k'")
		if err == nil {
			t.Fatal("contended update with a full lock queue must shed")
		}
		if !errors.Is(err, storage.ErrOverloaded) {
			t.Fatalf("shed must match storage.ErrOverloaded, got %v", err)
		}
		if !db.Retryable(err) {
			t.Fatalf("shed must classify retryable (after backoff), got %v", err)
		}
		if !db.Transient(err) {
			t.Fatalf("shed must classify transient, got %v", err)
		}
		hint, ok := db.RetryAfter(err)
		if !ok || hint <= 0 {
			t.Fatalf("shed must carry a positive retry-after hint, got %v ok=%v", hint, ok)
		}

		// Retryable-after-backoff means exactly this: once the contention is
		// gone, the same statement on the same connection succeeds.
		mustExec(t, a, "COMMIT")
		mustExec(t, b, "UPDATE kv SET value = 'second-try' WHERE key = 'k'")
	})

	t.Run("ShedLeavesNoTrace", func(t *testing.T) {
		connect, capture := factory(t, opts)
		a, b := connect(), connect()
		defer a.Close()
		defer b.Close()
		mustExec(t, a, "CREATE TABLE kv (id BIGINT PRIMARY KEY, key TEXT, value TEXT)")
		mustExec(t, a, "INSERT INTO kv (key, value) VALUES ('k', 'original')")

		mustExec(t, a, "BEGIN")
		mustExec(t, a, "UPDATE kv SET value = 'winner' WHERE key = 'k'")
		// b's shed statement aborts b's transaction; nothing it attempted
		// may ever become visible.
		mustExec(t, b, "BEGIN")
		if _, err := b.Exec("UPDATE kv SET value = 'phantom' WHERE key = 'k'"); !errors.Is(err, storage.ErrOverloaded) {
			t.Fatalf("expected shed, got %v", err)
		}
		b.Exec("ROLLBACK")
		mustExec(t, a, "COMMIT")

		res, err := b.Exec("SELECT value FROM kv WHERE key = 'k'")
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Rows[0][0].S; got != "winner" {
			t.Fatalf("shed statement left a trace: value = %q", got)
		}

		rep := histcheck.Check(capture())
		if rep.Has(histcheck.G1a) {
			t.Fatalf("shed produced an aborted read (G1a):\n%s", rep)
		}
		if !rep.Pass() {
			t.Fatalf("history with sheds must check clean:\n%s", rep)
		}
	})

	t.Run("ShedFirstStatementAfterBegin", func(t *testing.T) {
		connect, capture := factory(t, opts)
		a, b := connect(), connect()
		defer a.Close()
		defer b.Close()
		mustExec(t, a, "CREATE TABLE kv (id BIGINT PRIMARY KEY, key TEXT, value TEXT)")
		mustExec(t, a, "INSERT INTO kv (key, value) VALUES ('k', 'original')")
		begin, err := b.Prepare("BEGIN")
		if err != nil {
			t.Fatal(err)
		}
		defer begin.Close()

		mustExec(t, a, "BEGIN")
		mustExec(t, a, "UPDATE kv SET value = 'held' WHERE key = 'k'")
		// b's transaction opens with a prepared BEGIN, which a remote
		// connection may send together with the statement that sheds.
		mustBegin(t, begin)
		if _, err := b.Exec("UPDATE kv SET value = 'phantom' WHERE key = 'k'"); !errors.Is(err, storage.ErrOverloaded) {
			t.Fatalf("expected shed, got %v", err)
		}
		// The shed aborted b's transaction along with its first statement.
		if _, err := b.Exec("COMMIT"); err == nil {
			t.Fatal("COMMIT succeeded after the transaction's first statement was shed")
		}
		mustExec(t, a, "COMMIT")

		res, err := b.Exec("SELECT value FROM kv WHERE key = 'k'")
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Rows[0][0].S; got != "held" {
			t.Fatalf("shed statement left a trace: value = %q", got)
		}
		updates := 0
		for _, e := range capture() {
			if e.Kind == histcheck.KindWrite && e.Op == "update" {
				updates++
			}
		}
		if updates != 1 {
			t.Fatalf("history holds %d installed updates, want only the holder's", updates)
		}
	})
}
