package conntest

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"feralcc/internal/db"
	"feralcc/internal/faultinject"
	"feralcc/internal/histcheck"
	"feralcc/internal/sqlexec"
	"feralcc/internal/storage"
)

// BeginSeam is one side of the Conn seam, provisioned for the BEGIN suite: a
// fresh database with history recording, connections whose faults Faults
// arms, and the seam's names for two fault sites.
type BeginSeam struct {
	Connect func() db.Conn
	History func() []histcheck.Event
	Faults  *faultinject.Injector
	// RejectPoint is where a drop fault rejects a statement before it
	// executes, aborting any open transaction.
	RejectPoint string
	// DropPoint is where a drop fault severs the connection before the
	// statement reaches the executor.
	DropPoint string
}

// BeginFactory provisions a fresh BeginSeam.
type BeginFactory func(t *testing.T) BeginSeam

// RunBegin pins what a prepared BEGIN does at the failure edges. A remote
// connection may pipeline a prepared BEGIN onto the transaction's first
// statement instead of spending a round trip on it; these cases make that
// invisible. In each, the failed transaction's first statement inserts into
// the probe table, and the case checks that it never executed, by row count
// and by the recorded history.
func RunBegin(t *testing.T, factory BeginFactory) {
	t.Run("BeginInsideTransaction", func(t *testing.T) {
		seam := factory(t)
		conn, begin := beginSetup(t, seam)
		mustBegin(t, begin)
		mustExec(t, conn, "INSERT INTO probe (key) VALUES ('outer')")
		if _, err := begin.Exec(); !isTxInProgress(err) {
			t.Fatalf("BEGIN inside a transaction: got %v, want %v", err, sqlexec.ErrTxInProgress)
		}
		// The failed BEGIN leaves the outer transaction open and intact.
		mustExec(t, conn, "COMMIT")
		probeCount(t, conn, "outer", 1)

		// The same with the outer BEGIN still unsent: the inner one must
		// fail rather than run as the outer's first statement unnoticed.
		mustBegin(t, begin)
		if _, err := begin.Exec(); !isTxInProgress(err) {
			t.Fatalf("second BEGIN: got %v, want %v", err, sqlexec.ErrTxInProgress)
		}
		mustExec(t, conn, "INSERT INTO probe (key) VALUES ('second')")
		mustExec(t, conn, "COMMIT")
		probeCount(t, conn, "second", 1)
	})

	t.Run("ExpiredContextOnFirstStatement", func(t *testing.T) {
		seam := factory(t)
		conn, begin := beginSetup(t, seam)
		mustBegin(t, begin)
		ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
		defer cancel()
		_, err := conn.ExecContext(ctx, "INSERT INTO probe (key) VALUES ('doomed')")
		if !errors.Is(err, storage.ErrStmtDeadline) && !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("expired first statement: got %v, want a timeout", err)
		}
		probeUntouched(t, seam, conn, "doomed")
		// The refused statement took its transaction with it.
		if _, err := conn.Exec("COMMIT"); err == nil {
			t.Fatal("COMMIT succeeded after the transaction's first statement was refused")
		}
		beginInsertCommit(t, conn, begin, "after")
	})

	t.Run("RejectedFirstStatement", func(t *testing.T) {
		seam := factory(t)
		conn, begin := beginSetup(t, seam)
		mustBegin(t, begin)
		seam.Faults.Arm(seam.RejectPoint, faultinject.Rule{Kind: faultinject.KindDrop, Rate: 1, Limit: 1})
		if _, err := conn.Exec("INSERT INTO probe (key) VALUES ('rejected')"); err == nil {
			t.Fatal("statement ran through an armed rejection")
		}
		probeUntouched(t, seam, conn, "rejected")
		if _, err := conn.Exec("COMMIT"); err == nil {
			t.Fatal("COMMIT succeeded after the transaction's first statement was rejected")
		}
		beginInsertCommit(t, conn, begin, "after")
	})

	t.Run("DroppedBeforeFirstStatement", func(t *testing.T) {
		seam := factory(t)
		conn, begin := beginSetup(t, seam)
		mustBegin(t, begin)
		seam.Faults.Arm(seam.DropPoint, faultinject.Rule{Kind: faultinject.KindDrop, Rate: 1, Limit: 1})
		_, err := conn.Exec("INSERT INTO probe (key) VALUES ('dropped')")
		if !errors.Is(err, db.ErrConnDropped) || !db.Retryable(err) {
			t.Fatalf("drop before the first statement: got %v, want a retryable dropped connection", err)
		}
		probeUntouched(t, seam, conn, "dropped")

		// The transaction died with the connection: the next statement
		// autocommits on a fresh session, visible at once to others.
		mustExec(t, conn, "INSERT INTO probe (key) VALUES ('auto')")
		other := seam.Connect()
		defer other.Close()
		probeCount(t, other, "auto", 1)
		if _, err := conn.Exec("COMMIT"); err == nil {
			t.Fatal("COMMIT found a transaction that died with its connection")
		}

		// Under db.Reliable the same drop is invisible: the transaction is
		// replayed from its BEGIN on the fresh session.
		rel := db.Reliable(conn, db.RetryPolicy{MaxRetries: 3, Seed: 1})
		mustExec(t, rel, "BEGIN")
		seam.Faults.Arm(seam.DropPoint, faultinject.Rule{Kind: faultinject.KindDrop, Rate: 1, Limit: 1})
		mustExec(t, rel, "INSERT INTO probe (key) VALUES ('replayed')")
		mustExec(t, rel, "COMMIT")
		probeCount(t, other, "replayed", 1)
	})
}

// beginSetup creates the probe table and prepares BEGIN on a new connection.
func beginSetup(t *testing.T, seam BeginSeam) (db.Conn, db.Stmt) {
	t.Helper()
	conn := seam.Connect()
	t.Cleanup(func() { conn.Close() })
	mustExec(t, conn, "CREATE TABLE probe (id BIGINT PRIMARY KEY, key TEXT)")
	begin, err := conn.Prepare("BEGIN")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { begin.Close() })
	return conn, begin
}

func mustBegin(t *testing.T, st db.Stmt) {
	t.Helper()
	if _, err := st.Exec(); err != nil {
		t.Fatalf("BEGIN: %v", err)
	}
}

// beginInsertCommit checks that the connection still runs a whole
// transaction through the prepared BEGIN.
func beginInsertCommit(t *testing.T, conn db.Conn, begin db.Stmt, key string) {
	t.Helper()
	mustBegin(t, begin)
	mustExec(t, conn, "INSERT INTO probe (key) VALUES ('"+key+"')")
	mustExec(t, conn, "COMMIT")
	probeCount(t, conn, key, 1)
}

// isTxInProgress matches the executor's BEGIN-inside-a-transaction error on
// either seam (the wire carries it as text).
func isTxInProgress(err error) bool {
	return err != nil && strings.Contains(err.Error(), sqlexec.ErrTxInProgress.Error())
}

func probeCount(t *testing.T, conn db.Conn, key string, want int64) {
	t.Helper()
	res, err := conn.Exec("SELECT COUNT(*) FROM probe WHERE key = ?", storage.Str(key))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].I; got != want {
		t.Fatalf("probe rows with key %q: %d, want %d", key, got, want)
	}
}

// probeUntouched checks that no statement has executed against the probe
// table: no row carries key, and the history holds no event on the table.
func probeUntouched(t *testing.T, seam BeginSeam, conn db.Conn, key string) {
	t.Helper()
	for _, e := range seam.History() {
		if e.Table == "probe" {
			t.Fatalf("a statement that never ran left a history event: %+v", e)
		}
	}
	probeCount(t, conn, key, 0)
}
