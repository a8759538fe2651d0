package db_test

import (
	"testing"
	"time"

	"feralcc/internal/db"
	"feralcc/internal/db/conntest"
	"feralcc/internal/faultinject"
	"feralcc/internal/histcheck"
	"feralcc/internal/storage"
)

// TestEmbeddedConnSuite runs the shared Conn behavioral suite against the
// embedded connection. The wire client runs the identical suite in
// internal/wire, which is what keeps the two implementations interchangeable.
func TestEmbeddedConnSuite(t *testing.T) {
	conntest.Run(t, func(t *testing.T) db.Conn {
		conn := db.Open(storage.Options{}).Connect()
		t.Cleanup(func() { conn.Close() })
		return conn
	})
}

// TestEmbeddedConnHistorySuite runs the shared history-capture suite against
// embedded connections; internal/wire runs the same suite across the
// protocol, so both seams feed the isolation checker identical histories.
func TestEmbeddedConnHistorySuite(t *testing.T) {
	conntest.RunHistory(t, func(t *testing.T) (func() db.Conn, func() []histcheck.Event) {
		d := db.Open(storage.Options{RecordHistory: true, LockTimeout: 250 * time.Millisecond})
		t.Cleanup(func() { d.Close() })
		return d.Connect, d.History
	})
}

// TestEmbeddedConnOverloadSuite runs the shared overload-shed contract suite
// against embedded connections; internal/wire runs the identical suite, which
// is what guarantees a shed classifies the same on both seams.
func TestEmbeddedConnOverloadSuite(t *testing.T) {
	conntest.RunOverload(t, func(t *testing.T, opts storage.Options) (func() db.Conn, func() []histcheck.Event) {
		d := db.Open(opts)
		t.Cleanup(func() { d.Close() })
		return d.Connect, d.History
	})
}

// TestEmbeddedConnBeginSuite runs the shared BEGIN failure-parity suite
// against embedded connections, with faults injected at the db.exec point;
// internal/wire runs it across the protocol, where a prepared BEGIN is
// pipelined onto the transaction's first statement.
func TestEmbeddedConnBeginSuite(t *testing.T) {
	conntest.RunBegin(t, func(t *testing.T) conntest.BeginSeam {
		d := db.Open(storage.Options{RecordHistory: true})
		t.Cleanup(func() { d.Close() })
		inj := faultinject.New(1)
		return conntest.BeginSeam{
			Connect:     func() db.Conn { return faultinject.Wrap(d.Connect(), inj) },
			History:     d.History,
			Faults:      inj,
			RejectPoint: faultinject.PointDBExec,
			DropPoint:   faultinject.PointDBExec,
		}
	})
}
