package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
	"time"

	"feralcc/internal/sched"
)

// appendRawFrame appends one checksummed frame carrying payload to dir's log,
// the way a crashed writer could have left it.
func appendRawFrame(t *testing.T, dir string, payload []byte) {
	t.Helper()
	frame := make([]byte, walHeaderSize, walHeaderSize+len(payload))
	binary.BigEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(frame[4:8], crc32.Checksum(payload, crcTable))
	frame = append(frame, payload...)
	f, err := os.OpenFile(filepath.Join(dir, walFileName), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(frame); err != nil {
		t.Fatal(err)
	}
}

// groupPayload builds a recGroupCommit payload from sub-record payloads.
func groupPayload(subs ...[]byte) []byte {
	b := binary.AppendUvarint([]byte{recGroupCommit}, uint64(len(subs)))
	for _, s := range subs {
		b = binary.AppendUvarint(b, uint64(len(s)))
		b = append(b, s...)
	}
	return b
}

// TestRecoveryGroupFrameAllOrNothing pins that a checksummed group frame
// whose later sub-record does not decode is a corrupt tail as a whole: the
// first open installs none of its sub-records, so it agrees with every later
// open of the truncated log.
func TestRecoveryGroupFrameAllOrNothing(t *testing.T) {
	dir := t.TempDir()
	db := durableDB(t, dir, Options{})
	mustCreate(t, db, kvSchema("kv"))
	valid := encodeCommit(map[string]map[RowID]*txWrite{
		"kv": {1: {op: opInsert, vals: []Value{Int(1), Str("k"), Str("v")}}},
	}, db.Clock()+1)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	appendRawFrame(t, dir, groupPayload(valid, []byte{recCommit, 0xff, 0xff, 0xff}))

	for _, pass := range []string{"first open", "reopen"} {
		re := durableDB(t, dir, Options{})
		if n := countRows(t, re, "kv", nil); n != 0 {
			t.Errorf("%s: %d rows from a corrupt group frame, want 0", pass, n)
		}
		if pass == "first open" && !re.Recovery().CorruptTail {
			t.Errorf("%s: recovery %+v, want a corrupt tail", pass, re.Recovery())
		}
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCloseIdempotent closes a durable database twice at every sync policy,
// then checks that a commit and a DDL statement started after Close fail
// instead of hanging or panicking.
func TestCloseIdempotent(t *testing.T) {
	for _, pol := range []SyncPolicy{SyncAlways, SyncInterval, SyncOff} {
		t.Run(pol.String(), func(t *testing.T) {
			db := durableDB(t, t.TempDir(), Options{SyncPolicy: pol, SyncInterval: time.Millisecond})
			mustCreate(t, db, kvSchema("kv"))
			insertKV(t, db, "kv", "a", "1")
			if err := db.Close(); err != nil {
				t.Fatalf("first close: %v", err)
			}
			if err := db.Close(); err != nil {
				t.Fatalf("second close: %v", err)
			}
			done := make(chan error, 1)
			go func() {
				tx := db.BeginDefault()
				if _, _, err := tx.Insert("kv", map[string]Value{"key": Str("b")}); err != nil {
					done <- fmt.Errorf("insert: %w", err)
					return
				}
				done <- tx.Commit()
			}()
			select {
			case err := <-done:
				if err == nil {
					t.Fatal("commit after Close succeeded")
				}
			case <-time.After(10 * time.Second):
				t.Fatal("commit after Close hung")
			}
			if err := db.CreateTable(kvSchema("other")); err == nil {
				t.Fatal("DDL after Close succeeded")
			}
		})
	}
}

// TestGroupCommitElectionUnderScheduler holds the first committer at the
// election point (its record queued) until the second has queued too: the
// leader must then write both records as one group frame of 2 transactions.
func TestGroupCommitElectionUnderScheduler(t *testing.T) {
	dir := t.TempDir()
	s := sched.New(2, sched.Schedule{Delays: []sched.Delay{{
		Task: 0, Point: YieldWALAppend,
		Until: sched.Until{Task: 1, Point: YieldWALAppend},
	}}})
	db := durableDB(t, dir, Options{Yielder: s})
	mustCreate(t, db, kvSchema("kv"))
	before := walSize(t, dir)
	commit := func(key string) func() {
		return func() {
			tx := db.BeginDefault()
			if _, _, err := tx.Insert("kv", map[string]Value{"key": Str(key)}); err != nil {
				t.Errorf("insert %s: %v", key, err)
				tx.Rollback()
				return
			}
			if err := tx.Commit(); err != nil {
				t.Errorf("commit %s: %v", key, err)
			}
		}
	}
	s.Run(commit("a"), commit("b"))
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(filepath.Join(dir, walFileName))
	if err != nil {
		t.Fatal(err)
	}
	scan := scanWAL(raw[before:])
	if len(scan.payloads) != 1 {
		t.Fatalf("two commits met at the election point but wrote %d frames", len(scan.payloads))
	}
	p := scan.payloads[0]
	if n, used := binary.Uvarint(p[1:]); p[0] != recGroupCommit || used <= 0 || n != 2 {
		t.Fatalf("frame is type %d with %d transactions, want one group frame of 2", p[0], n)
	}
	re := durableDB(t, dir, Options{})
	defer re.Close()
	if n := countRows(t, re, "kv", nil); n != 2 {
		t.Fatalf("recovered %d rows, want 2", n)
	}
}

// TestDurableCommitAllocs pins the allocation cost of one durable
// insert-and-commit by a lone committer at SyncOff: the ceiling is what the
// old serial commit path spent, so the pipeline's coordination must stay
// allocation-free.
func TestDurableCommitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on the measured path")
	}
	db := durableDB(t, t.TempDir(), Options{SyncPolicy: SyncOff})
	defer db.Close()
	mustCreate(t, db, &Schema{Name: "accounts", Columns: []Column{
		{Name: "id", Kind: KindInt, PrimaryKey: true},
		{Name: "balance", Kind: KindInt},
	}})
	i := int64(0)
	commit := func() {
		tx := db.BeginDefault()
		if _, _, err := tx.Insert("accounts", map[string]Value{"balance": Int(i)}); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		i++
	}
	commit()
	const ceiling = 37
	if n := testing.AllocsPerRun(500, commit); n > ceiling {
		t.Fatalf("durable insert+commit allocates %.1f times, ceiling %d", n, ceiling)
	}
}
