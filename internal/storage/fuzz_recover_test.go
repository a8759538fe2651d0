package storage

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// FuzzRecoverWAL feeds arbitrary bytes to recovery as a write-ahead log. The
// seed corpus (testdata/fuzz/FuzzRecoverWAL) is a recorded log — DDL, a plain
// commit frame, a group frame — the same log followed by a checksummed group
// frame whose second sub-record does not decode, and the log with its middle
// commit frame cut out. Properties: OpenDir never panics or fails, and
// opening, closing and reopening the directory sees the same rows and the
// same CheckIntegrity verdict, because recovery truncates exactly what it
// declined to replay.
//
// CheckIntegrity is compared across opens rather than required to pass:
// every frame is checksummed on its own, so a log missing a whole middle
// frame (the dropped-middle-frame seed, which removes the parent row of a
// foreign key) replays as valid and recovers a state that violates the
// constraint. Only a checksum chained across frames could refuse it.
func FuzzRecoverWAL(f *testing.F) {
	f.Fuzz(func(t *testing.T, log []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, walFileName), log, 0o644); err != nil {
			t.Fatal(err)
		}
		var seen [2]string
		for i := range seen {
			db, err := OpenDir(Options{DataDir: dir, SyncPolicy: SyncOff})
			if err != nil {
				t.Fatalf("open %d: %v", i, err)
			}
			verdict := "integrity ok"
			if err := db.CheckIntegrity(); err != nil {
				verdict = err.Error()
			}
			seen[i] = verdict + "\n" + dumpLiveRows(db)
			if err := db.Close(); err != nil {
				t.Fatalf("close %d: %v", i, err)
			}
		}
		if seen[0] != seen[1] {
			t.Fatalf("reopen disagrees with first open:\nfirst:\n%s\nreopen:\n%s", seen[0], seen[1])
		}
	})
}

// dumpLiveRows renders every table's schema name and live rows in a stable
// order.
func dumpLiveRows(db *Database) string {
	db.catalogMu.RLock()
	defer db.catalogMu.RUnlock()
	names := make([]string, 0, len(db.tables))
	for name := range db.tables {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		t := db.tables[name]
		fmt.Fprintf(&b, "table %s\n", t.schema.Name)
		t.mu.RLock()
		t.eachLive(func(id RowID, v *version) {
			fmt.Fprintf(&b, "  %d:", id)
			for _, val := range v.vals {
				fmt.Fprintf(&b, " %s", val.Format())
			}
			b.WriteByte('\n')
		})
		t.mu.RUnlock()
	}
	return b.String()
}
