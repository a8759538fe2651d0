// Commit-throughput benchmark for the staged commit pipeline with
// leader/follower group commit. The sub-benchmark grid crosses the WAL sync
// policy with the number of concurrent committers. Each committer performs
// disjoint single-row inserts, so every measured commit is conflict-free and
// the curve isolates commit-path cost. `make bench-commit` records the grid;
// BENCH_6.json is the historical serial-vs-pipeline baseline from before the
// serial commit path was removed (its cells carry a mode= level).
package feralcc_test

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"feralcc/internal/storage"
)

func BenchmarkCommitThroughput(b *testing.B) {
	policies := []storage.SyncPolicy{storage.SyncAlways, storage.SyncInterval, storage.SyncOff}
	for _, pol := range policies {
		for _, workers := range []int{1, 4, 8, 16} {
			name := fmt.Sprintf("sync=%s/goroutines=%d", pol, workers)
			b.Run(name, func(b *testing.B) {
				benchCommitThroughput(b, pol, workers)
			})
		}
	}
}

// benchCommitThroughput drives b.N disjoint insert-commit transactions
// through `workers` goroutines against a durable store and reports the p99
// commit latency alongside the standard ns/op (wall time per commit).
func benchCommitThroughput(b *testing.B, pol storage.SyncPolicy, workers int) {
	store, err := storage.OpenDir(storage.Options{
		DataDir:    b.TempDir(),
		SyncPolicy: pol,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	if err := store.CreateTable(&storage.Schema{Name: "accounts", Columns: []storage.Column{
		{Name: "id", Kind: storage.KindInt, PrimaryKey: true},
		{Name: "balance", Kind: storage.KindInt},
	}}); err != nil {
		b.Fatal(err)
	}

	lat := make([][]time.Duration, workers)
	next := int64(-1)
	b.ResetTimer()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			durs := make([]time.Duration, 0, b.N/workers+1)
			for {
				i := atomic.AddInt64(&next, 1)
				if i >= int64(b.N) {
					break
				}
				opStart := time.Now()
				tx := store.BeginDefault()
				if _, _, err := tx.Insert("accounts", map[string]storage.Value{
					"balance": storage.Int(i),
				}); err != nil {
					tx.Rollback()
					b.Error(err)
					return
				}
				if err := tx.Commit(); err != nil {
					b.Error(err)
					return
				}
				durs = append(durs, time.Since(opStart))
			}
			lat[w] = durs
		}(w)
	}
	wg.Wait()
	b.StopTimer()

	var all []time.Duration
	for _, durs := range lat {
		all = append(all, durs...)
	}
	if len(all) > 0 {
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		p99 := all[len(all)*99/100]
		b.ReportMetric(float64(p99.Nanoseconds()), "p99-ns")
	}
}
