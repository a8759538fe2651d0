package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"feralcc/internal/db"
	"feralcc/internal/obs"
)

const (
	// setupReps is how many times a trace-0 run builds and loads the stack;
	// setup_s is their median. The last stack built is the one measured.
	setupReps = 7
	// warmup runs load before measuring so prepared statements, connections
	// and caches are in their steady state.
	warmup = time.Second
	// traceSegments alternate untraced and traced load in a traced run, so
	// that trace.overhead_ratio compares stretches of the same run.
	traceSegments = 10
	// window is the stretch of measured load each throughput and latency
	// figure is taken over; the median across windows is reported. One
	// second holds several hundred requests even on validate-scan.
	window = time.Second
)

// counters are the obs.Default() counters the traced run reads as deltas.
var counters = []string{
	"feraldb_appserver_requests_total",
	"feraldb_appserver_saturated_total",
	"feraldb_db_retries_total",
	"feraldb_wire_read_bytes_total",
	"feraldb_wire_written_bytes_total",
	"feraldb_plancache_hits_total",
	"feraldb_plancache_misses_total",
	"feraldb_storage_wal_fsyncs_total",
	"feraldb_storage_group_commit_frames_total",
	"feraldb_storage_group_commit_txns_total",
	"feraldb_storage_recovery_records_total",
}

type counterSnap map[string]uint64

func readCounters() counterSnap {
	s := counterSnap{}
	for _, n := range counters {
		s[n] = obs.Default().CounterValue(n)
	}
	return s
}

// since accumulates the deltas from base to now into acc.
func (acc counterSnap) since(base counterSnap) {
	now := readCounters()
	for n, v := range now {
		acc[n] += v - base[n]
	}
}

// runServing runs one serving workload: build the stack (setupReps times in
// an untraced run), warm up, drive the closed loop, then check the table.
func runServing(cfg config, spec stackSpec, mix servingMix) (*outcome, error) {
	out := newOutcome()
	reps := setupReps
	if cfg.trace {
		reps = 1
	}
	var st *stack
	var rec *recorder
	var setups []float64
	for i := 0; i < reps; i++ {
		if st != nil {
			if err := st.discard(); err != nil {
				return nil, err
			}
		}
		dir := ""
		if spec.durable {
			var err error
			if dir, err = os.MkdirTemp(filepath.Join(cfg.workDir, "data"), cfg.workload+"-"); err != nil {
				return nil, err
			}
		}
		if cfg.trace {
			rec = newRecorder()
		}
		start := time.Now()
		s, err := buildStack(spec, cfg.seed, dir, rec)
		if err != nil {
			os.RemoveAll(dir)
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		st = s
	}
	defer os.RemoveAll(st.dataDir)
	out.metrics["setup_s"] = median(setups)
	out.metrics["setup_heap_mb"] = liveHeapMB()
	out.note("setup_s samples %.4f", setups)
	walBase := st.walSize()

	cs := newClients(st.baseURL, mix, cfg.seed)
	defer closeClients(cs)
	warm := runLoad(cs, warmup, nil)
	all := warm // every request since setup, for the table checks

	if !cfg.trace {
		m0 := readMem()
		t := runLoad(cs, cfg.seconds, nil)
		m1 := readMem()
		all.add(&t)
		out.attempted, out.failed = t.attempted, t.failed
		rate, lat := t.windowed(window, 0.50, 0.90, 0.99)
		out.metrics["throughput_ops_s"] = rate
		out.metrics["latency_p50_ms"] = lat[0] / 1e6
		out.metrics["latency_p90_ms"] = lat[1] / 1e6
		out.metrics["allocs_per_op"] = ratio(float64(m1.mallocs-m0.mallocs), float64(t.attempted))
		out.note("throughput_rps %.1f 1/s; latency p50 %.4f ms, p90 %.4f ms, latency_p99_ms %.4f ms; medians over %d windows of %v, %d samples",
			rate, lat[0]/1e6, lat[1]/1e6, lat[2]/1e6, int(t.elapsed/window), window, len(t.lat))
		out.note("error_rate %.6f (%d failed of %d attempted)", ratio(float64(t.failed), float64(t.attempted)),
			t.failed, t.attempted)
	} else {
		if err := tracedLoad(cfg, out, cs, rec, &all); err != nil {
			return nil, err
		}
		walEnd := st.walSize()
		out.metrics["storage.wal_bytes_per_user_byte"] = ratio(float64(walEnd-walBase), float64(all.ackedBytes))
	}
	out.check(all.failed == 0, "%d of %d requests failed; first: %s", all.failed, all.attempted, all.firstFailure)
	if err := checkTable(cfg, out, st, spec, all.acked); err != nil {
		return nil, err
	}
	return out, nil
}

// discard closes a stack that will not be measured and deletes its data.
func (s *stack) discard() error {
	err := s.close()
	if s.dataDir != "" {
		os.RemoveAll(s.dataDir)
	}
	return err
}

// checkTable closes the stack and checks the table against what the clients
// were told: no duplicate keys, every accepted create present, and a row
// count of exactly the preload plus the accepted creates. A durable stack is
// checked after close and recovery from its data directory.
func checkTable(cfg config, out *outcome, st *stack, spec stackSpec, acked []string) error {
	store := st.store
	if err := st.close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	if spec.durable {
		base := readCounters()
		start := time.Now()
		d, err := db.OpenDir(storeOptions(st.dataDir))
		if err != nil {
			return fmt.Errorf("reopen: %w", err)
		}
		recoverTime := time.Since(start)
		defer d.Close()
		store = d.Store()
		delta := counterSnap{}
		delta.since(base)
		records := float64(delta["feraldb_storage_recovery_records_total"])
		if cfg.trace {
			out.metrics["storage.recover_us_per_record"] = ratio(float64(recoverTime.Microseconds()), records)
		}
		out.note("recovery replayed %.0f WAL records in %v", records, recoverTime)
	}
	rows, dups, keys, err := tableState(store)
	if err != nil {
		return fmt.Errorf("read table: %w", err)
	}
	want := int64(preloadRows + len(acked))
	out.check(dups == 0, "%d duplicate keys", dups)
	out.check(rows == want, "table has %d rows, want %d preloaded + %d accepted creates", rows, preloadRows, len(acked))
	missing := 0
	for _, k := range acked {
		if !keys[k] {
			missing++
		}
	}
	out.check(missing == 0, "%d accepted creates missing", missing)
	out.note("table check: %d rows (%d preloaded + %d accepted creates), %d duplicates, %d missing",
		rows, preloadRows, len(acked), dups, missing)
	return nil
}

// tracedLoad alternates untraced and traced stretches of load, then derives
// the per-layer metrics from the traced ones and writes the spans out.
func tracedLoad(cfg config, out *outcome, cs []*client, rec *recorder, all *tally) error {
	seg := cfg.seconds / traceSegments
	var plain, traced tally
	delta := counterSnap{}
	var gcs uint32
	for i := 0; i < traceSegments; i++ {
		if i%2 == 0 {
			t := runLoad(cs, seg, nil)
			plain.add(&t)
			all.add(&t)
			continue
		}
		base, m0 := readCounters(), readMem()
		rec.on.Store(true)
		t := runLoad(cs, seg, rec)
		rec.on.Store(false)
		gcs += readMem().numGC - m0.numGC
		delta.since(base)
		traced.add(&t)
		all.add(&t)
	}
	out.attempted = plain.attempted + traced.attempted
	out.failed = plain.failed + traced.failed

	reqs := traced.reqs
	sort.Slice(reqs, func(i, j int) bool { return reqs[i].start < reqs[j].start })
	groups := groupCalls(rec.conns)
	matchRequests(reqs, groups)
	spans := buildSpans(reqs, groups)
	n := float64(len(reqs))

	var reqNS, dbNS, parseNS, lockNS float64
	for _, r := range reqs {
		reqNS += float64(r.end - r.start)
	}
	var perReq, wireNS, execSelf, commits []int64
	var stage [obs.NumSpans]float64
	calls, matched := 0, 0
	for _, g := range groups {
		if g.req >= 0 {
			matched++
		}
		var sum, self int64
		for _, c := range g.calls {
			calls++
			d := c.end - c.start
			sum += d
			sp := c.spans
			wireNS = append(wireNS, d-sp[obs.SpanParse]-sp[obs.SpanExec])
			parseNS += float64(sp[obs.SpanParse])
			lockNS += float64(sp[obs.SpanLockWait])
			self += sp[obs.SpanExec] - sp[obs.SpanLockWait] - sp[obs.SpanCommit]
			if sp[obs.SpanCommitValidate] > 0 || sp[obs.SpanCommitInstall] > 0 {
				commits = append(commits, sp[obs.SpanCommit])
				for s := range stage {
					stage[s] += float64(sp[s])
				}
			}
		}
		perReq = append(perReq, sum)
		execSelf = append(execSelf, self)
		dbNS += float64(sum)
	}
	perReq, wireNS, execSelf, commits = sortedCopy(perReq), sortedCopy(wireNS), sortedCopy(execSelf), sortedCopy(commits)
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	nc := float64(len(commits))
	m := out.metrics
	m["orm.self_us_mean"] = ratio(reqNS-dbNS, n) / 1e3
	m["orm.db_calls_per_req"] = ratio(float64(calls), n)
	m["appserver.requests"] = float64(delta["feraldb_appserver_requests_total"])
	m["appserver.saturated"] = float64(delta["feraldb_appserver_saturated_total"])
	m["db.us_per_req_p50"] = us(percentile(perReq, 0.50))
	m["db.us_per_req_p99"] = us(percentile(perReq, 0.99))
	m["db.retries"] = float64(delta["feraldb_db_retries_total"])
	m["wire.us_per_call_p50"] = us(percentile(wireNS, 0.50))
	m["wire.us_per_call_p99"] = us(percentile(wireNS, 0.99))
	m["wire.bytes_per_req"] = ratio(float64(delta["feraldb_wire_read_bytes_total"]+delta["feraldb_wire_written_bytes_total"]), n)
	m["sqlexec.exec_self_us_p50"] = us(percentile(execSelf, 0.50))
	m["sqlexec.exec_self_us_p99"] = us(percentile(execSelf, 0.99))
	m["sqlexec.parse_us_per_req"] = ratio(parseNS, n) / 1e3
	hits, misses := float64(delta["feraldb_plancache_hits_total"]), float64(delta["feraldb_plancache_misses_total"])
	m["sqlexec.plancache_hit_ratio"] = ratio(hits, hits+misses)
	m["sqlexec.plancache_lookups"] = hits + misses
	m["storage.lock_wait_us_per_req"] = ratio(lockNS, n) / 1e3
	m["storage.commit_us_p50"] = us(percentile(commits, 0.50))
	m["storage.commit_us_p99"] = us(percentile(commits, 0.99))
	m["storage.commit_validate_us"] = ratio(stage[obs.SpanCommitValidate], nc) / 1e3
	m["storage.commit_enqueue_us"] = ratio(stage[obs.SpanCommitQueue], nc) / 1e3
	m["storage.commit_fsync_wait_us"] = ratio(stage[obs.SpanCommitFsyncWait], nc) / 1e3
	m["storage.commit_install_us"] = ratio(stage[obs.SpanCommitInstall], nc) / 1e3
	txns := float64(delta["feraldb_storage_group_commit_txns_total"])
	m["storage.wal_fsyncs_per_commit"] = ratio(float64(delta["feraldb_storage_wal_fsyncs_total"]), txns)
	m["storage.txns_per_group_frame"] = ratio(txns, float64(delta["feraldb_storage_group_commit_frames_total"]))
	m["go.gc_cycles_per_kop"] = ratio(float64(gcs)*1000, n)
	plainRate := ratio(float64(plain.attempted-plain.failed), plain.elapsed.Seconds())
	tracedRate := ratio(float64(traced.attempted-traced.failed), traced.elapsed.Seconds())
	m["trace.overhead_ratio"] = ratio(tracedRate, plainRate)
	self := selfTime(spans)
	m["trace.unattributed_share"] = ratio(float64(self["request"]), reqNS)
	m["trace.spans"] = float64(len(spans))

	out.note("traced %d requests (%d db calls, %d dropped); %d of %d server-side requests matched to a client request",
		len(reqs), calls, rec.dropped.Load(), matched, len(groups))
	out.note("throughput untraced %.1f 1/s, traced %.1f 1/s", plainRate, tracedRate)
	names := make([]string, 0, len(self))
	for k := range self {
		names = append(names, k)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	for _, k := range names {
		out.note("self time %-18s %10.2f us/request %6.2f%% of request time", k, ratio(float64(self[k]), n)/1e3,
			100*ratio(float64(self[k]), reqNS))
	}
	return writeSpanFile(cfg, spans)
}

func writeSpanFile(cfg config, spans []span) error {
	dir := filepath.Join(cfg.workDir, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, cfg.workload+".tsv"))
	if err != nil {
		return err
	}
	header := fmt.Sprintf("workload=%s seed=%d spans=%d", cfg.workload, cfg.seed, len(spans))
	if err := writeSpans(f, header, spans); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
