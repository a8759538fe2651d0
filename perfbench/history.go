package main

import (
	"fmt"
	"sort"
	"time"

	"feralcc/internal/anomalywatch"
	"feralcc/internal/histcheck"
)

const (
	// historySetupReps is how many times a trace-0 run generates the
	// history; setup_s is their median.
	historySetupReps = 3
	// watchBatch is how many events are offered before each Drain: well
	// under the watcher's default ring of 16,384, so nothing is shed.
	watchBatch = 1024
)

// runHistory times the offline checker and the live watcher over one seeded
// history: the first quarter of the measured time runs histcheck.Check
// passes, the rest feeds fresh watchers batch by batch. Both run whole passes
// over the history, at least one each.
func runHistory(cfg config) (*outcome, error) {
	out := newOutcome()
	reps := historySetupReps
	if cfg.trace {
		reps = 1
	}
	var events []histcheck.Event
	var setups []float64
	for i := 0; i < reps; i++ {
		events = nil
		start := time.Now()
		events = genHistory(cfg.seed, historyShape)
		setups = append(setups, time.Since(start).Seconds())
	}
	out.metrics["setup_s"] = median(setups)
	out.metrics["setup_heap_mb"] = liveHeapMB()
	out.note("setup_s samples %.4f", setups)

	// The first offline pass is the reference verdict, and warms up.
	ref := histcheck.Check(events)
	allowed := histcheck.Allowed("READ COMMITTED")
	forbidden := 0
	for _, f := range ref.Findings {
		if !allowed[f.Anomaly] {
			forbidden++
		}
	}
	out.check(forbidden == 0, "%d offline findings outside READ COMMITTED's allowed set", forbidden)
	watchPass(events[:len(events)/8], nil, nil, nil) // warm the watcher's code paths

	var spans []span
	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}
	checkPhase := cfg.seconds / 4
	watchPhase := cfg.seconds - checkPhase
	m0 := readMem()

	// Offline passes; in a traced run every other pass records a span.
	var checkEvents int64
	var tracedNS, plainNS [2]int64 // [0]: time, [1]: events
	var passTimes []float64
	for phase := time.Now(); len(passTimes) == 0 || time.Since(phase) < checkPhase; {
		traced := rec != nil && len(passTimes)%2 == 1
		var s0 int64
		if traced {
			s0 = rec.now()
		}
		start := time.Now()
		rep := histcheck.Check(events)
		d := int64(time.Since(start))
		if traced {
			spans = append(spans, span{id: uint64(len(spans) + 1), name: "check", start: s0, end: rec.now()})
			spans[len(spans)-1].req = spans[len(spans)-1].id
			tracedNS[0] += d
			tracedNS[1] += int64(len(events))
		} else {
			plainNS[0] += d
			plainNS[1] += int64(len(events))
		}
		out.check(len(rep.Findings) == len(ref.Findings), "check pass found %d anomalies, first pass %d",
			len(rep.Findings), len(ref.Findings))
		checkEvents += int64(len(events))
		passTimes = append(passTimes, float64(d)/1e6)
	}

	// Live passes: a fresh watcher per pass, each batch timed from its first
	// Offer to the return of Drain. Passes always run to the end, so every
	// run times the same mix of batches.
	m1 := readMem()
	var batches []int64
	var watchEvents int64
	var first anomalywatch.Stats
	var firstClasses []histcheck.Anomaly
	var drainTimes []float64
	for phase := time.Now(); len(drainTimes) == 0 || time.Since(phase) < watchPhase; {
		var lat []int64
		st, classes := watchPass(events, &lat, rec, &spans)
		batches = append(batches, lat...)
		watchEvents += int64(len(events))
		if len(drainTimes) == 0 {
			first, firstClasses = st, classes
		}
		var sum int64
		for _, l := range lat {
			sum += l
		}
		drainTimes = append(drainTimes, float64(sum)/1e6)
	}
	m2 := readMem()

	offline := ref.Classes()
	out.check(first.Forbidden == 0, "live watcher reported %d forbidden anomalies", first.Forbidden)
	if first.Shed == 0 && first.Truncated == 0 {
		out.check(fmt.Sprint(firstClasses) == fmt.Sprint(offline),
			"live classes %v differ from offline classes %v", firstClasses, offline)
	}
	out.note("offline: %d events, %d txs, %d findings, classes %v", len(events), ref.Transactions, len(ref.Findings), offline)
	out.note("live: classes %v, shed %d, window truncations %d, rw retargets %d",
		firstClasses, first.Shed, first.Truncated, first.Retargets)

	watchNS := int64(0)
	for _, l := range batches {
		watchNS += l
	}
	out.attempted = checkEvents + watchEvents
	out.failed = int64(first.Shed)
	m := out.metrics
	// The median pass keeps one pass slowed by the host from moving the rate.
	checkRate := ratio(float64(len(events)), median(passTimes)/1e3)
	watchRate := ratio(float64(watchEvents), float64(watchNS)/1e9)
	lat := sortedCopy(batches)
	m["throughput_ops_s"] = checkRate
	m["latency_p50_ms"] = float64(percentile(lat, 0.50)) / 1e6
	m["latency_p90_ms"] = float64(percentile(lat, 0.90)) / 1e6
	// Each event goes through both checkers, so its allocations are the sum
	// of each checker's allocations per event.
	m["allocs_per_op"] = ratio(float64(m1.mallocs-m0.mallocs), float64(checkEvents)) +
		ratio(float64(m2.mallocs-m1.mallocs), float64(watchEvents))
	out.note("check_events_per_s %.0f 1/s over %d passes; watch_events_per_s %.0f 1/s over %d batches of %d",
		checkRate, len(passTimes), watchRate, len(batches), watchBatch)
	out.note("watch batch latency p50 %.4f ms, p90 %.4f ms, latency_p99_ms %.4f ms from %d samples",
		m["latency_p50_ms"], m["latency_p90_ms"], float64(percentile(lat, 0.99))/1e6, len(lat))

	if cfg.trace {
		m["histcheck.check_ms"] = median(passTimes)
		m["histcheck.findings"] = float64(len(ref.Findings))
		m["anomalywatch.drain_ms"] = median(drainTimes)
		m["anomalywatch.events_shed"] = float64(first.Shed)
		m["anomalywatch.window_truncated"] = float64(first.Truncated)
		m["anomalywatch.rw_retargets"] = float64(first.Retargets)
		m["go.gc_cycles_per_kop"] = ratio(float64(m2.numGC-m0.numGC)*1000, float64(checkEvents+watchEvents))
		m["trace.overhead_ratio"] = ratio(ratio(float64(tracedNS[1]), float64(tracedNS[0])),
			ratio(float64(plainNS[1]), float64(plainNS[0])))
		m["trace.spans"] = float64(len(spans))
		sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
		if err := writeSpanFile(cfg, spans); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// watchPass offers events to a fresh watcher in batches of watchBatch,
// draining after each, and appends each batch's latency to lat. With rec set,
// the pass and its batches are recorded as spans.
func watchPass(events []histcheck.Event, lat *[]int64, rec *recorder, spans *[]span) (anomalywatch.Stats, []histcheck.Anomaly) {
	w := anomalywatch.New(anomalywatch.Config{SampleRate: 1})
	defer w.Stop()
	var passID uint64
	if rec != nil {
		passID = uint64(len(*spans) + 1)
		*spans = append(*spans, span{id: passID, req: passID, name: "watch", start: rec.now()})
	}
	for b := 0; b < len(events); b += watchBatch {
		end := min(b+watchBatch, len(events))
		var s0 int64
		if rec != nil {
			s0 = rec.now()
		}
		start := time.Now()
		for i := b; i < end; i++ {
			w.Offer(events[i])
		}
		w.Drain()
		if lat != nil {
			*lat = append(*lat, int64(time.Since(start)))
		}
		if rec != nil {
			*spans = append(*spans, span{id: uint64(len(*spans) + 1), parent: passID, req: passID,
				name: "watch_batch", start: s0, end: rec.now()})
		}
	}
	if rec != nil {
		(*spans)[passID-1].end = rec.now()
	}
	return w.Stats(), w.Classes()
}
