// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload in one process — for the serving workloads the whole paper
// deployment over loopback TCP — checks the outputs, and prints one JSON
// result line. See README.md for the workloads and metrics.
//
// Usage, from the root of a checkout:
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1 it
// holds the per-layer metrics of a traced run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric. The lists below are the ones
// BENCHMARK.json declares (TestMetricsMatchBenchmarkJSON keeps them equal).
type metricDef struct {
	name, unit, better string
}

var endToEnd = []metricDef{
	{"throughput_ops_s", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p90_ms", "ms", "lower"},
	{"allocs_per_op", "count", "lower"},
	{"setup_heap_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

var perLayer = []metricDef{
	{"orm.self_us_mean", "us", "lower"},
	{"orm.db_calls_per_req", "count", "lower"},
	{"appserver.requests", "count", "higher"},
	{"appserver.saturated", "count", "lower"},
	{"db.us_per_req_p50", "us", "lower"},
	{"db.us_per_req_p99", "us", "lower"},
	{"db.retries", "count", "lower"},
	{"wire.us_per_call_p50", "us", "lower"},
	{"wire.us_per_call_p99", "us", "lower"},
	{"wire.bytes_per_req", "B", "lower"},
	{"sqlexec.exec_self_us_p50", "us", "lower"},
	{"sqlexec.exec_self_us_p99", "us", "lower"},
	{"sqlexec.parse_us_per_req", "us", "lower"},
	{"sqlexec.plancache_hit_ratio", "ratio", "higher"},
	{"sqlexec.plancache_lookups", "count", "lower"},
	{"storage.lock_wait_us_per_req", "us", "lower"},
	{"storage.commit_us_p50", "us", "lower"},
	{"storage.commit_us_p99", "us", "lower"},
	{"storage.commit_validate_us", "us", "lower"},
	{"storage.commit_enqueue_us", "us", "lower"},
	{"storage.commit_fsync_wait_us", "us", "lower"},
	{"storage.commit_install_us", "us", "lower"},
	{"storage.wal_fsyncs_per_commit", "ratio", "lower"},
	{"storage.txns_per_group_frame", "ratio", "higher"},
	{"storage.wal_bytes_per_user_byte", "ratio", "lower"},
	{"storage.recover_us_per_record", "us", "lower"},
	{"go.gc_cycles_per_kop", "1/kop", "lower"},
	{"histcheck.check_ms", "ms", "lower"},
	{"histcheck.findings", "count", "higher"},
	{"anomalywatch.drain_ms", "ms", "lower"},
	{"anomalywatch.events_shed", "count", "lower"},
	{"anomalywatch.window_truncated", "count", "lower"},
	{"anomalywatch.rw_retargets", "count", "lower"},
	{"trace.overhead_ratio", "ratio", "higher"},
	{"trace.unattributed_share", "ratio", "lower"},
	{"trace.spans", "count", "higher"},
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	// workDir holds temporary data directories and the span file.
	workDir string
}

// outcome is what a workload run measured and checked. Metrics a workload's
// layers never reach stay 0.
type outcome struct {
	attempted, failed int64
	problems          []string // failed correctness checks
	metrics           map[string]float64
	notes             []string // human-readable lines printed before the result
}

func newOutcome() *outcome { return &outcome{metrics: map[string]float64{}} }

func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

type workloadDef struct {
	name, why string
	run       func(cfg config) (*outcome, error)
}

var workloads = []workloadDef{
	{"validate-scan", "feral uniqueness validation as a full scan of a fixed 2,000-row table; every create is rejected",
		func(cfg config) (*outcome, error) {
			return runServing(cfg, stackSpec{}, servingMix{})
		}},
	{"read-mostly", "90% indexed point reads, 10% fresh creates, in memory: fixed per-request costs dominate",
		func(cfg config) (*outcome, error) {
			return runServing(cfg, stackSpec{uniqueIndex: true}, servingMix{readShare: 0.9, freshCreates: true})
		}},
	{"durable-commit", "fresh creates on a WAL-backed store: the commit pipeline and log writer dominate, scans are bypassed",
		func(cfg config) (*outcome, error) {
			return runServing(cfg, stackSpec{uniqueIndex: true, durable: true}, servingMix{freshCreates: true})
		}},
	{"history-check", "offline Adya check and live watcher over a seeded READ COMMITTED history larger than the watch window",
		runHistory},
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Int("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var wl *workloadDef
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0 or 1\n", workloadNames())
		return 2
	}
	cfg := config{
		workload: wl.name, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, workDir: ".bench_build",
	}
	if err := os.MkdirAll(filepath.Join(cfg.workDir, "data"), 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}

	fp := hostFingerprint(cfg.seed)
	fpLine, _ := json.Marshal(fp)
	fmt.Fprintf(stdout, "fingerprint %s\n", fpLine)

	out, err := wl.run(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", wl.name, err)
		return 1
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	res := result{
		Correct: len(out.problems) == 0, Attempted: out.attempted, Failed: out.failed,
		Metrics: map[string]metricValue{},
	}
	for _, n := range out.notes {
		fmt.Fprintf(stdout, "%s: %s\n", wl.name, n)
	}
	for _, d := range defs {
		v := out.metrics[d.name]
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Fprintf(stdout, "%s: %-32s %14.6g %s\n", wl.name, d.name, v, d.unit)
	}
	for _, p := range out.problems {
		fmt.Fprintf(stderr, "perfbench: %s: CHECK FAILED: %s\n", wl.name, p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	appendRecord(cfg, fp, res)
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// appendRecord keeps every result, stamped with the host fingerprint, in
// .bench_build/results.jsonl, so results from different hosts or sources are
// never compared by accident.
func appendRecord(cfg config, fp fingerprint, res result) {
	rec, err := json.Marshal(struct {
		Fingerprint fingerprint `json:"fingerprint"`
		Workload    string      `json:"workload"`
		Trace       bool        `json:"trace"`
		Seconds     float64     `json:"seconds"`
		Result      result      `json:"result"`
	}{fp, cfg.workload, cfg.trace, cfg.seconds.Seconds(), res})
	if err != nil {
		return
	}
	f, err := os.OpenFile(filepath.Join(cfg.workDir, "results.jsonl"), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: results record: %v\n", err)
		return
	}
	_, err = f.Write(append(rec, '\n'))
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: results record: %v\n", err)
	}
}

// percentile returns the nearest-rank q-quantile of sorted values.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func sortedCopy(v []int64) []int64 {
	s := append([]int64(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// ratio is a/b, or 0 when b is 0 (the layer did no such work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
