package experiment

import (
	"bytes"
	"fmt"
	"testing"

	"feralcc/internal/histcheck"
	"feralcc/internal/sched"
	"feralcc/internal/storage"
)

// huntLevels is every isolation level the engine implements; parity and
// determinism must hold across the whole ladder.
var huntLevels = []storage.IsolationLevel{
	storage.ReadCommitted,
	storage.RepeatableRead,
	storage.SnapshotIsolation,
	storage.Serializable,
	storage.Serializable2PL,
}

func TestHuntScheduleDefaultOrderIsSerial(t *testing.T) {
	// Under the default schedule tasks run to completion in index order — a
	// serial execution, which must be anomaly-free at every level.
	for _, w := range HuntWorkloads() {
		for _, level := range huntLevels {
			res, err := RunHuntSchedule(w, level, sched.Schedule{})
			if err != nil {
				t.Fatalf("%s@%v: %v", w.Name, level, err)
			}
			if got := res.Anomalies(); len(got) != 0 {
				t.Errorf("%s@%v: serial schedule produced anomalies %v\n%s", w.Name, level, got, res.Report)
			}
			if res.Decisions == 0 {
				t.Errorf("%s@%v: no scheduling decisions recorded", w.Name, level)
			}
		}
	}
}

func TestHuntDirectedDelayFindsLostUpdate(t *testing.T) {
	// The almost-cycle-closing move: hold task 0 at its commit until task 1
	// reaches its own commit, so both increments read the seed balance. At
	// read committed this is the Lost Update G-single cycle.
	sc := sched.Schedule{Delays: []sched.Delay{{
		Task: 0, Point: storage.YieldCommit,
		Until: sched.Until{Task: 1, Point: storage.YieldCommit},
	}}}
	res, err := RunHuntSchedule(LostUpdateWorkload(), storage.ReadCommitted, sc)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Report.Has(histcheck.GSingle) {
		t.Fatalf("directed delay missed lost update:\n%s", res.Report)
	}
	if !res.Report.Pass() {
		t.Fatalf("G-single must be admitted at READ COMMITTED:\n%s", res.Report)
	}
}

func TestHuntDirectedDelayFindsWriteSkew(t *testing.T) {
	sc := sched.Schedule{Delays: []sched.Delay{{
		Task: 0, Point: storage.YieldCommit,
		Until: sched.Until{Task: 1, Point: storage.YieldCommit},
	}}}
	res, err := RunHuntSchedule(WriteSkewWorkload(), storage.SnapshotIsolation, sc)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Report.Has(histcheck.G2Item) {
		t.Fatalf("directed delay missed write skew:\n%s", res.Report)
	}
	if !res.Report.Pass() {
		t.Fatalf("G2-item must be admitted at SNAPSHOT ISOLATION:\n%s", res.Report)
	}
}

// TestHuntSchedDeterminism pins the tentpole's core property: the same
// (seed, workload, level) pair replayed from scratch produces byte-identical
// history JSONL. Runs under -race in the hunt-regress CI job, where the race
// detector's timing perturbation would expose any schedule leak.
func TestHuntSchedDeterminism(t *testing.T) {
	for _, w := range HuntWorkloads() {
		for seed := int64(1); seed <= 5; seed++ {
			sc := sched.RandomSchedule(seed, len(w.Tasks), 20, 3)
			var first []byte
			for rep := 0; rep < 2; rep++ {
				res, err := RunHuntSchedule(w, storage.ReadCommitted, sc)
				if err != nil {
					t.Fatalf("%s seed %d rep %d: %v", w.Name, seed, rep, err)
				}
				var buf bytes.Buffer
				if err := histcheck.WriteJSONL(&buf, res.Events); err != nil {
					t.Fatal(err)
				}
				if rep == 0 {
					first = buf.Bytes()
				} else if !bytes.Equal(first, buf.Bytes()) {
					t.Fatalf("%s seed %d: nondeterministic history\n--- run 1 ---\n%s--- run 2 ---\n%s",
						w.Name, seed, first, buf.Bytes())
				}
			}
		}
	}
}

// TestHuntSchedDeterminismDurable is the determinism pin with a write-ahead
// log attached: group-commit election and every follower wait are scheduler
// decisions, so a durable run replayed from the same seed must reproduce the
// same history bytes and the same number of scheduling decisions.
func TestHuntSchedDeterminismDurable(t *testing.T) {
	for _, w := range HuntWorkloads() {
		for seed := int64(1); seed <= 3; seed++ {
			sc := sched.RandomSchedule(seed, len(w.Tasks), 20, 3)
			var first []byte
			var firstDecisions uint64
			for rep := 0; rep < 2; rep++ {
				durable := w
				dir := t.TempDir()
				durable.Tune = func(o *storage.Options) {
					if w.Tune != nil {
						w.Tune(o)
					}
					o.DataDir = dir
				}
				res, err := RunHuntSchedule(durable, storage.ReadCommitted, sc)
				if err != nil {
					t.Fatalf("%s seed %d rep %d: %v", w.Name, seed, rep, err)
				}
				var buf bytes.Buffer
				if err := histcheck.WriteJSONL(&buf, res.Events); err != nil {
					t.Fatal(err)
				}
				if rep == 0 {
					first, firstDecisions = buf.Bytes(), res.Decisions
					continue
				}
				if !bytes.Equal(first, buf.Bytes()) {
					t.Fatalf("%s seed %d: nondeterministic durable history\n--- run 1 ---\n%s--- run 2 ---\n%s",
						w.Name, seed, first, buf.Bytes())
				}
				if res.Decisions != firstDecisions {
					t.Fatalf("%s seed %d: %d then %d scheduling decisions", w.Name, seed, firstDecisions, res.Decisions)
				}
			}
		}
	}
}

// huntGolden is the anomaly-class set each (workload, level) surfaced over
// parityHuntSchedules on the serial commit path (one exclusive critical
// section per commit), recorded before that path was removed. The staged
// pipeline surfaced the same sets then.
var huntGolden = map[string]string{
	"lost-update/READ COMMITTED":       "[G-single]",
	"lost-update/REPEATABLE READ":      "[G-single]",
	"lost-update/SNAPSHOT ISOLATION":   "[]",
	"lost-update/SERIALIZABLE":         "[]",
	"lost-update/SERIALIZABLE 2PL":     "[]",
	"write-skew/READ COMMITTED":        "[G2-item]",
	"write-skew/REPEATABLE READ":       "[G2-item]",
	"write-skew/SNAPSHOT ISOLATION":    "[G2-item]",
	"write-skew/SERIALIZABLE":          "[]",
	"write-skew/SERIALIZABLE 2PL":      "[]",
	"uniqueness/READ COMMITTED":        "[invariant]",
	"uniqueness/REPEATABLE READ":       "[invariant]",
	"uniqueness/SNAPSHOT ISOLATION":    "[invariant]",
	"uniqueness/SERIALIZABLE":          "[]",
	"uniqueness/SERIALIZABLE 2PL":      "[]",
	"association/READ COMMITTED":       "[invariant]",
	"association/REPEATABLE READ":      "[invariant]",
	"association/SNAPSHOT ISOLATION":   "[invariant]",
	"association/SERIALIZABLE":         "[]",
	"association/SERIALIZABLE 2PL":     "[]",
	"overload-shed/READ COMMITTED":     "[]",
	"overload-shed/REPEATABLE READ":    "[]",
	"overload-shed/SNAPSHOT ISOLATION": "[]",
	"overload-shed/SERIALIZABLE":       "[]",
	"overload-shed/SERIALIZABLE 2PL":   "[]",
}

// parityHuntSchedules is the schedule set huntGolden was recorded over: the
// natural order, both commit-point holds, and twelve seeded PCT schedules.
func parityHuntSchedules() []sched.Schedule {
	schedules := []sched.Schedule{
		{},
		{Delays: []sched.Delay{{Task: 0, Point: storage.YieldCommit, Until: sched.Until{Task: 1, Point: storage.YieldCommit}}}},
		{Delays: []sched.Delay{{Task: 1, Point: storage.YieldCommit, Until: sched.Until{Task: 0, Point: storage.YieldCommit}}}},
	}
	for seed := int64(1); seed <= 12; seed++ {
		schedules = append(schedules, sched.RandomSchedule(seed, 2, 20, 3))
	}
	return schedules
}

// TestHuntCommitPipelineParity pins the commit pipeline's anomaly vocabulary
// under the scheduler: hunting each workload over the same schedule set must
// surface exactly the anomaly-class sets the serial commit path did
// (huntGolden) at every isolation level — and every run must stay within its
// level's admitted classes.
func TestHuntCommitPipelineParity(t *testing.T) {
	if testing.Short() {
		t.Skip("parity sweep is the long half of the hunt suite")
	}
	schedules := parityHuntSchedules()
	for _, w := range HuntWorkloads() {
		for _, level := range huntLevels {
			classes := map[string]bool{}
			for _, sc := range schedules {
				res, err := RunHuntSchedule(w, level, sc)
				if err != nil {
					t.Fatalf("%s@%v: %v", w.Name, level, err)
				}
				if !res.Report.Pass() {
					t.Fatalf("%s@%v (%s): engine exceeded its isolation contract\n%s",
						w.Name, level, sc, res.Report)
				}
				for _, a := range res.Anomalies() {
					classes[a] = true
				}
			}
			key := w.Name + "/" + level.String()
			want, ok := huntGolden[key]
			if !ok {
				t.Errorf("%s: no golden class set recorded", key)
				continue
			}
			if got := fmt.Sprint(sortedKeys(classes)); got != want {
				t.Errorf("%s: anomaly vocabulary %s differs from the serial commit path's %s", key, got, want)
			}
		}
	}
}

func sortedKeys(m map[string]bool) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
