package experiment

import (
	"fmt"
	"testing"
	"time"

	"feralcc/internal/anomalywatch"
	"feralcc/internal/histcheck"
	"feralcc/internal/sched"
	"feralcc/internal/storage"
)

// These tests pin the live checker's central claim on real engine runs: fed
// the same execution the offline checker replays, a full-sampling watcher
// reports the same anomaly classes. The unit-level differential fuzz
// (internal/anomalywatch) covers synthetic histories; here the events come
// from the storage engine's own dual-emit path, under both the deterministic
// scheduler and free-running goroutines.

// withLiveCheck returns a copy of w whose Tune additionally attaches a
// full-sampling live watcher, and whose Setup captures the opened database so
// the test can interrogate the watcher after the runner returns. The runner's
// deferred db.Close stops the watcher, and Stop drains the ring before
// returning, so post-run Classes/Stats are complete and race-free.
func withLiveCheck(w HuntWorkload, dbOut **storage.Database) HuntWorkload {
	baseTune := w.Tune
	w.Tune = func(o *storage.Options) {
		if baseTune != nil {
			baseTune(o)
		}
		o.LiveCheck = &anomalywatch.Config{SampleRate: 1}
	}
	baseSetup := w.Setup
	w.Setup = func(d *storage.Database) error {
		*dbOut = d
		return baseSetup(d)
	}
	return w
}

// assertLiveParity compares the watcher's accumulated classes against the
// offline report for one run. The stand-down rules mirror verifyLiveParity:
// shed events or window truncation void the comparison entirely, and rw
// retargets excuse live-only classes (a transient edge the final graph lacks)
// but never offline-only ones — the live graph converges to the offline one,
// so everything offline finds must have been visible live.
func assertLiveParity(t *testing.T, label string, d *storage.Database, rep *histcheck.Report) {
	t.Helper()
	w := d.Watcher()
	if w == nil {
		t.Fatalf("%s: live checking was not enabled", label)
	}
	st := w.Stats()
	if st.Shed != 0 || st.Truncated != 0 {
		t.Logf("%s: standing down (shed=%d truncated=%d)", label, st.Shed, st.Truncated)
		return
	}
	offline := map[histcheck.Anomaly]bool{}
	for _, c := range rep.Classes() {
		offline[c] = true
	}
	live := map[histcheck.Anomaly]bool{}
	for _, c := range w.Classes() {
		live[c] = true
	}
	for c := range offline {
		if !live[c] {
			t.Errorf("%s: offline checker found %s the live checker missed on a clean window\n%s", label, c, rep)
		}
	}
	for c := range live {
		if !offline[c] && st.Retargets == 0 {
			t.Errorf("%s: live checker reported %s, absent offline, with no rw retargets", label, c)
		}
	}
}

// TestHuntLiveParitySchedules drives every catalog workload through the
// deterministic scheduler — the serial baseline, both anomaly-forcing
// directed delays, and a spread of random schedules — at the two levels whose
// admitted-anomaly sets differ most, and demands live/offline agreement on
// each run. The directed delays guarantee the comparison is not vacuous: the
// lost-update and write-skew runs below provably contain G-single and
// G2-item.
func TestHuntLiveParitySchedules(t *testing.T) {
	schedules := []sched.Schedule{
		{},
		{Delays: []sched.Delay{{Task: 0, Point: storage.YieldCommit, Until: sched.Until{Task: 1, Point: storage.YieldCommit}}}},
		{Delays: []sched.Delay{{Task: 1, Point: storage.YieldCommit, Until: sched.Until{Task: 0, Point: storage.YieldCommit}}}},
	}
	for seed := int64(1); seed <= 5; seed++ {
		schedules = append(schedules, sched.RandomSchedule(seed, 2, 20, 3))
	}
	for _, base := range HuntWorkloads() {
		for _, level := range []storage.IsolationLevel{storage.ReadCommitted, storage.SnapshotIsolation} {
			for si, sc := range schedules {
				var d *storage.Database
				w := withLiveCheck(base, &d)
				res, err := RunHuntSchedule(w, level, sc)
				if err != nil {
					t.Fatalf("%s@%v sched %d: %v", base.Name, level, si, err)
				}
				assertLiveParity(t, fmt.Sprintf("%s@%v sched %d", base.Name, level, si), d, res.Report)
			}
		}
	}
}

// TestHuntLiveParityDirectedHitsAnomalies pins that the scheduled parity
// sweep above is exercising real findings, not comparing empty sets: the
// anomaly-forcing delays must make the live watcher itself report the
// workload's signature class.
func TestHuntLiveParityDirectedHitsAnomalies(t *testing.T) {
	delay := sched.Schedule{Delays: []sched.Delay{{
		Task: 0, Point: storage.YieldCommit,
		Until: sched.Until{Task: 1, Point: storage.YieldCommit},
	}}}
	cases := []struct {
		workload HuntWorkload
		level    storage.IsolationLevel
		want     histcheck.Anomaly
	}{
		{LostUpdateWorkload(), storage.ReadCommitted, histcheck.GSingle},
		{WriteSkewWorkload(), storage.SnapshotIsolation, histcheck.G2Item},
	}
	for _, tc := range cases {
		var d *storage.Database
		res, err := RunHuntSchedule(withLiveCheck(tc.workload, &d), tc.level, delay)
		if err != nil {
			t.Fatalf("%s: %v", tc.workload.Name, err)
		}
		if !res.Report.Has(tc.want) {
			t.Fatalf("%s: directed delay missed %s offline:\n%s", tc.workload.Name, tc.want, res.Report)
		}
		liveHas := false
		for _, c := range d.Watcher().Classes() {
			if c == tc.want {
				liveHas = true
			}
		}
		if !liveHas {
			t.Errorf("%s: live watcher missed %s (live classes %v, stats %+v)",
				tc.workload.Name, tc.want, d.Watcher().Classes(), d.Watcher().Stats())
		}
	}
}

// TestHuntLiveParityStress repeats the comparison with no scheduler: tasks
// race as plain goroutines, so the watcher sees events in genuine
// wall-clock arrival order, including concurrent commits interleaving on the
// ring. Whatever anomalies the race stumbles into, both checkers must agree.
func TestHuntLiveParityStress(t *testing.T) {
	reps := 3
	if testing.Short() {
		reps = 1
	}
	for _, base := range HuntWorkloads() {
		for _, level := range []storage.IsolationLevel{storage.ReadCommitted, storage.SnapshotIsolation, storage.Serializable} {
			for rep := 0; rep < reps; rep++ {
				var d *storage.Database
				w := withLiveCheck(base, &d)
				res, err := RunHuntStress(w, level)
				if err != nil {
					t.Fatalf("%s@%v rep %d: %v", base.Name, level, rep, err)
				}
				assertLiveParity(t, fmt.Sprintf("%s@%v rep %d", base.Name, level, rep), d, res.Report)
			}
		}
	}
}

// TestFigureCellsLiveParity runs scaled-down Figure 2 and Figure 5 cells
// with both CheckHistory and LiveCheck enabled, across a weak and a strong
// level. The per-cell parity gate (verifyLiveParity) runs inside the cell and
// surfaces any divergence as an error from the Run* entry point — the same
// path `feralbench -check-history -live-check` exercises.
func TestFigureCellsLiveParity(t *testing.T) {
	for _, level := range []storage.IsolationLevel{storage.ReadCommitted, storage.Serializable} {
		ucfg := StressConfig{
			Workers:      []int{8},
			Concurrency:  16,
			Rounds:       20,
			Isolation:    level,
			ThinkTime:    time.Millisecond,
			CheckHistory: true,
			LiveCheck:    true,
		}
		if _, err := RunUniquenessStress(ucfg); err != nil {
			t.Errorf("uniqueness@%v: %v", level, err)
		}
		acfg := AssociationStressConfig{
			Workers:              []int{8},
			Departments:          10,
			InsertsPerDepartment: 8,
			Isolation:            level,
			ThinkTime:            time.Millisecond,
			CheckHistory:         true,
			LiveCheck:            true,
		}
		if _, err := RunAssociationStress(acfg); err != nil {
			t.Errorf("association@%v: %v", level, err)
		}
	}
}
