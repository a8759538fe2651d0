package experiment

import (
	"fmt"
	"time"

	"feralcc/internal/appserver"
	"feralcc/internal/db"
	"feralcc/internal/storage"
)

// SSIBugResult reproduces the paper's footnote 8 (PostgreSQL BUG #11732):
// the uniqueness stress workload run under nominally SERIALIZABLE isolation,
// once against a correct implementation and once with the phantom-
// certification bug enabled.
type SSIBugResult struct {
	DuplicatesCorrect int64
	DuplicatesBuggy   int64
	// ReadCommitted is the same workload at the weak default, for the
	// footnote's comparison ("the number of anomalies is reduced compared to
	// the number under Read Committed ... but we still detected duplicate
	// records").
	DuplicatesReadCommitted int64
	// GatedEvents counts the history events the isolation gate checked
	// across the three cells; zero unless checkHistory was set.
	GatedEvents int
}

// RunSSIBug measures duplicate admission for the feral validator under
// Serializable (correct), Serializable with the phantom bug, and Read
// Committed. With checkHistory set, every cell's history goes through the
// offline isolation checker (and, with liveCheck, the live/offline parity
// gate), as the uniqueness cells do.
func RunSSIBug(workers, rounds, concurrency int, checkHistory, liveCheck bool) (SSIBugResult, error) {
	var res SSIBugResult
	run := func(level storage.IsolationLevel, bug bool) (int64, error) {
		cfg := StressConfig{
			Workers:      []int{workers},
			Concurrency:  concurrency,
			Rounds:       rounds,
			Isolation:    level,
			PhantomBug:   bug,
			ThinkTime:    time.Millisecond,
			CheckHistory: checkHistory,
			LiveCheck:    liveCheck,
		}
		dups, gated, err := ssiBugCell(cfg)
		res.GatedEvents += gated
		return dups, err
	}
	var err error
	if res.DuplicatesCorrect, err = run(storage.Serializable, false); err != nil {
		return res, err
	}
	if res.DuplicatesBuggy, err = run(storage.Serializable, true); err != nil {
		return res, err
	}
	if res.DuplicatesReadCommitted, err = run(storage.ReadCommitted, false); err != nil {
		return res, err
	}
	return res, nil
}

// ssiBugCell runs the feral-validation variant only and returns its
// duplicate count and the number of history events its gate checked.
func ssiBugCell(cfg StressConfig) (int64, int, error) {
	d := db.Open(storage.Options{
		DefaultIsolation: cfg.Isolation,
		PhantomBug:       cfg.PhantomBug,
		LockTimeout:      2 * time.Second,
		RecordHistory:    cfg.CheckHistory,
		LiveCheck:        liveCheckConfig(cfg.LiveCheck),
	})
	defer d.Close()
	registry, err := appserver.UniquenessModels()
	if err != nil {
		return 0, 0, err
	}
	if err := appserver.MigrateOn(d, registry); err != nil {
		return 0, 0, err
	}
	pool, err := appserver.NewPool(cfg.Workers[0], registry, func() db.Conn { return d.Connect() })
	if err != nil {
		return 0, 0, err
	}
	pool.Configure(func(w *appserver.Worker) { w.Session.ThinkTime = cfg.ThinkTime })
	err = runStressRounds(pool, "ValidatedKeyValue", cfg.Rounds, cfg.Concurrency)
	pool.Close()
	if err != nil {
		return 0, 0, err
	}
	gated := 0
	if cfg.CheckHistory {
		gated = len(d.History())
		label := fmt.Sprintf("ssibug-p%d-%s", cfg.Workers[0], cfg.Isolation)
		if cfg.PhantomBug {
			label += "-phantombug"
		}
		if err := verifyHistory(d, label); err != nil {
			return 0, 0, err
		}
		if err := verifyLiveParity(d, label); err != nil {
			return 0, 0, err
		}
	}
	conn := d.Connect()
	defer conn.Close()
	dups, err := appserver.CountDuplicates(conn, "validated_key_values")
	return dups, gated, err
}
