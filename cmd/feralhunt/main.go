// Command feralhunt searches for isolation anomalies with a deterministic
// scheduler instead of wall-clock stress. Given a workload (built-in catalog
// or a DSL file) and an isolation level, it explores (seed, schedule) pairs —
// natural first, then schedules directed at the almost-cycles of previous
// runs, then PCT-style random priority schedules — and emits either a
// delta-debugging-minimized witness history replayable via feralcheck, or a
// no-anomaly certificate for the explored budget.
//
// Usage:
//
//	feralhunt -workload lost-update -level "READ COMMITTED"
//	feralhunt -workload write-skew -level "SNAPSHOT ISOLATION" -o witness.jsonl
//	feralhunt -workload uniqueness -level SERIALIZABLE -budget 200
//	feralhunt -dsl custom.hunt -level "READ COMMITTED" -baseline 500
//	feralhunt -list
//
// Exit status: 0 when the hunt completed (anomaly found and admitted at the
// level, or certificate emitted), 1 when a FORBIDDEN anomaly was found — the
// engine broke its isolation contract — and 2 on usage errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"feralcc/internal/experiment"
	"feralcc/internal/histcheck"
	"feralcc/internal/storage"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("feralhunt", flag.ContinueOnError)
	fs.SetOutput(errw)
	var (
		workload = fs.String("workload", "", "built-in workload name (see -list)")
		dslPath  = fs.String("dsl", "", "path to a custom workload DSL file (overrides -workload)")
		levelStr = fs.String("level", "READ COMMITTED", "isolation level to hunt at")
		budget   = fs.Int("budget", 100, "maximum schedules to explore")
		seed     = fs.Int64("seed", 1, "base seed for random schedules")
		target   = fs.String("target", "any", `what counts as a find: "any", an Adya class (G-single, G2-item, ...), or "invariant"`)
		outPath  = fs.String("o", "", "write the witness JSONL or certificate JSON here (default stdout summary only)")
		baseline = fs.Int("baseline", 0, "also run up to N unscheduled stress iterations and report the comparison")
		list     = fs.Bool("list", false, "list built-in workloads and exit")
	)
	fs.Usage = func() {
		fmt.Fprintf(errw, "usage: feralhunt -workload NAME|-dsl FILE [-level L] [-budget N] [-seed S] [-target T] [-o FILE] [-baseline N]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, w := range experiment.HuntWorkloads() {
			fmt.Fprintf(out, "%-12s %s\n", w.Name, w.Description)
		}
		return 0
	}

	var w experiment.HuntWorkload
	switch {
	case *dslPath != "":
		f, err := os.Open(*dslPath)
		if err != nil {
			fmt.Fprintf(errw, "feralhunt: %v\n", err)
			return 2
		}
		w, err = parseDSL(f, *dslPath)
		f.Close()
		if err != nil {
			fmt.Fprintf(errw, "feralhunt: %v\n", err)
			return 2
		}
	case *workload != "":
		var err error
		w, err = experiment.HuntWorkloadByName(*workload)
		if err != nil {
			fmt.Fprintf(errw, "feralhunt: %v\n", err)
			return 2
		}
	default:
		fs.Usage()
		return 2
	}
	level, err := storage.ParseIsolationLevel(*levelStr)
	if err != nil {
		fmt.Fprintf(errw, "feralhunt: %v\n", err)
		return 2
	}

	fmt.Fprintf(out, "feralhunt: workload=%s level=%s budget=%d seed=%d target=%s\n",
		w.Name, level, *budget, *seed, *target)
	res, err := hunt(w, level, *budget, *seed, *target)
	if err != nil {
		fmt.Fprintf(errw, "feralhunt: %v\n", err)
		return 2
	}

	status := 0
	if res.Found {
		admitted := "admitted at this level"
		if res.EngineBug {
			admitted = "FORBIDDEN at this level — engine bug"
			status = 1
		}
		fmt.Fprintf(out, "found %s after %d schedules (%d directed) — %s\n",
			res.Class, res.Schedules, res.Directed, admitted)
		fmt.Fprintf(out, "schedule: %s\n", res.Schedule)
		if res.Invariant != "" {
			fmt.Fprintf(out, "invariant: %s\n", res.Invariant)
		}
		fmt.Fprintf(out, "witness: %d events (minimized from %d)\n", len(res.Witness), len(res.Raw))
		if err := writeWitness(*outPath, out, w, level, res); err != nil {
			fmt.Fprintf(errw, "feralhunt: %v\n", err)
			return 2
		}
	} else {
		cert := newCertificate(w, level, res, *seed, *target)
		fmt.Fprintf(out, "no anomaly in %d schedules (%d directed): certificate follows\n", res.Schedules, res.Directed)
		if err := writeCertificate(*outPath, out, cert); err != nil {
			fmt.Fprintf(errw, "feralhunt: %v\n", err)
			return 2
		}
	}

	if *baseline > 0 {
		runs, err := stressBaseline(w, level, *baseline, *target)
		if err != nil {
			fmt.Fprintf(errw, "feralhunt: baseline: %v\n", err)
			return 2
		}
		switch {
		case runs > 0 && res.Found:
			fmt.Fprintf(out, "baseline: unscheduled stress needed %d runs (directed search: %d schedules)\n", runs, res.Schedules)
		case runs > 0:
			fmt.Fprintf(out, "baseline: unscheduled stress found it in %d runs but the directed search did not — raise -budget\n", runs)
		default:
			fmt.Fprintf(out, "baseline: unscheduled stress found nothing in %d runs\n", *baseline)
		}
	}
	return status
}

// writeWitness writes the minimized witness JSONL (with provenance header) to
// path, or to out when path is empty.
func writeWitness(path string, out io.Writer, w experiment.HuntWorkload, level storage.IsolationLevel, res *outcome) error {
	dst := out
	if path != "" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		dst = f
	}
	for _, line := range witnessHeader(w, level, res) {
		if _, err := fmt.Fprintln(dst, line); err != nil {
			return err
		}
	}
	if err := histcheck.WriteJSONL(dst, res.Witness); err != nil {
		return err
	}
	if path != "" {
		fmt.Fprintf(out, "wrote %s (replay: feralcheck %s)\n", path, path)
	}
	return nil
}

// writeCertificate writes the no-anomaly certificate JSON.
func writeCertificate(path string, out io.Writer, cert certificate) error {
	raw, err := json.MarshalIndent(cert, "", "  ")
	if err != nil {
		return err
	}
	raw = append(raw, '\n')
	if path == "" {
		_, err = out.Write(raw)
		return err
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %s\n", path)
	return nil
}
