package main

// Smoke test for the live anomaly observatory: start feraldbd with
// -live-check 1, force a lost update through the wire (the Figure 2 racy
// read-modify-write, interleaved deterministically across two connections),
// and assert the full reporting surface lights up — the anomaly counters on
// /metrics (lint-clean), the JSONL witness on /anomalies, the anomaly log
// line with trace IDs, and the statusz fields. The witness is then piped
// through the real feralcheck binary on stdin, closing the scrape-and-replay
// loop: the offline verdict must agree with the live one.
// `make livecheck-smoke` runs this.

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"feralcc/internal/histcheck"
	"feralcc/internal/obs"
	"feralcc/internal/wire"
)

func TestLiveCheckSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs subprocesses")
	}
	scratch := t.TempDir()
	bin := filepath.Join(scratch, "feraldbd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build feraldbd: %v\n%s", err, out)
	}
	feralcheck := filepath.Join(scratch, "feralcheck")
	if out, err := exec.Command("go", "build", "-o", feralcheck, "feralcc/cmd/feralcheck").CombinedOutput(); err != nil {
		t.Fatalf("go build feralcheck: %v\n%s", err, out)
	}

	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-metrics-addr", "127.0.0.1:0",
		"-live-check", "1",
		"-anomaly-window", "1024")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if cmd.Process != nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	}()

	addrCh := make(chan string, 1)
	metricsCh := make(chan string, 1)
	var logMu sync.Mutex
	var anomalyLines []string
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "listening on "); i >= 0 {
				select {
				case addrCh <- strings.TrimSpace(line[i+len("listening on "):]):
				default:
				}
			}
			if i := strings.Index(line, "metrics on "); i >= 0 {
				select {
				case metricsCh <- strings.TrimSpace(line[i+len("metrics on "):]):
				default:
				}
			}
			if strings.Contains(line, "anomaly class=") {
				logMu.Lock()
				anomalyLines = append(anomalyLines, line)
				logMu.Unlock()
			}
		}
	}()
	waitAddr := func(ch chan string, what string) string {
		select {
		case a := <-ch:
			return a
		case <-time.After(10 * time.Second):
			t.Fatalf("feraldbd never reported its %s address", what)
			return ""
		}
	}
	addr := waitAddr(addrCh, "listen")
	metricsAddr := waitAddr(metricsCh, "metrics")

	get := func(path string) (int, []byte) {
		url := fmt.Sprintf("http://%s%s", metricsAddr, path)
		resp, err := http.Get(url)
		if err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
		return resp.StatusCode, body
	}
	healthDeadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(fmt.Sprintf("http://%s/statusz", metricsAddr))
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(healthDeadline) {
			t.Fatalf("observability endpoint never became healthy: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// The lost update, interleaved by hand: c1 begins and reads the seed
	// balance, c2 overwrites it autocommit, then c1 blind-writes its stale
	// increment and commits. At READ COMMITTED (the daemon default) both
	// commits succeed and the history is the canonical G-single cycle.
	c1, err := wire.DialTimeout(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, err := wire.DialTimeout(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	exec1 := func(sql string) {
		t.Helper()
		if _, err := c1.Exec(sql); err != nil {
			t.Fatalf("c1 %q: %v", sql, err)
		}
	}
	exec2 := func(sql string) {
		t.Helper()
		if _, err := c2.Exec(sql); err != nil {
			t.Fatalf("c2 %q: %v", sql, err)
		}
	}
	exec1("CREATE TABLE accounts (id BIGINT PRIMARY KEY, balance BIGINT)")
	exec1("INSERT INTO accounts (balance) VALUES (100)")
	exec1("BEGIN")
	if _, err := c1.Exec("SELECT balance FROM accounts WHERE id = 1"); err != nil {
		t.Fatalf("c1 read: %v", err)
	}
	exec2("UPDATE accounts SET balance = 150 WHERE id = 1")
	exec1("UPDATE accounts SET balance = 101 WHERE id = 1")
	exec1("COMMIT")

	// /anomalies drains the ring before answering, so the witness is visible
	// as soon as the commit above has returned; poll briefly anyway.
	var witnessBody []byte
	witnessDeadline := time.Now().Add(10 * time.Second)
	for {
		code, body := get("/anomalies")
		if code != http.StatusOK {
			t.Fatalf("/anomalies status %d: %s", code, body)
		}
		if len(bytes.TrimSpace(body)) > 0 {
			witnessBody = body
			break
		}
		if time.Now().After(witnessDeadline) {
			t.Fatal("no witness ever appeared on /anomalies")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !bytes.Contains(witnessBody, []byte("# anomaly=G-single")) {
		t.Fatalf("/anomalies witness lacks the G-single header:\n%s", witnessBody)
	}

	// Scrape-and-replay: the first blank-line-separated witness block is one
	// self-contained JSONL history; the offline checker must agree with the
	// live verdict. First in-process, then through the real feralcheck binary
	// reading stdin — the workflow EXPERIMENTS.md documents.
	block := witnessBody
	if i := bytes.Index(witnessBody, []byte("\n\n")); i >= 0 {
		block = witnessBody[:i+1]
	}
	events, err := histcheck.ReadJSONL(bytes.NewReader(block))
	if err != nil {
		t.Fatalf("witness does not parse as JSONL: %v\n%s", err, block)
	}
	if rep := histcheck.Check(events); !rep.Has(histcheck.GSingle) {
		t.Fatalf("offline replay of the witness lost the anomaly:\n%s\n%s", rep, block)
	}
	replay := exec.Command(feralcheck, "-")
	replay.Stdin = bytes.NewReader(block)
	replayOut, err := replay.CombinedOutput()
	if err != nil {
		t.Fatalf("feralcheck - (G-single is admitted at RC, expected exit 0): %v\n%s", err, replayOut)
	}
	if !bytes.Contains(replayOut, []byte("G-single")) {
		t.Fatalf("feralcheck replay does not name G-single:\n%s", replayOut)
	}

	// /metrics must stay lint-clean with the watcher's series visible.
	code, scrape := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	if err := obs.LintPrometheus(bytes.NewReader(scrape)); err != nil {
		t.Fatalf("scrape failed lint: %v\n%s", err, scrape)
	}
	for _, series := range []string{
		"feraldb_anomaly_watch_events_total",
		"feraldb_anomaly_watch_events_processed_total",
		"feraldb_anomaly_watch_sampled_txns_total",
		`feraldb_anomaly_watch_anomalies_total{class="G-single"}`,
		`feraldb_anomaly_watch_anomalies_by_level_total{level="READ COMMITTED"}`,
	} {
		if !nonZeroSeries(scrape, series) {
			t.Errorf("series %s missing or zero after the lost update:\n%s", series, scrape)
		}
	}
	// The lost update is admitted at READ COMMITTED: nothing may be forbidden,
	// and the bounded pipeline must not have shed or truncated anything.
	for _, series := range []string{
		"feraldb_anomaly_watch_forbidden_total",
		"feraldb_anomaly_watch_events_shed_total",
		"feraldb_anomaly_watch_window_truncated_total",
	} {
		if nonZeroSeries(scrape, series) {
			t.Errorf("series %s nonzero on a clean admitted-anomaly run:\n%s", series, scrape)
		}
	}

	// The anomaly log line: class, participant txs, and trace IDs linking the
	// cycle back to wire statements.
	logDeadline := time.Now().Add(5 * time.Second)
	for {
		logMu.Lock()
		n := len(anomalyLines)
		logMu.Unlock()
		if n > 0 || time.Now().After(logDeadline) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	logMu.Lock()
	defer logMu.Unlock()
	if len(anomalyLines) == 0 {
		t.Fatal("no anomaly log line on stderr")
	}
	line := anomalyLines[0]
	for _, want := range []string{"class=G-single", "forbidden=false", "txs=", "traces=", "cycle="} {
		if !strings.Contains(line, want) {
			t.Errorf("anomaly log line missing %q: %s", want, line)
		}
	}
	if strings.Contains(line, "traces=none") {
		t.Errorf("wire transactions should carry trace IDs into the witness: %s", line)
	}
}
