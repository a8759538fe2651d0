GO ?= go
BENCH ?= BENCH_3.json
BENCH_COMMIT ?= BENCH_commit.json
BENCH_LIVECHECK ?= BENCH_9.json
BENCH_SCAN ?= BENCH_scan.txt

.PHONY: check test bench bench-commit bench-livecheck bench-scan chaos obs-smoke livecheck-smoke histcheck hunt-regress hunt-smoke overload-smoke fuzz-smoke lint profile profile-mutex clean

# check is the full gate: compile, vet, and the whole test suite under the
# race detector (the plan cache, wire server, and WAL are concurrency-critical).
check:
	$(GO) build ./...
	$(GO) vet ./...
	$(GO) test -race ./...

test:
	$(GO) test ./...

# chaos replays the deterministic fault-injection suites under the race
# detector: the db.Conn contract and the Figure-2 stress shape under each
# fault class, plus the storage crash suites (kill-and-reopen at every WAL
# fault point, the torn-write corpus), all from fixed seeds.
chaos:
	$(GO) test -race -count=1 -run Chaos ./internal/faultinject ./internal/wire ./internal/storage

# histcheck gates recorded operation histories through the offline Adya
# checker: seeded lost-update and write-skew shapes plus fixed-seed concurrent
# workloads at every isolation level (TestGate*, -v so the cycle witnesses
# print), the engine/conn/wire history suites, and a quick isolation sweep
# driven through feralbench -check-history. Experiment histories that fail
# the gate are saved under $(WITNESS_DIR) — CI uploads them as artifacts.
WITNESS_DIR ?= witnesses
histcheck:
	$(GO) test -count=1 -v -run TestGate ./internal/histcheck
	$(GO) test -count=1 -run 'TestHistory|TestEmbeddedConnHistorySuite|TestWireConnHistorySuite' ./internal/storage ./internal/db ./internal/wire
	HISTCHECK_WITNESS_DIR=$(WITNESS_DIR) $(GO) run ./cmd/feralbench -experiment isolevels -quick -check-history -metrics=false

# hunt-regress replays the seeded witness corpus under testdata/hunt/ through
# the Adya checker (each file must classify as exactly the anomaly it was
# minimized for) and reruns the scheduler determinism suite — same (seed,
# workload) must produce byte-identical histories — under the race detector.
hunt-regress:
	$(GO) test -count=1 -run 'TestHuntRegress' ./cmd/feralhunt
	$(GO) test -race -count=1 -run 'TestHuntSchedDeterminism' ./internal/experiment
	$(GO) test -race -count=1 ./internal/sched

# hunt-smoke runs the directed anomaly search from fixed seeds on a small
# budget: lost update must fall at READ COMMITTED and write skew at SNAPSHOT
# ISOLATION within the schedule bound (both take 2 schedules today), and the
# same workloads must certify clean at SERIALIZABLE. Under two minutes.
hunt-smoke:
	$(GO) test -count=1 -run 'TestHuntSmoke|TestHuntDirected' -v ./cmd/feralhunt ./internal/experiment

# overload-smoke pins the overload-robustness story from fixed seeds: the
# virtual-time simulator must show metastable collapse with the protection
# stack off and ride-through plus ≥95% recovery with it on (with retry
# amplification ≤2×), the retry-budget/backoff/shed-classification contracts
# must hold on both the embedded and wire seams, and a quick live open-loop
# spike runs against a real wire server for the wall-clock artifact.
overload-smoke:
	$(GO) test -race -count=1 ./internal/overload
	$(GO) test -count=1 -run 'TestRetry|TestFullJitter|TestBackoffFor|TestEmbeddedConnOverloadSuite' ./internal/db
	$(GO) test -count=1 -run 'TestMaxConns|TestAdmission|TestShedVerdict|TestWireConnOverloadSuite' ./internal/wire
	$(GO) run ./cmd/feralbench -experiment overload -quick -metrics=false

# fuzz-smoke runs the native fuzz targets of the untrusted-input decoders for
# a short budget each, starting from their checked-in seed corpora. The
# history decoder (the testdata/hunt witnesses, under
# internal/histcheck/testdata/fuzz/FuzzReadJSONL): ReadJSONL must not panic,
# a decoded history must round-trip through WriteJSONL, and Check and
# AlmostCycles must not panic on it — feralcheck and /anomalies replays feed
# untrusted JSONL straight into the dependency graph. The wire request and
# response decoders (one frame body per message type, under
# internal/wire/testdata/fuzz): decoding must not panic and a decoded message
# must re-encode to a body that round-trips. WAL recovery (a recorded log with
# DDL, plain and group commit frames, plus damaged variants, under
# internal/storage/testdata/fuzz): OpenDir must not panic, and a reopen must
# see the same rows and integrity verdict as the first open. go test fuzzes
# one target per run.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzReadJSONL -fuzztime=10s ./internal/histcheck
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeRequest$$' -fuzztime=10s ./internal/wire
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeResponse$$' -fuzztime=10s ./internal/wire
	$(GO) test -run='^$$' -fuzz='^FuzzRecoverWAL$$' -fuzztime=10s ./internal/storage

# lint runs go vet always and staticcheck when the binary is present (the CI
# lint job installs it; locally the target degrades to vet alone).
lint:
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./... ; \
	else \
		echo "staticcheck not installed; ran go vet only" ; \
	fi

# obs-smoke boots a real feraldbd with -metrics-addr and -slow-query, drives
# load over the wire, and fails on malformed Prometheus text, a dead pprof
# endpoint, or missing slow-query log lines.
obs-smoke:
	$(GO) test -count=1 -run TestObsSmoke ./cmd/feraldbd

# livecheck-smoke exercises the live anomaly observatory end to end: a real
# feraldbd under -live-check 1 serves a forced lost update, the test scrapes
# /metrics (lint-clean, anomaly counters live) and /anomalies, and pipes the
# witness through the feralcheck binary on stdin — the offline verdict must
# agree with the live one. The engine-level parity suite (hunt catalog +
# Figure 2/5 cells, live vs offline checker) rides along under -race.
livecheck-smoke:
	$(GO) test -count=1 -run TestLiveCheckSmoke ./cmd/feraldbd
	$(GO) test -race -count=1 -run 'TestHuntLiveParity|TestFigureCellsLiveParity' ./internal/experiment
	$(GO) test -count=1 -run TestStdinDash ./cmd/feralcheck

# profile captures CPU and heap pprof profiles from a running feraldbd's
# metrics listener (default 127.0.0.1:6060, override with METRICS_ADDR) into
# profiles/. Inspect with `go tool pprof profiles/cpu.pprof`.
METRICS_ADDR ?= 127.0.0.1:6060
PROFILE_SECONDS ?= 10
profile:
	mkdir -p profiles
	curl -fsS -o profiles/cpu.pprof "http://$(METRICS_ADDR)/debug/pprof/profile?seconds=$(PROFILE_SECONDS)"
	curl -fsS -o profiles/heap.pprof "http://$(METRICS_ADDR)/debug/pprof/heap"
	@echo "wrote profiles/cpu.pprof and profiles/heap.pprof"

# profile-mutex captures mutex-contention and CPU profiles of the hottest
# commit-pipeline cell (sync=always, 8 committers) — the view
# that shows where commit-path serialization remains. Inspect with
# `go tool pprof profiles/commit-mutex.pprof`.
profile-mutex:
	mkdir -p profiles
	$(GO) test -bench 'BenchmarkCommitThroughput/sync=always/goroutines=8$$' \
		-run '^$$' -benchtime=2s -timeout 10m \
		-mutexprofile profiles/commit-mutex.pprof -cpuprofile profiles/commit-cpu.pprof .
	@echo "wrote profiles/commit-mutex.pprof and profiles/commit-cpu.pprof"

# bench records the benchmark suite as a test2json event stream; the committed
# BENCH_<n>.json snapshots (one per PR) are referenced by DESIGN.md.
bench:
	$(GO) test -bench . -benchmem -run '^$$' -json . > $(BENCH)

# bench-commit records the commit-throughput curve (BenchmarkCommitThroughput:
# sync policy x committer count, with p99 commit latency) — the headline
# artifact for the commit pipeline's leader/follower group commit.
# BENCH_6.json keeps the historical serial-vs-pipeline grid from before the
# serial commit path was removed.
bench-commit:
	$(GO) test -bench BenchmarkCommitThroughput -run '^$$' -benchtime=1s -timeout 30m -json . > $(BENCH_COMMIT)

# bench-livecheck records the live-checker overhead grid (sample rate off/1%/
# 10%/100% x committer count, with sampled-txn and shed-event counts) — the
# bounded-overhead artifact for the anomaly observatory. The acceptance bar:
# the 1%-sampling cells stay within 5% of the matching off cells.
bench-livecheck:
	$(GO) test -bench BenchmarkLiveCheckOverhead -run '^$$' -benchtime=1s -timeout 30m -json . > $(BENCH_LIVECHECK)

# bench-scan records the read path a feral validation pays for: the
# uniqueness probe by full scan at 200 and 2,000 rows and through an index
# (BenchmarkAblationIndex), a validated ORM create on a growing table
# (BenchmarkORMValidatedCreate), the insert-commit write path beside them
# (BenchmarkStorageInsertCommit), and one wire transaction — BEGIN, prepared
# SELECT, COMMIT — with its BEGIN pipelined (BenchmarkAblationWire/tcp-tx,
# run separately because a sub-benchmark pattern applies to every top-level
# match). Plain -benchmem text, five runs each, so two checkouts' files
# compare line by line (allocs/op must match exactly; ns/op only between runs
# on one host).
bench-scan:
	$(GO) test -bench 'BenchmarkAblationIndex|BenchmarkORMValidatedCreate|BenchmarkStorageInsertCommit' \
		-benchmem -count 5 -run '^$$' -timeout 30m . > $(BENCH_SCAN)
	$(GO) test -bench 'BenchmarkAblationWire/tcp-tx' \
		-benchmem -count 5 -run '^$$' -timeout 30m . >> $(BENCH_SCAN)

# clean removes every cmd/ binary built into the repo root plus any data
# directories left behind by local durable runs (feraldbd -data-dir,
# feralbench -data-dir).
clean:
	rm -f feralbench feraldbd feralsql feralcheck corpusgen railsscan BENCH_scan*.txt
	rm -rf data chaos-data bench-data profiles witnesses
