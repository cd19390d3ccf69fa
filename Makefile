# PXML-Go build targets. Everything is stdlib Go; `go` is the only tool.

GO ?= go

.PHONY: all build check routing-lint test test-short race bench bench-store bench-smoke fig7 fuzz fuzz-smoke faults soak soak-smoke mvcc-smoke telemetry-smoke repl-smoke failover-smoke govern-smoke e2e-smoke vet staticcheck cover clean

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Static analysis beyond vet. staticcheck is optional locally; CI
# installs it. Skips quietly when the binary is absent.
staticcheck:
	@command -v staticcheck >/dev/null 2>&1 && staticcheck ./... || echo "staticcheck not installed; skipping"

# The default verification path: compile, vet, the routing lint, full test
# suite, and the benchmark harness (a nested module the others never build).
check: build vet routing-lint test e2e-smoke

# One evaluator (DESIGN §22): only internal/engine chooses between the ε
# lane and the BN lane. An errors.Is(..., ErrNotTree) in non-test code
# anywhere else is a second routing decision growing back; the kernels that
# return the error and pxmlquery's hint are the exceptions.
routing-lint:
	@! grep -rn --include='*.go' --exclude='*_test.go' 'errors\.Is(.*ErrNotTree' . \
		| grep -v '^\./internal/\(engine\|query\|algebra\)/\|^\./cmd/pxmlquery/' \
		|| { echo "routing-lint: ErrNotTree fallback outside internal/engine"; exit 1; }

test:
	$(GO) test ./...

# Race-detector pass (the engine and server suites hammer shared state).
race:
	$(GO) test -race ./...

# Skips the binary-driving integration tests and large smoke tests.
test-short:
	$(GO) test -short ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Storage-engine and serving-path benchmarks: WAL append under each fsync
# policy, recovery replay, compaction, the binary-vs-text codec pair, the PUT
# pipeline stage by stage (decode, validate, encode, profile + index), and one
# query through the whole handler stack, answered from the result cache
# (CachedHit) and evaluated on the tree lane (QueryMiss) and the BN lane
# (QueryMissDAG), and the router alone on that query's route (Route).
bench-store:
	$(GO) test -run '^$$' -bench . -benchmem ./internal/store
	$(GO) test -run '^$$' -bench 'Binary|Text' -benchmem ./internal/codec
	$(GO) test -run '^$$' -bench 'PutPipeline|CachedHit|QueryMiss(DAG)?|Route' -benchmem -cpu 1 ./internal/server

# Quick benchmark smoke for CI: one iteration per benchmark at
# GOMAXPROCS 1 and 4, enough to catch perf-critical paths that stop
# compiling or start failing. It measures nothing and gates nothing; it
# prints each benchmark's B/op and allocs/op into the log. A before/after is
# pairs of `bash e2ebench/run.sh` runs (BENCHMARK.json), or for one
# package benchstat (golang.org/x/perf/cmd/benchstat) on raw output:
#   go test -run '^$$' -bench ConcurrentPut -count 10 ./internal/store > old.txt
#   ... apply the change ...
#   go test -run '^$$' -bench ConcurrentPut -count 10 ./internal/store > new.txt
#   benchstat old.txt new.txt
BENCH_SMOKE = $(GO) test -run '^$$' -benchtime 1x -benchmem -cpu 1,4
bench-smoke:
	$(BENCH_SMOKE) -bench . ./internal/prob ./internal/enumerate ./internal/pathexpr
	$(BENCH_SMOKE) -bench 'WALAppend|ConcurrentPut|OpenReplay|Compact' ./internal/store
	$(BENCH_SMOKE) -bench 'StormRead|ColdOpen' ./internal/store
	$(BENCH_SMOKE) -bench QueryPoint ./internal/engine
	$(BENCH_SMOKE) -bench 'Select|AncestorProject' ./internal/algebra
	$(BENCH_SMOKE) -bench ChildSets ./internal/core
	$(BENCH_SMOKE) -bench 'PointQuery|ExistsQuery' ./internal/query
	$(BENCH_SMOKE) -bench 'InferDAG|TreePath|CompileFigure2' ./internal/bayes
	$(BENCH_SMOKE) -bench 'Encode|Decode' ./internal/codec
	$(BENCH_SMOKE) -bench 'FollowerFanout|CachedHit|QueryMiss(DAG)?|PutPipeline|Route' ./internal/server
	$(BENCH_SMOKE) -bench InsertFull ./internal/rescache

# Reproduce the paper's Figure 7 panels into results/ (wall clock). The
# panels' shapes are asserted on counted work by internal/bench's TestFig7,
# which `make test` runs.
fig7:
	$(GO) run ./cmd/pxmlbench -panel a -instances 2 -queries 4 -csv results/fig7a.csv | tee results/fig7a.txt
	$(GO) run ./cmd/pxmlbench -panel b -instances 2 -queries 4 -csv results/fig7b.csv | tee results/fig7b.txt
	$(GO) run ./cmd/pxmlbench -panel c -instances 2 -queries 4 -csv results/fig7c.csv | tee results/fig7c.txt

# Fault-injection suite: the FaultFS matrix over the store (torn WAL
# writes, failed fsyncs, snapshot rename failures, degraded mode), the
# directory-durability check of every publishing step, and the hardened
# serving path, all under the race detector.
faults:
	$(GO) test -race -run 'Fault|Torn|Degrad|Injected|Retries|Healthz|Limiter|Bypass|Panic|Deadline|CloseReports|DurableSteps' ./internal/vfs ./internal/store ./internal/server

# Chaos soak: randomized Put/Delete traffic under randomized fault
# schedules with kill-reopen cycles and online backups, asserting zero
# acknowledged-write loss and byte-identical backup restores. Replay a
# failure with PXML_SOAK_SEED=<seed from the log>.
soak:
	PXML_SOAK_CYCLES=150 $(GO) test -race -run TestChaosSoak -v -timeout 20m ./internal/store

# Short chaos soak for CI: the same harness at the 25-cycle floor.
soak-smoke:
	PXML_SOAK_CYCLES=25 $(GO) test -race -run TestChaosSoak -v ./internal/store

# MVCC publication smoke: the epoch-catalog stress suite (point readers,
# Names/All scanners, a 16-writer storm, follower ReplApply, and a
# degraded-mode flip, all asserting monotone epochs/versions) under the
# race detector, plus the mmap/lazy-decode seams, the memory store
# answering like a durable one, racing PUTs of one name served from the
# store's catalog entry and racing DELETEs of one name of which exactly
# one finds it (each on an in-memory and a durable server), and a
# cold-open benchmark pass at GOMAXPROCS>1 to catch the lazy path
# regressing.
mvcc-smoke:
	$(GO) test -race -run 'TestMVCCStress|TestMapFile|TestCheckBinary|TestDecodeBinaryInterned|TestMemoryStore|TestConcurrentPutsServeTheStoredInstance|TestConcurrentDeletesReportOneExisted' -v ./internal/store ./internal/vfs ./internal/codec ./internal/server
	$(GO) test -run '^$$' -bench 'StormRead|ColdOpen' -benchtime 20x -cpu 2 -benchmem ./internal/store

# Telemetry end-to-end smoke: boot the real pxmld with the statsd
# exporter aimed at an in-process UDP sink, drive traffic, and assert
# the sink sees counters/gauges/percentile timers and /v1/metrics
# agrees (schema_version, percentiles). Plus the exporter/admission
# unit suites under the race detector.
telemetry-smoke:
	$(GO) test -race -run TestTelemetrySmoke -v .
	$(GO) test -race ./internal/telemetry ./internal/admission ./internal/metrics

# Replication smoke: an in-process leader with two followers streaming
# its WAL through partition proxies — leader killed and restarted
# mid-run, partitions healed — asserting followers converge to the
# leader's position with zero acknowledged-write loss, plus the
# store-level streaming edge cases (rotation-boundary resume, timeline
# gaps, torn tails), all under the race detector.
repl-smoke:
	$(GO) test -race -run 'TestRepl|TestStream|TestFollower' -v ./internal/server ./internal/store

# Failover smoke: the full leader-kill/promote/fence cycle under the
# race detector — chaos failover with a writer storm across the epoch
# flip, monitor-driven auto-promotion, promote/demote endpoint
# validation, epoch-param fencing of a stale leader, and the
# store-level EPOCH persistence/fencing suite plus the fake-clock
# failover-monitor tests.
failover-smoke:
	$(GO) test -race -short -run 'TestFailover|TestPromote|TestDemote|TestFollowerEpoch|TestFence|TestEpoch|TestMonitor' -v ./internal/server ./internal/store ./internal/repl

# Governor smoke: boot the real pxmld with a query budget and circuit
# breaker, feed it width-bomb instances, and assert typed refusals
# (intractable/budget_exceeded), breaker open/half-open/reclose over
# the wire, and unaffected healthy traffic — plus the governor,
# result-cache-cancellation, and engine suites (admission, runtime
# budget trips, prompt cancellation, panic isolation, goroutine-leak
# TestMain), all under the race detector.
govern-smoke:
	$(GO) test -race -run TestGovernSmoke -v .
	$(GO) test -race ./internal/govern ./internal/rescache ./internal/engine

# End-to-end harness smoke: e2ebench/ is its own module, so `go build
# ./...` and `go test ./...` at the root never compile it, yet it links
# against internal/bayes, internal/engine and the rest directly. Vet it
# and run its smoke test (all four workloads, untraced and traced, at a
# hundredth of their size — a few seconds) under the module flags
# e2ebench/run.sh builds with.
e2e-smoke:
	cd e2ebench && export GOFLAGS=-mod=mod GOPROXY=off GOWORK=off && $(GO) vet . && $(GO) test .

# Quick fuzz smoke for CI: a few seconds per fuzzer, catching gross
# decoder/parser regressions without the cost of a long campaign.
fuzz-smoke:
	$(GO) test ./internal/codec -run '^$$' -fuzz FuzzDecodeBinary -fuzztime 10s
	$(GO) test ./internal/codec -run '^$$' -fuzz FuzzDecodeTextDifferential -fuzztime 10s
	$(GO) test ./internal/codec -run '^$$' -fuzz '^FuzzParseProbDifferential$$' -fuzztime 10s
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzWeakTablesDifferential -fuzztime 10s
	$(GO) test ./internal/graph -run '^$$' -fuzz FuzzGraphDifferential -fuzztime 10s
	$(GO) test ./internal/pathexpr -run '^$$' -fuzz FuzzParse -fuzztime 10s
	$(GO) test ./internal/pathexpr -run '^$$' -fuzz FuzzPlanDifferential -fuzztime 10s
	$(GO) test ./internal/algebra -run '^$$' -fuzz '^FuzzProjectDifferential$$' -fuzztime 10s
	$(GO) test ./internal/pxql -run '^$$' -fuzz FuzzParse -fuzztime 10s
	$(GO) test ./internal/server -run '^$$' -fuzz FuzzAppendQueryResponse -fuzztime 10s
	$(GO) test ./internal/server -run '^$$' -fuzz '^FuzzRouteDifferential$$' -fuzztime 10s
	$(GO) test ./internal/bayes -run '^$$' -fuzz FuzzEliminateDifferential -fuzztime 10s
	$(GO) test ./internal/store -run '^$$' -fuzz FuzzScanFrames -fuzztime 10s
	$(GO) test ./internal/store -run '^$$' -fuzz FuzzDecodeRecord -fuzztime 10s
	$(GO) test ./internal/rescache -run '^$$' -fuzz FuzzCacheDifferential -fuzztime 10s

# Short fuzz passes over the codecs, the text decoder's probability read
# (against strconv.ParseFloat), the weak-instance tables, the graph's
# rows, the plan builder, the ancestor projection and selection on the
# bitset view of child sets, and variable elimination (each against what
# it replaced), the path-expression parser, the pxql parser and shape classifier, the query
# response encoder (against encoding/json), the router (against the
# http.ServeMux it replaced), the store's frame scanner
# and record decoder, and the result cache (against a reference LRU).
fuzz:
	$(GO) test ./internal/codec -fuzz 'FuzzDecodeText$$' -fuzztime 30s
	$(GO) test ./internal/codec -fuzz FuzzDecodeTextDifferential -fuzztime 30s
	$(GO) test ./internal/codec -run '^$$' -fuzz '^FuzzParseProbDifferential$$' -fuzztime 30s
	$(GO) test ./internal/codec -fuzz FuzzDecodeJSON -fuzztime 30s
	$(GO) test ./internal/codec -fuzz FuzzDecodeBinary -fuzztime 30s
	$(GO) test ./internal/core -fuzz FuzzWeakTablesDifferential -fuzztime 30s
	$(GO) test ./internal/graph -fuzz FuzzGraphDifferential -fuzztime 30s
	$(GO) test ./internal/pathexpr -fuzz FuzzParse -fuzztime 30s
	$(GO) test ./internal/pathexpr -fuzz FuzzPlanDifferential -fuzztime 30s
	$(GO) test ./internal/algebra -run '^$$' -fuzz '^FuzzProjectDifferential$$' -fuzztime 30s
	$(GO) test ./internal/pxql -fuzz FuzzParse -fuzztime 30s
	$(GO) test ./internal/server -run '^$$' -fuzz FuzzAppendQueryResponse -fuzztime 30s
	$(GO) test ./internal/server -run '^$$' -fuzz '^FuzzRouteDifferential$$' -fuzztime 30s
	$(GO) test ./internal/bayes -run '^$$' -fuzz FuzzEliminateDifferential -fuzztime 30s
	$(GO) test ./internal/store -run '^$$' -fuzz FuzzScanFrames -fuzztime 30s
	$(GO) test ./internal/store -run '^$$' -fuzz FuzzDecodeRecord -fuzztime 30s
	$(GO) test ./internal/rescache -run '^$$' -fuzz FuzzCacheDifferential -fuzztime 30s

cover:
	$(GO) test -cover ./...

clean:
	rm -f test_output.txt bench_output.txt
