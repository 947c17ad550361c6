# Development and CI entry points. `make ci` is the gate: vet (and
# staticcheck when installed), the full test suite, a fresh run of the
# paper's experiments against experiments_output.txt, the race detector
# over the concurrency-sensitive packages (online serving through refit
# failures, robust ladder, telemetry registry), a smoke run of every
# go-test benchmark, and the service smoke runs.

GO ?= go

.PHONY: build test vet staticcheck govulncheck race race-online race-serve race-service race-wire race-cluster race-experiments race-fit race-refit fuzz fuzz-query fuzz-server fuzz-wire bench bench-query bench-query-quick bench-fit bench-fit-quick benchstat-fit bench-hotpath bench-hotpath-quick benchstat-hotpath bench-refit bench-refit-quick benchstat-refit bench-serve bench-serve-quick benchstat-serve bench-quick perfbench-quick bench-cluster bench-cluster-quick experiments-check ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# The online refit-failure suite is the race-detector hot spot: readers
# serve while writers fail, panic, and degrade the builder ladder.
race-online:
	$(GO) test -race -v -run 'Refit|Panic|Degrad|Drift|Concurrent' ./internal/online/

# The serving-engine suite under the race detector: snapshot/locked
# bit-equivalence (per record and run-batched), torn-pair detection,
# single-flight coalescing, the degradation soak, cadence counting of
# inserts that land during a build, sharded-reservoir concurrency
# (per-element and run-batched admission), sorted views (merge and full
# paths against a sorted snapshot, and under concurrent AddBatch), and
# catalog snapshot churn.
race-serve:
	$(GO) test -race -run 'Snapshot|Torn|Coalesce|Soak|Sharded|Churn|SelectivityOK|InsertBatch|AddBatch|Sorted|DuringBuild' \
		./internal/online/ ./internal/sample/ ./internal/catalog/

# The service chaos suite under the race detector: refit-panic soak with
# rung descent and recovery, kill-and-restart bit-identical snapshots,
# shutdown under load dropping nothing, slow-tenant quota isolation, and
# torn-snapshot cold starts.
race-service:
	$(GO) test -race ./internal/server/

# The wire-transport suites under the race detector: the binary listener
# through the refit-panic soak, shutdown-conservation, slow-tenant
# isolation, panic containment, and protocol garbage — plus the client
# package's pipelining/redial/health-check concurrency.
race-wire:
	$(GO) test -race -run 'TestWireChaos|TestWire' ./internal/server/
	$(GO) test -race ./client/

# The cluster suites under the race detector: rendezvous-ring movement
# and stability properties, tenant sharding against server-side ground
# truth, read failover and write fan-out past a dead replica, health
# ejection/re-admission, snapshot shipping byte-identity and torn
# transfers, and the kill/restart chaos run with zero visible errors.
race-cluster:
	$(GO) test -race ./internal/cluster/
	$(GO) test -race -run 'TestClientCluster|TestClientFetchSnapshot' ./client/
	$(GO) test -race -run 'TestSnapshotShip' ./internal/server/

# The parallel experiment harness under the race detector: bounded worker
# pool, once-per-key Env cache, and the parallel-equals-sequential report
# property.
race-experiments:
	$(GO) test -race -run 'Parallel|ForEach|RunDrivers|EnvConcurrent' ./internal/experiments/

# Short fuzz pass over the robust ladder's finite-[0,1] invariant.
fuzz:
	$(GO) test -fuzz FuzzBuild -fuzztime 30s ./internal/robust/

# Short fuzz pass over the prefix-moment query engine: the O(log n)
# closed form must match the Θ(n) reference within 1e-9 on fuzzer-chosen
# sample shapes and query bits.
fuzz-query:
	$(GO) test -run '^$$' -fuzz FuzzMomentMatchesLinear -fuzztime 30s ./internal/kde/

# Short fuzz passes over the service's two fronts: malformed JSON,
# NaN/Inf spellings and inverted ranges through the HTTP decoders (always
# a typed 4xx, never a panic), then arbitrary op bytes and payloads
# through the wire front (a well-formed response or a non-internal error
# frame, never a panic). The wire front's coverage depends on goroutine
# scheduling, so minimizing a new corpus entry rarely converges; a 1 s
# minimize bound keeps the 30 s on new inputs.
fuzz-server:
	$(GO) test -run '^$$' -fuzz '^FuzzHTTPDecoders$$' -fuzztime 30s ./internal/server/
	$(GO) test -run '^$$' -fuzz '^FuzzWireRequests$$' -fuzztime 30s -fuzzminimizetime 1s ./internal/server/

# Short fuzz pass over the selestwire codec: arbitrary bytes through
# ReadFrame never panic or over-allocate, and every frame that round-trips
# through AppendFrame decodes back bit-identically.
fuzz-wire:
	$(GO) test -run '^$$' -fuzz FuzzWireCodec -fuzztime 30s ./internal/wire/

# staticcheck is optional tooling: run it when installed, skip quietly
# when not, so ci works on a bare Go toolchain.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping"; \
	fi

# The go-test benchmark families (query, fit, hotpath, refit, serve,
# telemetry, paper, ring) are rows of one table in scripts/bench.sh:
# packages, -bench regex, full-run flags, smoke flags. bench-F writes
# BENCH_F.txt (the benchstat baseline) and BENCH_F.json; bench-F-quick
# smoke-runs F; benchstat-F diffs a fresh smoke-iteration run against
# BENCH_F.txt when benchstat is installed; bench-quick smoke-runs every
# family and fails on a benchmark that is in none. `make bench` is the
# query and fit families plus the telemetry overhead pairs.
BENCH = GO=$(GO) sh scripts/bench.sh

bench: bench-query bench-fit
	$(BENCH) full telemetry

bench-query bench-fit bench-hotpath bench-refit bench-serve:
	$(BENCH) full $(@:bench-%=%)

bench-query-quick bench-fit-quick bench-hotpath-quick bench-refit-quick bench-serve-quick:
	$(BENCH) quick $(@:bench-%-quick=%)

benchstat-fit benchstat-hotpath benchstat-refit benchstat-serve:
	$(BENCH) diff $(@:benchstat-%=%)

bench-quick:
	$(BENCH) quick

# The repository benchmark's smoke run (perfbench/, BENCHMARK.json): boot
# selestd, drive the mixed workload for 2 s, and gate answer parity
# against an in-process reference, the ingest conservation law
# (inserted == accepted - shed), and a logged clean SIGTERM drain that
# leaves a non-empty snapshot.
perfbench-quick:
	bash perfbench/run.sh -workload mixed -seed 1 -seconds 2

# The horizontal-scaling benchmark: fleets of 1/2/4 capacity-pinned
# replicas driven through the cluster client's rendezvous routing, plus
# the `-join` snapshot-shipping smoke. Writes BENCH_cluster.json and
# BENCH_cluster.txt — the committed evidence for DESIGN.md §15.
bench-cluster:
	sh scripts/bench_cluster.sh

# A short smoke run of the same harness (1 and 2 replicas, short
# duration, output discarded): proves fleet boot, routed load, the
# failure gate, the join path and clean drains, cheap enough for ci.
bench-cluster-quick:
	DURATION=2s TENANTS=16 SEED_VALUES=256 SET="1 2" OUT=/dev/null TXT=- \
		sh scripts/bench_cluster.sh

# govulncheck is optional tooling: scan when installed, skip quietly on
# a bare Go toolchain so ci never needs network access.
govulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping"; \
	fi

# The paper's numbers, pinned: a fresh run of every experiment must
# reproduce the committed experiments_output.txt byte for byte, apart
# from its "(N experiments finished in …)" elapsed-time line.
experiments-check:
	@dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	elapsed='^([0-9]* experiments finished in .*)$$'; \
	$(GO) run ./cmd/experiments > "$$dir/run.txt" && \
	grep -v "$$elapsed" "$$dir/run.txt" > "$$dir/fresh.txt"; \
	grep -v "$$elapsed" experiments_output.txt > "$$dir/committed.txt"; \
	diff -u "$$dir/committed.txt" "$$dir/fresh.txt"

# The fit-path determinism pins under the race detector: parallel LSCV /
# oracle grids and the hybrid bin fill must be bit-identical to their
# sequential scans at every worker count.
race-fit:
	$(GO) test -race -run 'Workers|FitContext|DensityGrid|MatchesSeed' \
		./internal/fsort/ ./internal/kde/ ./internal/bandwidth/ ./internal/hybrid/

# The closed-form refit determinism pin under the race detector: online
# refits under the beta-closed-form rule must be bit-identical across
# shard counts and concurrent insert interleavings.
race-refit:
	$(GO) test -race -run 'ClosedForm' \
		./internal/online/ ./internal/bandwidth/

ci: vet staticcheck govulncheck test experiments-check race race-experiments race-fit race-refit race-serve race-service race-wire race-cluster bench-quick benchstat-fit benchstat-refit benchstat-hotpath benchstat-serve perfbench-quick bench-cluster-quick
