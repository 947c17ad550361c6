# Development and CI entry points. `make ci` is the gate: vet (and
# staticcheck when installed), the full test suite, and the race detector
# over the concurrency-sensitive packages (online serving through refit
# failures, robust ladder, telemetry registry).

GO ?= go

.PHONY: build test vet staticcheck govulncheck race race-online race-serve race-service race-wire race-cluster race-experiments race-fit race-refit fuzz fuzz-query fuzz-server fuzz-wire bench bench-query bench-query-quick bench-fit bench-fit-quick benchstat-fit bench-hotpath bench-hotpath-quick benchstat-hotpath bench-refit bench-refit-quick benchstat-refit bench-serve bench-serve-quick benchstat-serve bench-service bench-service-quick bench-cluster bench-cluster-quick ci

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

# The instrumented-vs-bare benchmark pairs: the committed evidence that
# telemetry stays within the overhead budget. Writes BENCH_telemetry.json.
bench: bench-query bench-fit
	$(GO) test -run '^$$' -bench 'BenchmarkTelemetry' -benchmem ./internal/telemetry/ . \
		| tee /dev/stderr | sh scripts/bench2json.sh > BENCH_telemetry.json

# The query-engine ladder: Θ(n) linear, O(log n + k) edge scan, O(log n)
# prefix moments, and the shared batch sweep, at n up to 1e6 with the DPI
# bandwidth. Writes BENCH_query.json — the committed evidence for the
# moment path's speedup and 0 allocs/query.
bench-query:
	$(GO) test -run '^$$' -bench 'BenchmarkQuery' -benchmem ./internal/kde/ \
		| tee /dev/stderr | sh scripts/bench2json.sh > BENCH_query.json

# A fast single-iteration sweep of the query-engine benchmarks: smoke
# coverage that every BenchmarkQuery* still runs, cheap enough for ci.
bench-query-quick:
	$(GO) test -run '^$$' -bench 'BenchmarkQuery' -benchtime 1x -timeout 10m \
		./internal/kde/ > /dev/null

# The fit-path engine pairs: DPI fit, LSCV, oracle search, and the hybrid
# build, each engine-vs-seed at n up to 1e6. Writes the raw `go test`
# output to BENCH_fit.txt (the committed benchstat baseline) and the
# parsed records to BENCH_fit.json — the committed evidence for the
# shared-context + grid-sweep speedups.
bench-fit:
	$(GO) test -run '^$$' -bench 'BenchmarkFit' -benchmem -timeout 60m \
		./internal/fsort/ ./internal/kde/ ./internal/bandwidth/ ./internal/hybrid/ \
		| tee /dev/stderr | tee BENCH_fit.txt | sh scripts/bench2json.sh > BENCH_fit.json

# A fast single-iteration sweep of the same benchmarks: smoke coverage
# that every BenchmarkFit* still runs, cheap enough for ci.
bench-fit-quick:
	$(GO) test -run '^$$' -bench 'BenchmarkFit' -benchtime 1x -timeout 10m \
		./internal/fsort/ ./internal/kde/ ./internal/bandwidth/ ./internal/hybrid/ > /dev/null

# benchstat is optional tooling: when installed, diff a fresh quick run
# of the fit benches against the committed BENCH_fit.txt baseline; skip
# quietly on a bare Go toolchain.
benchstat-fit:
	@if command -v benchstat >/dev/null 2>&1 && [ -f BENCH_fit.txt ]; then \
		$(GO) test -run '^$$' -bench 'BenchmarkFit' -benchmem -benchtime 1x -timeout 10m \
			./internal/fsort/ ./internal/kde/ ./internal/bandwidth/ ./internal/hybrid/ > BENCH_fit.head.txt; \
		benchstat BENCH_fit.txt BENCH_fit.head.txt || true; \
		rm -f BENCH_fit.head.txt; \
	else \
		echo "benchstat not installed or no BENCH_fit.txt baseline; skipping"; \
	fi

# The request-path hot-path ladder: the frame codec floor (encode,
# decode, zero-copy views) and the server's inline fast path measured in
# isolation and end-to-end over pipelined TCP. The allocs/op column is
# the tentpole contract — every row must stay 0. Writes the raw output
# to BENCH_hotpath.txt (the committed benchstat baseline) and the parsed
# records to BENCH_hotpath.json.
bench-hotpath:
	$(GO) test -run '^$$' -bench 'BenchmarkHotpath' -benchmem -timeout 30m \
		./internal/wire/ ./internal/server/ \
		| tee /dev/stderr | tee BENCH_hotpath.txt | sh scripts/bench2json.sh > BENCH_hotpath.json

# A fast sweep of the same benchmarks: smoke coverage that every
# BenchmarkHotpath* still runs (and still reports 0 allocs under the
# test pins), cheap enough for ci.
bench-hotpath-quick:
	$(GO) test -run '^$$' -bench 'BenchmarkHotpath' -benchtime 100x -timeout 10m \
		./internal/wire/ ./internal/server/ > /dev/null

# benchstat is optional tooling: when installed, diff a fresh quick run
# of the hot-path benches against the committed BENCH_hotpath.txt
# baseline; skip quietly on a bare Go toolchain.
benchstat-hotpath:
	@if command -v benchstat >/dev/null 2>&1 && [ -f BENCH_hotpath.txt ]; then \
		$(GO) test -run '^$$' -bench 'BenchmarkHotpath' -benchmem -benchtime 100x -timeout 10m \
			./internal/wire/ ./internal/server/ > BENCH_hotpath.head.txt; \
		benchstat BENCH_hotpath.txt BENCH_hotpath.head.txt || true; \
		rm -f BENCH_hotpath.head.txt; \
	else \
		echo "benchstat not installed or no BENCH_hotpath.txt baseline; skipping"; \
	fi

# The closed-form refit ladder: end-to-end online refit per bandwidth
# rule at n = 1e4/1e5/1e6, the steady-state refit that merges a 4% delta
# into a 2^18-value sorted sample, the selector stage alone on a prebuilt
# context, the copy+sort+index floor, and the 0-alloc query pin. Writes
# the raw output to BENCH_refit.txt (the committed benchstat baseline)
# and the parsed records to BENCH_refit.json — the committed evidence
# for the closed-form bandwidth engine.
bench-refit:
	$(GO) test -run '^$$' -bench 'BenchmarkRefit' -benchmem -timeout 60m \
		./internal/online/ \
		| tee /dev/stderr | tee BENCH_refit.txt | sh scripts/bench2json.sh > BENCH_refit.json

# A fast single-iteration sweep of the same benchmarks: smoke coverage
# that every BenchmarkRefit* still runs, cheap enough for ci.
bench-refit-quick:
	$(GO) test -run '^$$' -bench 'BenchmarkRefit' -benchtime 1x -timeout 10m \
		./internal/online/ > /dev/null

# benchstat is optional tooling: when installed, diff a fresh quick run
# of the refit benches against the committed BENCH_refit.txt baseline;
# skip quietly on a bare Go toolchain.
benchstat-refit:
	@if command -v benchstat >/dev/null 2>&1 && [ -f BENCH_refit.txt ]; then \
		$(GO) test -run '^$$' -bench 'BenchmarkRefit' -benchmem -benchtime 1x -timeout 10m \
			./internal/online/ > BENCH_refit.head.txt; \
		benchstat BENCH_refit.txt BENCH_refit.head.txt || true; \
		rm -f BENCH_refit.head.txt; \
	else \
		echo "benchstat not installed or no BENCH_refit.txt baseline; skipping"; \
	fi

# The serving-engine pairs: snapshot engine vs the preserved RWMutex
# baseline for steady-state parallel queries, query latency during an
# n=1e6 DPI refit (the p50/p99/max stall numbers), sharded vs locked
# ingest, and the mixed workload. -cpu 1,8 sweeps GOMAXPROCS so the
# contention collapse is visible next to the uncontended cost. Writes
# the raw output to BENCH_serve.txt (the committed benchstat baseline)
# and the parsed records to BENCH_serve.json.
bench-serve:
	$(GO) test -run '^$$' -bench 'BenchmarkServe' -benchmem -cpu 1,8 -timeout 60m \
		./internal/online/ \
		| tee /dev/stderr | tee BENCH_serve.txt | sh scripts/bench2json.sh > BENCH_serve.json

# A fast sweep of the same benchmarks: smoke coverage that every
# BenchmarkServe* still runs, cheap enough for ci. 200 iterations keeps
# the during-refit pair's 1e6-insert prefill from dominating while still
# exercising the background-refit loop at least once.
bench-serve-quick:
	$(GO) test -run '^$$' -bench 'BenchmarkServe' -benchtime 200x -cpu 8 -timeout 10m \
		./internal/online/ > /dev/null

# benchstat is optional tooling: when installed, diff a fresh quick run
# of the serve benches against the committed BENCH_serve.txt baseline;
# skip quietly on a bare Go toolchain.
benchstat-serve:
	@if command -v benchstat >/dev/null 2>&1 && [ -f BENCH_serve.txt ]; then \
		$(GO) test -run '^$$' -bench 'BenchmarkServe' -benchmem -benchtime 200x -cpu 1,8 -timeout 10m \
			./internal/online/ > BENCH_serve.head.txt; \
		benchstat BENCH_serve.txt BENCH_serve.head.txt || true; \
		rm -f BENCH_serve.head.txt; \
	else \
		echo "benchstat not installed or no BENCH_serve.txt baseline; skipping"; \
	fi

# The end-to-end service benchmark: boot selestd, drive mixed read/ingest
# load with selestload, record p50/p99/p999 + retry/shed counts, shut
# down gracefully. Writes BENCH_service.json — the committed evidence for
# the service chapter of the README.
bench-service:
	sh scripts/bench_service.sh

# A short smoke run of the same harness: proves the daemon boots, serves
# under load, and drains cleanly, cheap enough for ci. Output discarded.
bench-service-quick:
	DURATION=2s WORKERS=8 SEED_VALUES=512 OUT=/dev/null sh scripts/bench_service.sh

# The horizontal-scaling benchmark: fleets of 1/2/4 capacity-pinned
# replicas driven through the cluster client's rendezvous routing, plus
# the `-join` snapshot-shipping smoke. Writes BENCH_cluster.json and
# BENCH_cluster.txt — the committed evidence for DESIGN.md §15.
bench-cluster:
	sh scripts/bench_cluster.sh

# A short smoke run of the same harness (1 and 2 replicas, short
# duration, output discarded): proves fleet boot, routed load, the
# failure gate, and the join path, cheap enough for ci.
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

ci: vet staticcheck govulncheck test race race-experiments race-fit race-refit race-serve race-service race-wire race-cluster bench-query-quick bench-fit-quick benchstat-fit bench-refit-quick benchstat-refit bench-hotpath-quick benchstat-hotpath bench-serve-quick benchstat-serve bench-service-quick bench-cluster-quick
