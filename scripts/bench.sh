#!/bin/sh
# bench.sh — runs the go-test benchmarks. Each benchmark family is one
# row of the table in families(); the make bench-F, bench-F-quick and
# benchstat-F targets delegate here.
#
#   sh scripts/bench.sh full F      run family F for real: the raw output
#                                   goes to BENCH_F.txt (the benchstat
#                                   baseline), the parsed records to
#                                   BENCH_F.json
#   sh scripts/bench.sh quick [F]   smoke-run family F, or every family,
#                                   output discarded; with no F it first
#                                   fails if a Benchmark outside perfbench/
#                                   belongs to no family
#   sh scripts/bench.sh diff F      benchstat a fresh run at the smoke
#                                   iteration count against BENCH_F.txt;
#                                   skips quietly without benchstat or a
#                                   baseline
set -e

GO=${GO:-go}

# One row per family: name | packages | -bench regex | full-run flags |
# smoke flags. The first smoke flag is the -benchtime a diff run reuses,
# with the full run's flags so its rows pair with the baseline's.
#
#   query      Θ(n) linear, edge-scan and prefix-moment kernel queries
#              at n up to 1e6, and queries spread over pools of
#              estimators
#   fit        the fit-path engine against the seed implementations: DPI,
#              LSCV, oracle search, hybrid build, radix sort
#   hotpath    frame codec and the server's inline fast path, alone and
#              over pipelined TCP; every row must report 0 allocs/op. The
#              smoke runs 100 iterations so the pipelined benchmark sends
#              a full 64-deep window.
#   refit      online refits per bandwidth rule, the steady-state merge
#              refit, the selector alone, the copy+sort+index floor, and
#              the reservoir admission that feeds them (internal/sample)
#   serve      snapshot engine against the RWMutex baseline: parallel
#              queries, queries during an n = 1e6 DPI refit, parallel
#              ingest through the reservoir's one lock, mixed.
#              The smoke runs 200 iterations at GOMAXPROCS 8: enough to
#              exercise the background-refit loop at least once without
#              the during-refit pair's 1e6-insert prefill dominating.
#   telemetry  instrumented against bare: the overhead budget
#   paper      the paper's tables and figures, the ablations, the
#              extensions (root package)
#   ring       rendezvous-ring placement
families() {
	cat <<'EOF'
query|./internal/kde|BenchmarkQuery|-benchmem|1x
fit|./internal/fsort ./internal/kde ./internal/bandwidth ./internal/hybrid|BenchmarkFit|-benchmem -timeout 60m|1x
hotpath|./internal/wire ./internal/server|BenchmarkHotpath|-benchmem -timeout 30m|100x
refit|./internal/online ./internal/sample|BenchmarkRefit|-benchmem -timeout 60m|1x
serve|./internal/online|BenchmarkServe|-benchmem -cpu 1,8 -timeout 60m|200x -cpu 8
telemetry|./internal/telemetry .|BenchmarkTelemetry|-benchmem|1x
paper|.|.|-benchmem -timeout 60m|1x
ring|./internal/cluster|.|-benchmem|1x
EOF
}

# orphans prints every Benchmark function outside perfbench/ (its own
# module) that no family's packages and regex select.
orphans() {
	grep -r -o --include='*_test.go' --exclude-dir=perfbench --exclude-dir=.bench_build \
		'^func Benchmark[A-Za-z0-9_]*' . |
		while IFS=: read -r file fn; do
			dir=$(dirname "$file") name=${fn#func }
			families | while IFS='|' read -r _ pkgs re _ _; do
				case " $pkgs " in *" $dir "*) echo "$name" | grep -E "$re" || true ;; esac
			done | grep -q . || echo "$dir $name"
		done
}

mode=$1 want=$2
rows=$(families | awk -F'|' -v f="$want" 'f == "" || $1 == f')
if [ -z "$rows" ] || { [ -z "$want" ] && [ "$mode" != quick ]; }; then
	echo "usage: sh scripts/bench.sh full|diff FAMILY, or quick [FAMILY];" \
		"families: $(families | cut -d'|' -f1 | tr '\n' ' ')" >&2
	exit 2
fi

if [ "$mode" = quick ] && [ -z "$want" ]; then
	missing=$(orphans)
	if [ -n "$missing" ]; then
		printf 'bench.sh: benchmarks in no family (add them to the table):\n%s\n' "$missing" >&2
		exit 1
	fi
fi

while IFS='|' read -r fam pkgs re full smoke; do
	case $mode in
	full)
		$GO test -run '^$' -bench "$re" $full $pkgs </dev/null |
			tee /dev/stderr | tee "BENCH_$fam.txt" | sh scripts/bench2json.sh >"BENCH_$fam.json"
		;;
	quick)
		$GO test -run '^$' -bench "$re" -benchtime $smoke -timeout 10m $pkgs </dev/null >/dev/null
		;;
	diff)
		if ! command -v benchstat >/dev/null 2>&1 || [ ! -f "BENCH_$fam.txt" ]; then
			echo "benchstat not installed or no BENCH_$fam.txt baseline; skipping"
			continue
		fi
		fresh=$(mktemp)
		$GO test -run '^$' -bench "$re" $full -benchtime "${smoke%% *}" $pkgs </dev/null >"$fresh"
		benchstat "BENCH_$fam.txt" "$fresh" || true
		rm -f "$fresh"
		;;
	*)
		echo "bench.sh: unknown mode '$mode' (full, quick or diff)" >&2
		exit 2
		;;
	esac
done <<EOF
$rows
EOF
