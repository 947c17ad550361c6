#!/bin/sh
# bench_cluster.sh — horizontal-scaling benchmark: boot fleets of 1, 2,
# and 4 selestd replicas (each pinned to GOMAXPROCS=1 and capped at
# -global-rate requests/second), drive mixed read/ingest load through
# the cluster client's rendezvous routing with `selestload -addr a,b,…`,
# and record aggregate req/s per fleet size plus the speedup ratios in
# BENCH_cluster.json (human summary in BENCH_cluster.txt).
#
# What the numbers mean: each replica's capacity is pinned by the
# admission cap, far below one core's ~20k req/s saturation point, so
# several single-core daemons and the load generator fit on one host
# without contending for CPU. The measured scaling is therefore the
# routing layer's ability to aggregate replica capacity — near-linear
# speedup shows tenant sharding spreads load evenly and the client adds
# no serialisation — not a claim about this host's cores. On a
# multi-core machine, drop RATE to 0 (uncapped) and give each daemon
# its own core to measure raw scaling; the JSON records carry the cap
# and host CPU count so the two setups cannot be confused.
#
# The run fails if any request fails (the retry budget is deep enough
# that throttle refusals pace the closed loop instead of erroring) or if
# any daemon exits non-zero after SIGTERM (a failed drain), and the
# 1-replica round doubles as the `-join` smoke: a joiner daemon
# warm-boots from the loaded replica's shipped snapshot and must log
# "warm start: joined".
#
# WORKERS is per replica: a fleet of R runs R×WORKERS closed-loop
# workers, so the offered load scales with fleet capacity and the
# client never becomes the bottleneck the benchmark is blamed for —
# per-replica conditions are identical at every fleet size, which is
# what makes the speedup ratios meaningful.
#
# Knobs (env): DURATION (default 6s per fleet), WORKERS (16 per
# replica), TENANTS (256 — rendezvous placement is balanced only in
# expectation, so scaling efficiency needs enough tenants per replica
# to smooth the shares; 64 tenants over 4 replicas leaves ~25% share
# imbalance and visibly ragged speedups), SEED_VALUES (1024), RATE
# (800 req/s per
# replica), BURST (RATE/10), RETRIES (256), REPLICATION (1), SET
# ("1 2 4"), OUT (BENCH_cluster.json), TXT (BENCH_cluster.txt, "-" to
# skip).
#
# RATE=0 is the uncapped mode for multi-core hosts: daemons run with no
# admission cap (still GOMAXPROCS=1 each), so with cores >= replicas the
# 1-CPU caveat above is lifted and the speedups measure raw scaling, a
# core per daemon. On a host with fewer cores than replicas the fleet
# timeshares and the numbers mean nothing — the recorded host_cpus and
# rate_cap_rps=0 keep such a run from being mistaken for a capped one.
set -e

GO=${GO:-go}
DURATION=${DURATION:-6s}
WORKERS=${WORKERS:-16}
TENANTS=${TENANTS:-256}
SEED_VALUES=${SEED_VALUES:-1024}
RATE=${RATE:-800}
if [ "$RATE" = "0" ]; then
    # Uncapped: -global-rate 0 disables the box-wide bucket entirely
    # (burst is ignored but must not divide by zero below).
    BURST=${BURST:-0}
else
    # A tight burst keeps the cap crisp over short runs (the default
    # burst of one full second at RATE would inflate a 6s measurement
    # by ~17%).
    BURST=${BURST:-$((RATE / 10))}
fi
# Deep retry budget: at full contention an attempt's success odds are
# roughly cap/poll-rate, so a worker occasionally strings dozens of
# refusals together; the budget must make that streak's failure odds
# negligible, because one failed request fails the bench.
RETRIES=${RETRIES:-256}
REPLICATION=${REPLICATION:-1}
SET=${SET:-1 2 4}
OUT=${OUT:-BENCH_cluster.json}
TXT=${TXT:-BENCH_cluster.txt}

TMP=$(mktemp -d)
DPIDS=""
cleanup() {
    if [ -n "$DPIDS" ]; then
        kill $DPIDS 2>/dev/null
        sleep 0.5
    fi
    rm -rf "$TMP" 2>/dev/null || true
}
trap cleanup EXIT INT TERM

$GO build -o "$TMP/selestd" ./cmd/selestd
$GO build -o "$TMP/selestload" ./cmd/selestload

HOST_CPUS=$(nproc 2>/dev/null || echo 1)

# wait_log FILE PATTERN PID — poll FILE for PATTERN while PID lives.
# (Counter deliberately not named i: POSIX sh variables are global and
# the fleet loop's counter must survive the call.)
wait_log() {
    wl=0
    while [ $wl -lt 100 ]; do
        grep -q "$2" "$1" 2>/dev/null && return 0
        if ! kill -0 "$3" 2>/dev/null; then
            echo "daemon died during startup:" >&2
            cat "$1" >&2
            return 1
        fi
        sleep 0.1
        wl=$((wl + 1))
    done
    echo "timed out waiting for '$2' in $1" >&2
    cat "$1" >&2
    return 1
}

SUMMARY="$TMP/summary.txt"
: > "$SUMMARY"

for R in $SET; do
    # Boot the fleet: R single-core daemons, each capacity-pinned.
    ADDRS=""
    PIDS=""
    i=0
    while [ $i -lt "$R" ]; do
        LOG="$TMP/selestd-$R-$i.log"
        GOMAXPROCS=1 "$TMP/selestd" -addr 127.0.0.1:0 -wire-addr 127.0.0.1:0 \
            -snapshot "$TMP/snap-$R-$i.selest" -global-rate "$RATE" -global-burst "$BURST" \
            > "$LOG" 2>&1 &
        PID=$!
        PIDS="$PIDS $PID"
        DPIDS="$DPIDS $PID"
        wait_log "$LOG" "^selestd wire listening on " "$PID"
        WADDR=$(sed -n 's/^selestd wire listening on //p' "$LOG" | head -n 1)
        ADDRS="$ADDRS,$WADDR"
        i=$((i + 1))
    done
    ADDRS=${ADDRS#,}

    # Tight backoff: against a capped server the closed loop must poll
    # faster than tokens arrive or utilisation, not the cap, is what the
    # bench measures.
    "$TMP/selestload" -addr "$ADDRS" -replication "$REPLICATION" \
        -duration "$DURATION" -workers $((WORKERS * R)) -tenants "$TENANTS" \
        -seed-values "$SEED_VALUES" -retries "$RETRIES" \
        -retry-base 1ms -retry-max 10ms \
        -out "$TMP/run-$R.json"

    TOTALS=$(grep '"name":"ServiceMixedTotals"' "$TMP/run-$R.json")
    RPS=$(echo "$TOTALS" | sed 's/.*"rps":\([0-9][0-9.eE+-]*\).*/\1/')
    FAILS=$(echo "$TOTALS" | sed 's/.*"failures":\([0-9]*\).*/\1/')
    if [ "$FAILS" != "0" ]; then
        echo "fleet of $R: $FAILS failed requests (want 0)" >&2
        exit 1
    fi
    eval "RPS_$R=\$RPS"
    if [ "$RATE" = "0" ]; then
        CAP_DESC="uncapped (host_cpus=$HOST_CPUS)"
    else
        CAP_DESC="$RATE/replica"
    fi
    printf 'replicas=%s  rate_cap=%s  aggregate_rps=%.0f  failures=%s\n' \
        "$R" "$CAP_DESC" "$RPS" "$FAILS" >> "$SUMMARY"

    if [ "$R" = "1" ]; then
        # Join smoke: a fresh daemon warm-boots from the loaded replica's
        # shipped snapshot and must say so.
        JLOG="$TMP/join.log"
        GOMAXPROCS=1 "$TMP/selestd" -addr 127.0.0.1:0 -wire-addr 127.0.0.1:0 \
            -snapshot "$TMP/join.selest" -join "$ADDRS" -require-snapshot \
            > "$JLOG" 2>&1 &
        JPID=$!
        DPIDS="$DPIDS $JPID"
        wait_log "$JLOG" "warm start: joined from" "$JPID"
        [ -s "$TMP/join.selest" ] || { echo "joiner persisted no snapshot" >&2; exit 1; }
        kill -TERM "$JPID"
        wait "$JPID" || { echo "joiner exited non-zero after SIGTERM:" >&2; cat "$JLOG" >&2; exit 1; }
        echo "join smoke: warm boot from peer snapshot OK" >> "$SUMMARY"
    fi

    # Graceful fleet shutdown before the next size boots.
    kill -TERM $PIDS
    for PID in $PIDS; do
        wait "$PID" || {
            echo "fleet of $R: replica (pid $PID) exited non-zero after SIGTERM:" >&2
            cat "$TMP"/selestd-"$R"-*.log >&2
            exit 1
        }
    done
    DPIDS=""
done

# The scaling record: per-size aggregate throughput and speedups vs the
# 1-replica baseline, tagged with the capacity model so the numbers
# cannot be read as raw-CPU scaling.
SCALE="{\"name\": \"ClusterScaling\", \"host_cpus\": $HOST_CPUS, \"rate_cap_rps\": $RATE, \"replication\": $REPLICATION, \"workers\": $WORKERS, \"tenants\": $TENANTS, \"duration_s\": \"$DURATION\""
BASE=""
for R in $SET; do
    eval "RPS=\$RPS_$R"
    SCALE="$SCALE, \"rps_$R\": $RPS"
    [ -z "$BASE" ] && BASE=$RPS
done
for R in $SET; do
    [ "$R" = "1" ] && continue
    eval "RPS=\$RPS_$R"
    SPEEDUP=$(awk "BEGIN { printf \"%.3f\", $RPS / $BASE }")
    SCALE="$SCALE, \"speedup_$R\": $SPEEDUP"
    printf 'speedup at %s replicas: %sx\n' "$R" "$SPEEDUP" >> "$SUMMARY"
done
SCALE="$SCALE}"

{
    for R in $SET; do
        sed -n 's/^  \({.*}\),\{0,1\}$/\1/p' "$TMP/run-$R.json"
    done
    printf '%s\n' "$SCALE"
} | awk '
{ recs[n++] = $0 }
END {
    print "["
    for (i = 0; i < n; i++) printf "  %s%s\n", recs[i], (i < n - 1 ? "," : "")
    print "]"
}' > "$OUT"

if [ "$TXT" != "-" ]; then
    cp "$SUMMARY" "$TXT"
fi
cat "$SUMMARY"
echo "wrote $OUT"
