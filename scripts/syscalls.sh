#!/bin/sh
# syscalls.sh — selestd's read and write syscalls and CPU per wire
# request under selestload's default load (closed loop, 32 workers,
# 4 connections, 80/20 reads to ingests, 10 s).
#
# It boots selestd on ephemeral ports and starts selestload against its
# wire listener. At 3 s and at 9 s after the load starts it reads
# selestd's syscr and syscw from /proc/<pid>/io, its utime + stime from
# /proc/<pid>/stat, and selest_server_wire_requests_total from
# /metrics; it prints the differences per request. The run fails unless
# selestd exits 0 on SIGTERM.
#
# The numbers follow the host (its CPU speed, steal and kernel), so
# compare two builds by alternating runs on one host; `make ci` leaves
# this out. Needs Linux /proc and curl.
set -e

GO=${GO:-go}

TMP=$(mktemp -d)
DPID=""
LPID=""
cleanup() {
    [ -z "$LPID" ] || kill "$LPID" 2>/dev/null || true
    [ -z "$DPID" ] || kill "$DPID" 2>/dev/null || true
    rm -rf "$TMP" 2>/dev/null || true
}
trap cleanup EXIT INT TERM

$GO build -o "$TMP/selestd" ./cmd/selestd
$GO build -o "$TMP/selestload" ./cmd/selestload

"$TMP/selestd" -addr 127.0.0.1:0 -wire-addr 127.0.0.1:0 > "$TMP/selestd.log" 2>&1 &
DPID=$!
n=0
until grep -q '^selestd wire listening on ' "$TMP/selestd.log" 2>/dev/null; do
    if ! kill -0 "$DPID" 2>/dev/null || [ $n -ge 100 ]; then
        echo "selestd did not start:" >&2
        cat "$TMP/selestd.log" >&2
        exit 1
    fi
    sleep 0.1
    n=$((n + 1))
done
HADDR=$(sed -n 's/^selestd listening on //p' "$TMP/selestd.log" | head -n 1)
WADDR=$(sed -n 's/^selestd wire listening on //p' "$TMP/selestd.log" | head -n 1)

# sample prints "syscr syscw cpu_ticks wire_requests" for selestd.
sample() {
    io=$(awk '$1 == "syscr:" { r = $2 } $1 == "syscw:" { w = $2 } END { print r, w }' "/proc/$DPID/io")
    ticks=$(awk '{ print $14 + $15 }' "/proc/$DPID/stat")
    reqs=$(curl -fsS "http://$HADDR/metrics" | awk '$1 == "selest_server_wire_requests_total" { print $2 }')
    echo "$io $ticks $reqs"
}

"$TMP/selestload" -addr "$WADDR" -out "$TMP/load.json" &
LPID=$!
sleep 3
A=$(sample)
sleep 6
B=$(sample)
wait "$LPID" || { echo "selestload failed" >&2; exit 1; }
LPID=""

echo "$A $B $(getconf CLK_TCK)" | awk '{
    reqs = $8 - $4
    if (reqs <= 0) { print "no wire requests between the samples" > "/dev/stderr"; exit 1 }
    printf "selestd 3s..9s: %d wire requests, %.3f write and %.3f read syscalls per request, %.2f us CPU per request\n",
        reqs, ($6 - $2) / reqs, ($5 - $1) / reqs, ($7 - $3) / $9 * 1e6 / reqs
}'

kill -TERM "$DPID"
if ! wait "$DPID"; then
    echo "selestd exited non-zero after SIGTERM:" >&2
    cat "$TMP/selestd.log" >&2
    exit 1
fi
DPID=""
