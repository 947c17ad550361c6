#!/bin/sh
# bench2json.sh — convert `go test -bench` output on stdin into a JSON
# array of benchmark records on stdout. scripts/bench.sh's full mode
# (`make bench-F`) pipes each family through it to commit the evidence
# as BENCH_F.json.
#
# Each "BenchmarkName-P   N   X ns/op   Y B/op   Z allocs/op ..." line
# becomes
#   {"name": "Name", "gomaxprocs": P, "runs": N, "ns_per_op": X,
#    "bytes_per_op": Y, "allocs_per_op": Z}
# (memory fields are omitted when -benchmem was not passed). The -P
# suffix is kept as a field so `-cpu 1,8` sweeps stay distinguishable.
# Custom metrics from b.ReportMetric — e.g. the serve suite's "p99-ns"
# latency percentiles — are carried through with '/' and '-' mapped to
# '_' ("p99-ns" -> "p99_ns"), so every reported unit lands in the JSON.
# When the REPLICAS env var is a number, every record gains a
# "replicas" field — used by cluster sweeps so single-process and fleet
# records stay distinguishable in one file.
exec awk '
BEGIN {
    replicas = ENVIRON["REPLICAS"]
    if (replicas !~ /^[0-9]+$/) replicas = ""
}
/^Benchmark/ {
    name = $1
    procs = 1
    if (match(name, /-[0-9]+$/)) {
        procs = substr(name, RSTART + 1, RLENGTH - 1)
        sub(/-[0-9]+$/, "", name)
    }
    sub(/^Benchmark/, "", name)
    rec = sprintf("{\"name\": \"%s\", \"gomaxprocs\": %s, \"runs\": %s", name, procs, $2)
    for (i = 3; i < NF; i += 2) {
        val = $i
        unit = $(i + 1)
        if (val !~ /^[0-9.eE+-]+$/) continue
        if (unit == "ns/op")          key = "ns_per_op"
        else if (unit == "B/op")      key = "bytes_per_op"
        else if (unit == "allocs/op") key = "allocs_per_op"
        else if (unit == "MB/s")      key = "mb_per_s"
        else if (unit ~ /^[A-Za-z][A-Za-z0-9_.\/-]*$/) {
            key = unit
            gsub(/[\/-]/, "_", key)
        } else continue
        rec = rec sprintf(", \"%s\": %s", key, val)
    }
    if (replicas != "") rec = rec sprintf(", \"replicas\": %s", replicas)
    rec = rec "}"
    recs[n++] = rec
}
END {
    print "["
    for (i = 0; i < n; i++) printf "  %s%s\n", recs[i], (i < n - 1 ? "," : "")
    print "]"
}
'
