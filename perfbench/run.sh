#!/usr/bin/env bash
# Builds selestd and the benchmark program from the checkout's source into
# .bench_build/, then runs one benchmark invocation with the given
# arguments (--workload, --seed, --seconds, --trace). Run it from the
# repository root. Every file it writes stays under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/selestd" ]]; then
	echo "run.sh: no selest source in $root; run it from the repository root" >&2
	exit 1
fi
mkdir -p "$out/tmp" "$out/config/go/telemetry"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
export XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp"
# With telemetry on, the go command forks a detached upload process that
# can outlive the build; turning it off keeps go from starting it.
echo off >"$out/config/go/telemetry/mode"
cd "$root/perfbench"
go build -o "$out/selestd" selest/cmd/selestd
go build -o "$out/perfbench" .
cd "$root"
exec "$out/perfbench" -selestd "$out/selestd" -workdir "$out/tmp" "$@"
