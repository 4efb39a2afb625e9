#!/usr/bin/env bash
# Builds the benchmark and snad from source in this checkout, then runs
# one workload:
#
#   bash perfbench/run.sh --workload signoff_bus --seed 1 --seconds 20 --trace 0
#
# Every build artifact, cache and temporary file stays under .bench_build
# at the checkout root. The last line of standard output is the result
# object; see perfbench/README.md.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/home" "$build/tmp" "$build/bin"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" HOME="$build/home" \
	XDG_CONFIG_HOME="$build/home/.config" TMPDIR="$build/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOTELEMETRY=off

cd "$root/perfbench"
go build -o "$build/bin/perfbench" . >&2
go build -o "$build/bin/snad" repro/cmd/snad >&2
cd "$root"
exec "$build/bin/perfbench" -snad "$build/bin/snad" -out-dir "$build/perfbench" "$@"
