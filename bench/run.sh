#!/usr/bin/env bash
# Builds the benchmark and runs it from the repository root:
#
#   bash bench/run.sh [-workload a,b] [-seed n] [-seconds s] [-trace 0|1|file] [-o report.json]
#   bash bench/run.sh -compare a.json b.json
#
# Every build product and scratch file stays under .bench_build/ in the
# checkout: the Go build cache, temporary files and the go command's own
# configuration directory. The module proxy is off; nothing is fetched.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" TMPDIR="$out/tmp" \
  XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local
go -C bench build -o "$out/bench" .
exec "$out/bench" "$@"
