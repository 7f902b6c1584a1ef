#!/usr/bin/env bash
# Builds the benchmark into .bench_build/ and runs it from the root of
# the repository with the given arguments, for example
#
#   bash bench/run.sh --workload probe-cold --seed 1 --seconds 10 --trace 0
#
# The benchmark is a Go module of its own that uses the repository
# through a replace directive, so it always measures the code beside
# it. The build cache lives under .bench_build/ as well, and the build
# never reaches for the network.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOFLAGS= GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/bench" && go build -o "$out/oraql-bench" .)
cd "$root"
exec "$out/oraql-bench" "$@"
