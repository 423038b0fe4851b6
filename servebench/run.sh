#!/usr/bin/env bash
# Builds cmd/mpqserve and the benchmark from this checkout, then runs
# the benchmark with the given arguments:
#
#	bash servebench/run.sh --workload picks-hot --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Build caches and outputs stay in
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/mpqserve || ! -f servebench/go.mod ]]; then
	echo "servebench: run from the repository root (needs go.mod and cmd/mpqserve)" >&2
	exit 2
fi
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/bin" "$out/gocache" "$out/gotmp" "$out/config"

# Keep every build artifact, temp file and tool config inside the
# checkout, and never reach for the network.
export GOCACHE=$out/gocache GOTMPDIR=$out/gotmp XDG_CONFIG_HOME=$out/config
export GOPATH=$out/gopath GOPROXY=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off

go build -o "$out/bin/mpqserve" ./cmd/mpqserve
(cd servebench && go build -o "$out/bin/servebench" .)
exec "$out/bin/servebench" -server "$out/bin/mpqserve" -out "$out/servebench" "$@"
