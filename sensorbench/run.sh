#!/usr/bin/env bash
# Builds the sensor benchmark from source and runs it with the given
# arguments, from the root of a checkout:
#
#   bash sensorbench/run.sh --workload bulk --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and trace files go under
# $CARGO_TARGET_DIR (default .bench_build) in the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"

export GOCACHE=$out/go-cache
export GOMODCACHE=$out/go-mod
export XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=

(cd "$root/sensorbench" && go build -o "$out/sensorbench" .)
exec "$out/sensorbench" --out "$out" "$@"
