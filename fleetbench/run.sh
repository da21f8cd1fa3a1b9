#!/usr/bin/env bash
# Builds the fleet benchmark from this checkout's source and runs it.
# Run from the repository root:
#   bash fleetbench/run.sh --workload read_hot --seed 1 --seconds 16 --trace 0
# Build outputs, the Go build cache, the go command's own state, scratch
# fleets and span files all stay under .bench_build/ in the checkout.
set -euo pipefail
root="$(pwd)"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ]; then
	echo "fleetbench: run from the repository root (go.mod and internal/ not found)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off
(cd "$root/fleetbench" && go build -o "$out/fleetbench" .)
exec "$out/fleetbench" "$@"
