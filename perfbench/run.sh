#!/usr/bin/env bash
# Builds nvbench and the benchmark from source, then runs the benchmark:
#
#   bash perfbench/run.sh --workload build --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Binaries, the Go build cache and each
# run's scratch files stay under .bench_build/ in that directory.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
go build -o "$out/bin/nvbench" ./cmd/nvbench
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -nvbench "$out/bin/nvbench" -dir "$out/run" "$@"
