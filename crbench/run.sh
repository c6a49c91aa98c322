#!/usr/bin/env bash
# Builds the checkpoint/restart benchmark from the checkout it sits in and
# runs it with the given arguments, e.g.
#
#   bash crbench/run.sh --workload ckpt-wide --seed 1 --seconds 22 --trace 0
#
# Everything the build writes (compiler cache, binary) stays under
# .bench_build/ at the root of the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
# The go command's own files (telemetry counters, env file) go under
# the checkout too.
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
(cd "$root/crbench" && go build -o "$out/crbench" .)
cd "$root"
exec "$out/crbench" "$@"
