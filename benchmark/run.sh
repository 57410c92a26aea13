#!/usr/bin/env bash
# Builds the benchmark from source and runs it; BENCHMARK.json names this
# script as the command. Every build output, including Go's build cache,
# stays inside the checkout under .bench_build/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" # Go's env file and telemetry counters
export GOTOOLCHAIN=local GOPROXY=off

# The module replaces github.com/smrgo/hpbrcu with the parent directory,
# so this fails (non-zero, nothing on stdout) anywhere but in a checkout
# of the repository.
(cd "$here" && go build -o "$out/hpbench" .) >&2

exec "$out/hpbench" -spec "$root/BENCHMARK.json" "$@"
