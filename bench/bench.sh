#!/usr/bin/env bash
# The benchmark's entry point (BENCHMARK.json's command): build the binary
# from source into bench/out, then run it with the given arguments from the
# caller's directory, the root of the checkout.
#
#   bash bench/bench.sh --workload mesh-fine --seed 7 --seconds 15 --trace 0
#
# The build cache lives in bench/out too, so a run writes nothing outside
# the checkout; after the first build a rebuild is a cache hit.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$here/out"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
(cd "$here" && go build -o "$out/bench" .)
exec "$out/bench" -outdir "$out" "$@"
