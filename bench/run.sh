#!/usr/bin/env bash
# Run k full passes (default 3) and one traced pass on one seed (default 7)
# and leave one pass file each in a directory (default bench/out/passes),
# ready for `bench -compare A B` and `bench -baseline DIR`.
#
#   bench/run.sh [k] [seed] [dir]
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
k="${1:-3}"
seed="${2:-7}"
dir="${3:-$here/out/passes}"
rev="$(git -C "$here" rev-parse HEAD 2>/dev/null || echo unknown)"
mkdir -p "$dir"
for i in $(seq 1 "$k"); do
	bash "$here/bench.sh" -seed "$seed" -rev "$rev" -out "$dir/pass-seed$seed-$i.json"
done
bash "$here/bench.sh" -seed "$seed" -rev "$rev" -trace 1 -out "$dir/trace-seed$seed.json"
