#!/bin/sh
# Re-record every committed virtual-time BENCH_*.json at full size.
#
# Usage: tools/regenerate_bench.sh [BUILD_DIR]   (default: build)
#
# Runs the six ablation benches whose results are pure virtual time, from
# the repository root, so each writes its default BENCH_*.json there. Each
# bench also runs its own gates (identical guest results with the feature
# on and off, bytes-on-wire reduction, full retirement, ...) and fails the
# script if one trips. The output is deterministic: on an unchanged tree,
# `git diff --exit-code -- 'BENCH_*.json'` afterwards finds nothing.
# BENCH_parallel.json records host wall clock and is not re-recorded here.
set -eu

root=$(cd "$(dirname "$0")/.." && pwd)
build=$(cd "${1:-$root/build}" && pwd)
cd "$root"
unset DQEMU_BENCH_QUICK

for bench in ablation_locking ablation_dsm_diff ablation_faults \
    ablation_serving ablation_sharding ablation_recovery; do
  echo "== $bench"
  "$build/bench/$bench"
done
