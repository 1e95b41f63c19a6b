#!/bin/sh
# Runs the CLI crash sweep and prints one line per run.
#
# Usage: tools/crash_sweep.sh BUILD_DIR > tests/cli/crash_sweep.expected
#
# 592 runs of BUILD_DIR/tools/dqemu_run, each crashing slave N at T us:
#   - examples/guest/mutex.s --nodes 4 --quantum 500, with and without
#     --hier-locking, N = 1-4, T = 250-16000 in steps of 250 (512 runs);
#   - --serve --nodes 4 --requests 300 --rate 4000 --serve-workers 12
#     --hier-locking, unsharded and with --home-sharding --placement
#     first-touch, N = 1-4, T in {200, 400, 600, 900, 1200, 1500, 2000,
#     3000, 4500, 6000} (80 runs).
# A line holds only virtual observables: the arguments, the exit code, a
# cksum of stdout, the exit= and faults: summary lines, and the first line
# of a run error (a deadlock report, say). The host:, dbt: and sb: lines
# are left out, so a host-only change to the DBT leaves the output as it is.
# Runs are independent and deterministic; the output is byte-identical run
# to run, and CI's crash-smoke diffs it against the committed file.
set -eu

root=$(cd "$(dirname "$0")/.." && pwd)
build=$(cd "${1:?usage: crash_sweep.sh BUILD_DIR}" && pwd)
run="$build/tools/dqemu_run"
cd "$root"
out=$(mktemp)
err=$(mktemp)
trap 'rm -f "$out" "$err"' EXIT

# One run: its arguments are the function's, the line goes to stdout.
sweep_one() {
  status=0
  "$run" "$@" >"$out" 2>"$err" || status=$?
  digest=$(cksum <"$out" | cut -d' ' -f1)
  fields=$({
    grep -E '^\[dqemu_run\] (exit=|faults:)' "$err" | sed 's/^\[dqemu_run\] //'
    grep -m1 -E '^(run|load): ' "$err" || true
  } | awk '{ printf " | %s", $0 }')
  printf '%s | rc=%s stdout=%s%s\n' "$*" "$status" "$digest" "$fields"
}

for locking in "" --hier-locking; do
  for node in 1 2 3 4; do
    at=250
    while [ "$at" -le 16000 ]; do
      # $locking is empty or one flag: split on purpose.
      # shellcheck disable=SC2086
      sweep_one examples/guest/mutex.s --nodes 4 --quantum 500 $locking \
        --crash "$node@$at"
      at=$((at + 250))
    done
  done
done

for placement in "" "--home-sharding --placement first-touch"; do
  for node in 1 2 3 4; do
    for at in 200 400 600 900 1200 1500 2000 3000 4500 6000; do
      # shellcheck disable=SC2086
      sweep_one --serve --nodes 4 --requests 300 --rate 4000 \
        --serve-workers 12 --hier-locking $placement --crash "$node@$at"
    done
  done
done
