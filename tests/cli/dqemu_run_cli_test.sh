#!/usr/bin/env sh
# CLI contract for dqemu_run: bad invocations must fail loudly with usage,
# good ones must run. Invoked by CTest as:
#   dqemu_run_cli_test.sh <dqemu_run> <guest.s>
set -u

RUN="$1"
GUEST="$2"
failures=0

fail() {
  echo "FAIL: $1" >&2
  failures=$((failures + 1))
}

# Byte-identity comparisons must ignore the host-side cost line: wall-clock
# seconds, guest-MIPS and peak resident memory are host measurements, not
# virtual time, and jitter is expected there. Everything else must match
# exactly.
strip_host() {
  printf '%s\n' "$1" | grep -v '^\[dqemu_run\] host:'
}

# Unknown flags are an error: non-zero exit, a diagnostic naming the flag,
# and the usage text so the caller can self-correct.
out=$("$RUN" "$GUEST" --no-such-flag 2>&1)
status=$?
[ "$status" -ne 0 ] || fail "unknown flag exited 0"
case "$out" in
  *"unknown option: --no-such-flag"*) ;;
  *) fail "diagnostic does not name the bad flag: $out" ;;
esac
case "$out" in
  *usage:*) ;;
  *) fail "unknown flag did not print usage" ;;
esac

# Same contract for a flag that is missing its required value.
"$RUN" "$GUEST" --nodes >/dev/null 2>&1 && fail "--nodes without value exited 0"

# And for no program at all.
"$RUN" >/dev/null 2>&1 && fail "no arguments exited 0"

# A numeric flag takes only a value its field can hold: no sign and nothing
# past UINT32_MAX for a count or a node id, no time in microseconds whose
# picosecond form overflows, no empty or trailing text for a real number.
expect_bad_value() {
  out=$("$RUN" "$GUEST" "$@" 2>&1)
  status=$?
  [ "$status" -eq 2 ] || fail "$* exited $status, want 2"
  case "$out" in
    *"bad value for $1"*) ;;
    *) fail "$* printed no 'bad value for $1': $out" ;;
  esac
}
expect_bad_value --nodes 4294967298
expect_bad_value --nodes -1
expect_bad_value --nodes +2
expect_bad_value --quantum ""
expect_bad_value --gbps 2x
expect_bad_value --gbps ""
expect_bad_value --drop-pct abc
expect_bad_value --rate 8000/s
expect_bad_value --crash 4294967297@3500
expect_bad_value --crash 1@-5
expect_bad_value --pause 1@+100:-1
expect_bad_value --checkpoint -1:x.ckpt
expect_bad_value --checkpoint 18446744073709552:x.ckpt

# A real number the configuration cannot run with is refused up front:
# NaN or infinity, or a bandwidth or rate so low that one message's wire
# time or one arrival gap overflows the picosecond clock.
expect_bad_config() {
  out=$("$RUN" "$@" 2>&1)
  status=$?
  [ "$status" -eq 2 ] || fail "$* exited $status, want 2"
  case "$out" in
    *"bad configuration"*) ;;
    *) fail "$* printed no 'bad configuration': $out" ;;
  esac
}
expect_bad_config "$GUEST" --nodes 2 --gbps nan
expect_bad_config "$GUEST" --gbps inf
expect_bad_config "$GUEST" --gbps 1e-300
expect_bad_config "$GUEST" --faults --drop-pct nan
expect_bad_config --serve --nodes 2 --requests 50 --rate nan
expect_bad_config --serve --nodes 2 --requests 50 --rate inf
expect_bad_config --serve --nodes 2 --requests 50 --rate 1e-300

# An operand the encoder cannot hold is an assembler error naming the line
# (exit 1), not an abort.
bad_src=$(mktemp) || exit 1
printf 'nop\nlw a0, 40000(sp)\n' > "$bad_src"
out=$("$RUN" "$bad_src" 2>&1)
status=$?
[ "$status" -eq 1 ] || fail "out-of-range load offset exited $status: $out"
case "$out" in
  *"line 2: 40000 is out of range"*) ;;
  *) fail "out-of-range load offset printed no assembler error: $out" ;;
esac
rm -f "$bad_src"

# The usage text and this list must name exactly the same flags. Usage is
# generated from the same table the parser matches against, and this list
# is the external contract: a flag added to the parser but missing here, or
# listed here but gone from the parser, fails the test.
usage=$("$RUN" 2>&1)
flags=$(echo --nodes --cores --quantum --dump-hot --rtt-us --gbps \
        --forwarding --splitting --dsm-diff --hier-locking --home-sharding \
        --placement --host-threads --hint-sched --faults --fault-seed \
        --drop-pct --crash --pause --giveup-retrans --checkpoint --restore \
        --serve --requests --arrival --rate --clients --think-us --clone \
        --serve-workers --serve-seed --stats --breakdown --trace \
        --trace-categories --verbose --help)
named=$(printf '%s\n' "$usage" | grep -o -- '--[a-z][a-z-]*' | sort -u)
for flag in $flags; do
  case " $(echo $named) " in
    *" $flag "*) ;;
    *) fail "usage does not mention $flag" ;;
  esac
done
for flag in $named; do
  case " $flags " in
    *" $flag "*) ;;
    *) fail "usage names $flag, which the flag list lacks" ;;
  esac
done

# --help prints the same usage text and exits 0.
"$RUN" --help >/dev/null 2>&1 || fail "--help exited non-zero"

# A good invocation (with the new flags) still runs to completion.
out=$("$RUN" "$GUEST" --nodes 2 --faults --fault-seed 3 --drop-pct 2 2>&1)
status=$?
[ "$status" -eq 0 ] || fail "clean run with --faults exited $status: $out"
case "$out" in
  *"exit="*) ;;
  *) fail "clean run printed no result summary: $out" ;;
esac
case "$out" in
  *"retrans="*) ;;
  *) fail "fault run printed no net summary: $out" ;;
esac
case "$out" in
  *"[dqemu_run] host: "*" peak-rss="*" MiB"*) ;;
  *) fail "host line reports no peak-rss: $out" ;;
esac

# A bad placement policy fails loudly and names the accepted values.
out=$("$RUN" "$GUEST" --home-sharding --placement sticky 2>&1)
status=$?
[ "$status" -ne 0 ] || fail "bad --placement exited 0"
case "$out" in
  *"first-touch"*) ;;
  *) fail "bad --placement diagnostic lists no valid policies: $out" ;;
esac

# Home sharding: the run completes, prints the per-home evenness summary,
# and is byte-reproducible.
s1=$("$RUN" "$GUEST" --nodes 3 --home-sharding --placement hash 2>&1)
status=$?
[ "$status" -eq 0 ] || fail "--home-sharding run exited $status: $s1"
case "$s1" in
  *"homes: active="*) ;;
  *) fail "--home-sharding printed no homes summary: $s1" ;;
esac
s2=$("$RUN" "$GUEST" --nodes 3 --home-sharding --placement hash 2>&1)
[ "$(strip_host "$s1")" = "$(strip_host "$s2")" ] ||
  fail "same-seed --home-sharding runs differ"

# Serving mode: --serve takes no program argument...
"$RUN" "$GUEST" --serve >/dev/null 2>&1 && fail "--serve with a program exited 0"

# ...and runs the built-in worker pool.
out=$("$RUN" --serve --nodes 2 --requests 200 --rate 4000 \
      --serve-workers 8 --serve-seed 5 2>&1)
status=$?
[ "$status" -eq 0 ] || fail "--serve run exited $status: $out"
case "$out" in
  *"serve: requests=200 retired=200"*) ;;
  *) fail "--serve printed no serve summary: $out" ;;
esac
case "$out" in
  *"p99="*) ;;
  *) fail "--serve summary has no tail percentiles: $out" ;;
esac
# Same seed, same everything: the whole output must be byte-identical,
# lossy wire included.
two=$("$RUN" --serve --nodes 2 --requests 200 --rate 4000 \
      --serve-workers 8 --serve-seed 5 2>&1)
[ "$(strip_host "$out")" = "$(strip_host "$two")" ] ||
  fail "same-seed --serve runs differ"
f1=$("$RUN" --serve --nodes 2 --requests 200 --rate 4000 \
     --serve-workers 8 --faults --drop-pct 2 2>&1)
f2=$("$RUN" --serve --nodes 2 --requests 200 --rate 4000 \
     --serve-workers 8 --faults --drop-pct 2 2>&1)
[ "$(strip_host "$f1")" = "$(strip_host "$f2")" ] ||
  fail "same-seed --serve --faults runs differ"

# The parallel scheduler must not change a single byte of the summary
# (virtual time, counters, serve percentiles) — only the host cost line.
par=$("$RUN" --serve --nodes 2 --requests 200 --rate 4000 \
      --serve-workers 8 --serve-seed 5 --host-threads 2 2>&1)
status=$?
[ "$status" -eq 0 ] || fail "--host-threads 2 run exited $status: $par"
[ "$(strip_host "$par")" = "$(strip_host "$out")" ] ||
  fail "--host-threads 2 output differs from --host-threads 1"

# DESIGN.md §18's lease-return branch (LockAgent::return_all in the crash
# last gasp): node 1 dies at 3500 us holding a futex lease, returns it with
# its queue and flushes its dirty page home, and the mutex still completes.
out=$("$RUN" "$GUEST" --nodes 4 --quantum 500 --hier-locking \
      --crash 1@3500 --stats 2>&1)
status=$?
[ "$status" -eq 0 ] || fail "lease-return crash run exited $status: $out"
case "$out" in
  *"exit=64000 "*) ;;
  *) fail "lease-return crash run did not exit 64000: $out" ;;
esac
case "$out" in
  *" leases_returned=1 "*) ;;
  *) fail "lease-return crash run returned no lease: $out" ;;
esac
for counter in "sys.crash_lease_returns = 1" "dsm.crash_flushes = 1"; do
  printf '%s\n' "$out" | grep -qx "$counter" ||
    fail "lease-return crash run lacks '$counter'"
done

# An untraced checkpoint restores under --trace: a tracer hands out causal
# flow ids, which parked futex waiters carry, and no digest may see them.
tmp=$(mktemp -d) || exit 1
crash="--serve --nodes 4 --requests 300 --rate 4000 --serve-workers 12
       --crash 2@900"
# shellcheck disable=SC2086  # $crash is a flag list
"$RUN" $crash --checkpoint "40000:$tmp/crash.ckpt" >/dev/null 2>&1 ||
  fail "checkpointed crash run failed"
# shellcheck disable=SC2086
out=$("$RUN" $crash --restore "$tmp/crash.ckpt" --trace "$tmp/restore.txt" \
      2>&1 >/dev/null)
status=$?
[ "$status" -eq 0 ] || fail "traced restore exited $status: $out"
case "$out" in
  *"(match)"*) ;;
  *) fail "traced restore did not match the untraced checkpoint: $out" ;;
esac
# Nor does a checkpoint depend on the host thread count: the serial one
# restores under the parallel kernel.
# shellcheck disable=SC2086
out=$("$RUN" $crash --restore "$tmp/crash.ckpt" --host-threads 2 2>&1 >/dev/null)
status=$?
[ "$status" -eq 0 ] || fail "--host-threads 2 restore exited $status: $out"
case "$out" in
  *"(match)"*) ;;
  *) fail "--host-threads 2 restore did not match the serial checkpoint: $out" ;;
esac
rm -rf "$tmp"

[ "$failures" -eq 0 ] && echo "PASS"
exit "$failures"
