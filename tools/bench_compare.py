#!/usr/bin/env python3
"""Diff two BENCH_*.json files produced by the bench/ binaries.

Usage: tools/bench_compare.py [--latency-tol PCT] [--mips-floor PCT] \
           OLD.json NEW.json
       tools/bench_compare.py --gate-parallel FILE.json [FILE2.json]

Prints per-scenario guest-MIPS ratios (new/old) and flags virtual-time
drift: wall-clock numbers legitimately differ across machines and runs,
but `guest_insns` and `sim_seconds` are virtual-time observables and must
match exactly between two runs of the same bench configuration. Latency
benches (ablation_serving) additionally carry throughput and latency
quantiles; those are derived from virtual time and integer-nanosecond
histograms, so they too must match exactly — unless --latency-tol loosens
them to a relative percentage for comparisons across code revisions where
bit-equality is not expected.

--mips-floor PCT turns the comparison into a host-performance gate: fail
when any scenario's new guest MIPS drops below PCT% of the old value
(e.g. --mips-floor 50 tolerates a 2x slowdown but catches an
order-of-magnitude hot-path regression). Without it, exits non-zero only
on malformed input or virtual-time drift — never on a speed difference,
so it is safe as an informational CI step across hardware.

--gate-parallel checks the parallel-scheduler contract WITHIN each given
file (BENCH_parallel.json): scenario rows carrying "group"/"host_threads"
are grouped, every virtual-time observable must be byte-identical to the
group's host_threads=1 baseline, and the wall-clock speedup
(baseline wall / row wall) must clear the per-group "speedup_floor" the
bench recorded. Floors tolerate host jitter by construction: the bench
writes them with margin and waives them (0.0) on hosts without enough
cores. With two files, the normal two-run comparison also applies.
"""

import json
import sys

# Virtual-time exact observables present in every bench.
EXACT_FIELDS = ("guest_insns", "sim_seconds")
# Latency-bench observables: exact by default, tolerance-checked with
# --latency-tol. Only compared when a scenario carries them.
LATENCY_FIELDS = ("throughput_rps", "p50_ms", "p99_ms", "p999_ms", "max_ms")


def load(path):
    with open(path) as f:
        doc = json.load(f)
    if "scenarios" not in doc:
        sys.exit(f"{path}: not a bench file (no 'scenarios' key)")
    return doc


def key(scenario):
    # Rows are keyed by scenario name. The ablation benches run each
    # scenario with their feature on and off and record that axis in
    # "fastpath"; bench_host_mips rows carry no such axis.
    return (scenario["name"], scenario.get("fastpath"))


def onoff(value):
    return {True: "on", False: "off", None: "-"}[value]


def latency_drifted(old_value, new_value, tol_pct):
    if old_value == new_value:
        return False
    if tol_pct is None:
        return True
    bound = abs(old_value) * tol_pct / 100.0
    return abs(new_value - old_value) > bound


def gate_parallel(path, doc):
    """Within-file check of the parallel scheduler's contract.

    Returns a list of problem strings (empty = pass). Identity failures
    compare every virtual-time observable against the group's
    host_threads=1 row; speedup failures compare wall-clock ratios against
    the floors the bench itself recorded (0.0/absent = waived).
    """
    groups = {}
    for s in doc["scenarios"]:
        if "group" in s and "host_threads" in s:
            groups.setdefault(s["group"], {})[s["host_threads"]] = s
    if not groups:
        return [f"{path}: no scenarios carry group/host_threads rows"]
    floors = doc.get("speedup_floor", {})
    problems = []
    print(f"{'group':<22} {'ht':>3} {'wall s':>10} {'speedup':>8} "
          f"{'floor':>6} {'virtual':>8}")
    for name in sorted(groups):
        by_threads = groups[name]
        base = by_threads.get(1)
        if base is None:
            problems.append(f"{name}: no host_threads=1 baseline row")
            continue
        for threads in sorted(by_threads):
            row = by_threads[threads]
            identical = all(
                base.get(field) == row.get(field)
                for field in EXACT_FIELDS + LATENCY_FIELDS)
            speedup = (base["wall_seconds"] / row["wall_seconds"]
                       if row["wall_seconds"] else 0.0)
            floor = floors.get(name, {}).get(f"ht{threads}", 0.0)
            print(f"{name:<22} {threads:>3} {row['wall_seconds']:>10.6f} "
                  f"{speedup:>7.2f}x {floor:>6.2f} "
                  f"{'same' if identical else 'DRIFT':>8}")
            if not identical:
                fields = [f for f in EXACT_FIELDS + LATENCY_FIELDS
                          if base.get(f) != row.get(f)]
                problems.append(
                    f"{name} ht{threads}: virtual time differs from the"
                    f" serial run in {', '.join(fields)}")
            if floor and speedup < floor:
                problems.append(
                    f"{name} ht{threads}: wall-clock speedup {speedup:.2f}x"
                    f" below the recorded floor {floor:g}x")
    return problems


def float_arg(argv, flag):
    if flag not in argv:
        return None
    at = argv.index(flag)
    try:
        value = float(argv[at + 1])
    except (IndexError, ValueError):
        sys.exit(f"{flag} needs a numeric percentage")
    del argv[at:at + 2]
    return value


def main():
    argv = sys.argv[1:]
    tol_pct = float_arg(argv, "--latency-tol")
    floor_pct = float_arg(argv, "--mips-floor")
    parallel = "--gate-parallel" in argv
    if parallel:
        argv.remove("--gate-parallel")
        if len(argv) not in (1, 2):
            sys.exit("--gate-parallel needs one or two bench files")
        problems = []
        for path in argv:
            problems += gate_parallel(path, load(path))
        if problems:
            sys.exit("parallel-scheduler contract violated:\n  " +
                     "\n  ".join(problems))
        if len(argv) == 1:
            return
        # Fall through: two files also get the normal two-run comparison.
    if len(argv) != 2:
        sys.exit(__doc__.strip().splitlines()[2].strip())
    old_doc, new_doc = load(argv[0]), load(argv[1])
    old = {key(s): s for s in old_doc["scenarios"]}
    new = {key(s): s for s in new_doc["scenarios"]}
    comparable = old_doc.get("quick") == new_doc.get("quick")
    if not comparable:
        print("note: quick-mode mismatch; virtual-time checks skipped")

    drift = False
    too_slow = []
    print(f"{'scenario':<20} {'fastpath':>8} {'old MIPS':>10} "
          f"{'new MIPS':>10} {'ratio':>7}")
    for k in sorted(old.keys() | new.keys(), key=str):
        name, fastpath = k
        fp = onoff(fastpath)
        if k not in old or k not in new:
            where = "old" if k in old else "new"
            print(f"{name:<20} {fp:>8}   (only in {where})")
            continue
        o, n = old[k], new[k]
        ratio = n["guest_mips"] / o["guest_mips"] if o["guest_mips"] else 0.0
        print(f"{name:<20} {fp:>8} {o['guest_mips']:>10.2f} "
              f"{n['guest_mips']:>10.2f} {ratio:>6.2f}x")
        if floor_pct is not None and ratio * 100.0 < floor_pct:
            too_slow.append(f"{name} (fastpath {fp}): "
                            f"{ratio * 100.0:.0f}% < {floor_pct:g}%")
        if comparable:
            for field in EXACT_FIELDS:
                if o.get(field) != n.get(field):
                    drift = True
                    print(f"  !! {field} drifted: "
                          f"{o.get(field)} -> {n.get(field)}")
            for field in LATENCY_FIELDS:
                if field not in o and field not in n:
                    continue
                if field not in o or field not in n:
                    drift = True
                    print(f"  !! {field} present on only one side")
                    continue
                if latency_drifted(o[field], n[field], tol_pct):
                    drift = True
                    within = ("" if tol_pct is None
                              else f" (tol {tol_pct:g}%)")
                    print(f"  !! {field} drifted{within}: "
                          f"{o[field]} -> {n[field]}")
    if drift:
        sys.exit("virtual-time results differ: the runs are not equivalent")
    if too_slow:
        sys.exit("guest MIPS below --mips-floor:\n  " + "\n  ".join(too_slow))


if __name__ == "__main__":
    main()
