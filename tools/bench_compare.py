#!/usr/bin/env python3
"""Check BENCH_parallel.json files written by bench/ablation_parallel_sim.

Usage: tools/bench_compare.py OLD.json NEW.json
       tools/bench_compare.py --gate-parallel FILE.json [FILE2.json]

With two files, every row's virtual-time observables must match exactly:
`guest_insns` and `sim_seconds`, plus throughput and latency quantiles
where a row carries them (those come from virtual time and
integer-nanosecond histograms). Wall-clock columns are ignored. Exits
non-zero if the files differ in size (quick mode), in their row names, or
in any of those fields.

--gate-parallel checks the parallel-scheduler contract WITHIN each given
file: scenario rows carrying "group"/"host_threads" are grouped, every
virtual-time observable must be byte-identical to the group's
host_threads=1 baseline, and the wall-clock speedup
(baseline wall / row wall) must clear the per-group "speedup_floor" the
bench recorded. Floors tolerate host jitter by construction: the bench
writes them with margin and waives them (0.0) on hosts without enough
cores. With two files, the two-run comparison also applies.
"""

import json
import sys

# Virtual-time observables, compared exactly. The latency fields are only
# present on serving rows.
EXACT_FIELDS = ("guest_insns", "sim_seconds")
LATENCY_FIELDS = ("throughput_rps", "p50_ms", "p99_ms", "p999_ms", "max_ms")


def load(path):
    with open(path) as f:
        doc = json.load(f)
    if "scenarios" not in doc:
        sys.exit(f"{path}: not a bench file (no 'scenarios' key)")
    return doc


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


def compare(old_doc, new_doc):
    """Two-run comparison: returns a list of virtual-time differences."""
    if old_doc.get("quick") != new_doc.get("quick"):
        return ["quick-mode mismatch: the files ran different sizes"]
    old = {s["name"]: s for s in old_doc["scenarios"]}
    new = {s["name"]: s for s in new_doc["scenarios"]}
    problems = []
    for name in sorted(old.keys() | new.keys()):
        if name not in old or name not in new:
            where = "old" if name in old else "new"
            problems.append(f"{name}: only in {where}")
            continue
        for field in EXACT_FIELDS + LATENCY_FIELDS:
            if old[name].get(field) != new[name].get(field):
                problems.append(f"{name}: {field} drifted: "
                                f"{old[name].get(field)} -> "
                                f"{new[name].get(field)}")
    return problems


def main():
    argv = sys.argv[1:]
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
    if len(argv) != 2:
        sys.exit(__doc__.strip().splitlines()[2].strip())
    problems = compare(load(argv[0]), load(argv[1]))
    if problems:
        sys.exit("virtual-time results differ: the runs are not "
                 "equivalent\n  " + "\n  ".join(problems))
    print(f"{argv[0]} and {argv[1]}: virtual time identical")


if __name__ == "__main__":
    main()
