#!/usr/bin/env python3
"""Host-time benchmark of the dqemu simulator (see README.md beside this file).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S
    python3 perfbench/run.py --record-fingerprints

Builds perfbench/ (and with it ../src) into $CARGO_TARGET_DIR, default
.bench_build, then runs the workload for S host seconds and prints, as the
last line of standard output, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics from the untraced binary.
--trace 1 splits the budget between the untraced binary and the traced
one (layer entry points wrapped at link time), alternating them, and
reports the per-layer metrics. Every repetition is checked: the run must
succeed, its virtual fingerprint must equal the recorded one
(fingerprints.json) and the other repetitions', serve_s4 must satisfy its
closed forms, and a traced repetition must reproduce the untraced
fingerprint, see a call in every layer the workload exercises, and
attribute at least 95% of the run to those layers on the serial workloads.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
FINGERPRINTS = os.path.join(HERE, "fingerprints.json")
DEADLINE_S = 170.0  # one invocation must finish well inside 180 s
MIN_COVERAGE = 0.95
RECORDED_SEEDS = range(1, 21)  # serve_s4 seeds kept in fingerprints.json
# Every host time is rescaled to a reference host speed: a repetition's
# times are multiplied by REFERENCE_PROBE_S over the mean time of the fixed
# probe (bench.cpp: calibrate()) run just before and just after it. The
# shared host's speed drifts by up to 1.5x within half a minute; the probe
# drifts with it, so the ratio stays put. 8 ms is the probe's time on an
# idle 4-vCPU Xeon host, where rescaled and raw times roughly agree.
REFERENCE_PROBE_S = 0.008

# Spans every traced repetition of a workload must see at least one call of
# (names from layer_trace.cpp). A wrapper that stops seeing calls, because
# an entry point was renamed, inlined or moved into one translation unit
# with its caller, fails the repetition instead of reading as zero time.
SERIAL_SPANS = ["run_one", "exec", "translate", "stats_add"]
DSM_SPANS = ["net_send", "node_msg", "dir_msg", "client_msg", "request_page",
             "master_sys"]

# Sizes and cluster configurations live in bench.cpp. "serial": runs on the
# serial event kernel, so the coverage gate applies; "seeded": --seed
# reaches the guest's inputs, so fingerprints are recorded per seed.
WORKLOADS = {
    "blackscholes_1n": {
        "serial": True, "seeded": False,
        "spans": SERIAL_SPANS + ["net_send", "node_msg", "master_sys"],
    },
    "fluidanimate_s4": {
        "serial": True, "seeded": False,
        "spans": SERIAL_SPANS + DSM_SPANS,
    },
    "serve_s4": {
        "serial": True, "seeded": True,
        "spans": SERIAL_SPANS + DSM_SPANS + ["serve_get", "serve_done"],
    },
    "memwalk_s4_ht2": {
        "serial": False, "seeded": False,
        "spans": ["master_window", "slave_window", "run_tasks", "exec",
                  "translate", "stats_add"] + DSM_SPANS,
    },
}

END_TO_END = [
    ("run_s", "s"),
    ("guest_mips", "MIPS"),
    ("host_req_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
]

# Per-layer metrics: (name, unit). Computed per traced repetition by
# layer_metrics() and reported as medians.
PER_LAYER = [
    ("dbt.quanta", "count"), ("dbt.self_s", "s"), ("dbt.ns_per_insn", "ns"),
    ("dbt.translate_s", "s"), ("dbt.blocks_translated", "count"),
    ("dbt.sb_exec", "count"), ("dbt.sb_side_exit", "count"),
    ("dbt.side_exit_ratio", "ratio"), ("dbt.tcache_miss", "count"),
    ("dbt.tlb_miss", "count"),
    ("sim.events", "count"), ("sim.self_s", "s"), ("sim.ns_per_event", "ns"),
    ("sim.windows", "count"), ("sim.tasks_per_window", "count"),
    ("sim.master_window_s", "s"), ("sim.barrier_s", "s"), ("sim.cpu_s", "s"),
    ("dsm.client_msgs", "count"), ("dsm.client_s", "s"),
    ("dsm.dir_msgs", "count"), ("dsm.dir_s", "s"),
    ("dsm.page_requests", "count"), ("dir.read_reqs", "count"),
    ("dir.write_reqs", "count"), ("dir.sharer_invalidations", "count"),
    ("dir.retries", "count"), ("dsm.coalesced_faults", "count"),
    ("net.sends", "count"), ("net.send_s", "s"), ("net.messages", "count"),
    ("net.bytes", "B"),
    ("core.msgs", "count"), ("core.route_s", "s"), ("core.slices", "count"),
    ("core.page_faults", "count"), ("core.syscalls", "count"),
    ("sys.master_msgs", "count"), ("sys.master_s", "s"),
    ("sys.delegated", "count"), ("sys.futex_waits", "count"),
    ("sys.futex_wakes", "count"),
    ("serve.gen_calls", "count"), ("serve.gen_s", "s"),
    ("serve.retired", "count"), ("serve.parks", "count"),
    ("stats.adds", "count"), ("stats.add_s", "s"),
    ("virt.execute_s", "virt_s"), ("virt.pagefault_s", "virt_s"),
    ("virt.syscall_s", "virt_s"), ("virt.idle_s", "virt_s"),
    ("trace.coverage", "ratio"), ("trace.overhead", "ratio"),
]

# Stats counters reported unchanged as per-layer metrics.
COUNTERS = [
    "dbt.blocks_translated", "dbt.sb_exec", "dbt.sb_side_exit",
    "dbt.tcache_miss", "dbt.tlb_miss", "dir.read_reqs", "dir.write_reqs",
    "dir.sharer_invalidations", "dir.retries", "dsm.coalesced_faults",
    "net.messages", "net.bytes", "core.slices", "core.page_faults",
    "core.syscalls", "sys.delegated", "sys.futex_waits", "sys.futex_wakes",
    "serve.retired", "serve.parks",
]

EVENT_SPANS = ["run_one", "master_window", "slave_window"]
KERNEL_SPANS = EVENT_SPANS + ["run_tasks"]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class BenchError(Exception):
    """Set-up failure: no result is printed and the exit code is non-zero."""


# ---- build ------------------------------------------------------------------

def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "cluster.hpp")):
        raise BenchError(f"simulator sources not found under {ROOT}/src")
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", "2",
                  "--target", "perfbench", "perfbench_traced"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout)
            raise BenchError("build failed: " + " ".join(cmd))
    return {name: os.path.join(out, name)
            for name in ("perfbench", "perfbench_traced")}


# ---- running ----------------------------------------------------------------

def run_binary(binary, workload, seed, seconds, deadline, min_reps=3):
    """Runs one perfbench process; returns (reps, done-line or None)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--min-reps", str(min_reps)]
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
        text = proc.stdout
    except subprocess.TimeoutExpired as exc:
        out = exc.stdout or b""
        text = out.decode() if isinstance(out, bytes) else out
        log(f"{os.path.basename(binary)} {workload}: timed out")
    reps, done = [], None
    for line in text.splitlines():
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            break  # cut short mid-line: the missing "done" marks the crash
        if "rep" in record:
            reps.append(record)
        elif record.get("done"):
            done = record
    for rep in reps:
        if not rep["ok"]:
            log(f"{os.path.basename(binary)} {workload} rep {rep['rep']}: "
                f"{rep['error']}")
    return reps, done


def load_fingerprints():
    if not os.path.isfile(FINGERPRINTS):
        return {}
    with open(FINGERPRINTS) as f:
        return json.load(f)


def recorded_fingerprint(workload, seed):
    table = load_fingerprints().get(workload, {})
    key = str(seed) if WORKLOADS[workload]["seeded"] else "any"
    return table.get(key)


def rep_problems(workload, rep, reference, traced):
    """Reasons this repetition is wrong (empty when it is correct)."""
    if not rep["ok"]:
        return ["run failed: " + rep["error"]]
    problems = []
    fp, counters = rep["fingerprint"], rep["counters"]
    if fp["exit_code"] != 0:
        problems.append(f"exit code {fp['exit_code']}")
    if reference is not None and fp != reference:
        problems.append("virtual fingerprint differs: "
                        f"{json.dumps(fp)} != {json.dumps(reference)}")
    offered = rep["offered_requests"]
    if offered:
        if fp["stdout"].strip() != str(offered):
            problems.append(f"stdout {fp['stdout']!r} != {offered} requests")
        if counters.get("serve.retired", 0) != offered:
            problems.append(f"serve.retired {counters.get('serve.retired')}"
                            f" != {offered} requests")
        if counters.get("serve.checksum_errors", 0) != 0:
            problems.append("serve.checksum_errors "
                            f"{counters['serve.checksum_errors']}")
    if traced:
        spans = rep["spans"]
        silent = [s for s in WORKLOADS[workload]["spans"]
                  if spans[s]["calls"] == 0]
        if silent:
            problems.append("wrapped entry points saw no calls: "
                            + ", ".join(silent))
        if WORKLOADS[workload]["serial"] and coverage(rep) < MIN_COVERAGE:
            problems.append(f"trace coverage {coverage(rep):.3f} < "
                            f"{MIN_COVERAGE}")
    return problems


def coverage(rep):
    root = rep["spans"]["cluster_run"]
    return 1.0 - root["caller_self_ns"] / root["caller_incl_ns"]


def median(values):
    return statistics.median(values) if values else 0.0


def speed_scale(rep):
    """Factor that rescales this repetition's host times to the reference
    host speed."""
    return REFERENCE_PROBE_S / statistics.mean(rep["cal_s"])


def ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(rep):
    """Per-layer values of one traced repetition (sim.cpu_s and
    trace.overhead need the untraced repetitions too; see measure())."""
    spans, counters = rep["spans"], rep["counters"]
    scale = speed_scale(rep) / 1e9  # ns -> reference seconds

    def self_s(*names):
        return sum(spans[n]["self_ns"] for n in names) * scale

    def calls(*names):
        return sum(spans[n]["calls"] for n in names)

    insns = rep["fingerprint"]["guest_insns"]
    events = sum(spans[n]["units"] for n in EVENT_SPANS)
    kernel_self = self_s(*KERNEL_SPANS)
    # Calling-thread time inside event dispatch; the rest of Cluster::run is
    # the kernel's loop and, in the parallel kernel, the window barrier.
    dispatch = sum(spans[n]["caller_incl_ns"] for n in EVENT_SPANS)
    run_ns = spans["cluster_run"]["caller_incl_ns"]
    virt = rep["virt_ps"]
    m = {
        "dbt.quanta": calls("exec"),
        "dbt.self_s": self_s("exec"),
        "dbt.ns_per_insn": ratio(self_s("exec") * 1e9, insns),
        "dbt.translate_s": self_s("translate"),
        "dbt.side_exit_ratio": ratio(counters.get("dbt.sb_side_exit", 0),
                                     counters.get("dbt.sb_exec", 0)),
        "sim.events": events,
        "sim.self_s": kernel_self,
        "sim.ns_per_event": ratio(kernel_self * 1e9, events),
        "sim.windows": calls("master_window"),
        "sim.tasks_per_window": ratio(spans["run_tasks"]["units"],
                                      calls("run_tasks")),
        "sim.master_window_s": (spans["master_window"]["incl_ns"]
                                + spans["run_one"]["incl_ns"]) * scale,
        "sim.barrier_s": (run_ns - dispatch) * scale,
        "dsm.client_msgs": calls("client_msg"),
        "dsm.client_s": self_s("client_msg", "request_page"),
        "dsm.dir_msgs": calls("dir_msg"),
        "dsm.dir_s": self_s("dir_msg"),
        "dsm.page_requests": calls("request_page"),
        "net.sends": calls("net_send"),
        "net.send_s": self_s("net_send"),
        "core.msgs": calls("node_msg"),
        "core.route_s": self_s("node_msg"),
        "sys.master_msgs": calls("master_sys"),
        "sys.master_s": self_s("master_sys"),
        "serve.gen_calls": calls("serve_get", "serve_done"),
        "serve.gen_s": self_s("serve_get", "serve_done"),
        "stats.adds": calls("stats_add"),
        "stats.add_s": self_s("stats_add"),
        "virt.execute_s": (virt["execute"] + virt["translate"]) * 1e-12,
        "virt.pagefault_s": virt["pagefault"] * 1e-12,
        "virt.syscall_s": virt["syscall"] * 1e-12,
        "virt.idle_s": virt["idle"] * 1e-12,
        "trace.coverage": coverage(rep),
    }
    for name in COUNTERS:
        m[name] = counters.get(name, 0)
    return m


def source_digest():
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def measure(binaries, workload, seed, seconds, trace, deadline):
    """Runs the workload; returns the result object and the details line."""
    reference = recorded_fingerprint(workload, seed)
    recorded = reference is not None
    # The budget is split over four processes whose repetitions are pooled:
    # host-thread placement is fixed for a process's lifetime, and pooling
    # averages it out. --trace 1 alternates untraced and traced processes
    # so that host drift affects both sides of trace.overhead alike.
    plan = [False, True, False, True] if trace else [False] * 4
    runs = []  # (traced, reps, done)
    for traced in plan:
        binary = binaries["perfbench_traced" if traced else "perfbench"]
        runs.append((traced, *run_binary(binary, workload, seed,
                                         seconds / len(plan), deadline)))

    attempted = failed = 0
    problems = []
    timed = {False: [], True: []}  # completed, measured repetitions
    requests = {"issued": 0, "failed": 0}
    for traced, reps, done in runs:
        # A process that died mid-repetition leaves one unreported attempt.
        crashed = done is None or done["reps"] != len(reps)
        attempted += len(reps) + (1 if crashed else 0)
        failed += 1 if crashed else 0
        if crashed:
            problems.append(f"{'traced' if traced else 'untraced'} process "
                            "ended early")
        for rep in reps:
            if reference is None and rep["ok"]:
                reference = rep["fingerprint"]
            why = rep_problems(workload, rep, reference, traced)
            offered = rep.get("offered_requests", 0)
            requests["issued"] += offered
            if why:
                failed += 1
                requests["failed"] += offered
                problems.extend(f"rep {rep['rep']}: {w}" for w in why)
            if rep["ok"] and not rep["warmup"]:
                timed[traced].append(rep)
    done_lines = [d for _, _, d in runs if d is not None]
    correct = failed == 0 and all(timed[t] for t in set(plan))
    for p in problems[:10]:
        log(f"{workload}: {p}")

    def scaled(reps, key):
        return median([r[key] * speed_scale(r) for r in reps])

    untraced, traced_reps = timed[False], timed[True]
    run_s = scaled(untraced, "run_s")
    samples = {"untraced": len(untraced), "traced": len(traced_reps)}
    metrics = {}
    if untraced and not trace:
        insns = untraced[0]["fingerprint"]["guest_insns"]
        offered = untraced[0]["offered_requests"]
        values = {
            "run_s": run_s,
            "guest_mips": insns / run_s / 1e6,
            # A batch run is one request; serve_s4 retires `offered`.
            "host_req_per_s": (offered or 1) / run_s,
            "setup_s": scaled(untraced, "setup_s"),
            "peak_rss_mib": max((d["peak_rss_kib"] for d in done_lines
                                 if not d["traced"]), default=0) / 1024.0,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    elif untraced and traced_reps:
        per_rep = [layer_metrics(r) for r in traced_reps]
        values = {name: median([m[name] for m in per_rep])
                  for name in per_rep[0]}
        values["sim.cpu_s"] = scaled(untraced, "cpu_s")
        values["trace.overhead"] = ratio(scaled(traced_reps, "run_s"), run_s)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in PER_LAYER}

    first = done_lines[0] if done_lines else {}
    details = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "samples": samples,
        # Unscaled medians; probe_s against REFERENCE_PROBE_S shows how
        # fast the host ran.
        "wall": {"run_s": median([r["run_s"] for r in untraced]),
                 "setup_s": median([r["setup_s"] for r in untraced]),
                 "probe_s": median([statistics.mean(r["cal_s"])
                                    for r in untraced])},
        "fingerprint": reference,
        "fingerprint_recorded": recorded,
        "requests": requests if WORKLOADS[workload]["seeded"] else None,
        "provenance": {
            "git_sha": git_sha(),
            "source_digest": source_digest(),
            "build_type": first.get("build_type"),
            "compiler": first.get("compiler"),
            "cpu_model": first.get("cpu_model"),
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
        },
    }
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, details


def record_fingerprints(binaries, seeds):
    """Rewrites fingerprints.json from one run of every workload (and of
    every listed seed for the seeded workload)."""
    deadline = time.monotonic() + 600
    table = {}
    for workload, spec in WORKLOADS.items():
        keys = seeds if spec["seeded"] else [None]
        table[workload] = {}
        for seed in keys:
            reps, _ = run_binary(binaries["perfbench"], workload, seed or 1,
                                 0.0, deadline, min_reps=0)
            if not reps or not reps[0]["ok"]:
                raise BenchError(f"{workload}: run failed")
            table[workload][str(seed) if spec["seeded"] else "any"] = \
                reps[0]["fingerprint"]
            log(f"recorded {workload} seed {seed}")
    with open(FINGERPRINTS, "w") as f:
        json.dump(table, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-fingerprints", action="store_true",
                    help="rewrite fingerprints.json and exit")
    args = ap.parse_args()

    try:
        binaries = build()
        if args.record_fingerprints:
            record_fingerprints(binaries, RECORDED_SEEDS)
            return 0
        # "all" measures every workload twice, untraced then traced.
        plan = ([(name, trace) for name in WORKLOADS for trace in (0, 1)]
                if args.workload == "all" else [(args.workload, args.trace)])
        deadline = time.monotonic() + DEADLINE_S * len(plan)
        results = []
        for name, trace in plan:
            result, details = measure(binaries, name, args.seed, args.seconds,
                                      trace, deadline)
            print(json.dumps(details), flush=True)
            for metric, v in result["metrics"].items():
                print(f"  {name:16} {metric:26} {v['value']:14.6g} {v['unit']}")
            results.append((name, result))
    except BenchError as exc:
        log(f"perfbench: {exc}")
        return 1

    if len(results) == 1:
        final = results[0][1]
    else:
        final = {
            "correct": all(r["correct"] for _, r in results),
            "attempted": sum(r["attempted"] for _, r in results),
            "failed": sum(r["failed"] for _, r in results),
            "metrics": {f"{name}/{metric}": v for name, r in results
                        for metric, v in r["metrics"].items()},
        }
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
