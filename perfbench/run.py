#!/usr/bin/env python3
"""AutoCE benchmark: builds the perfbench binary and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload recommend_cold --seed 1 \
        --seconds 10 --trace 0

Builds the library sources and perfbench/ into .bench_build/ (CMake,
RelWithDebInfo), runs the workload, checks its correctness gate, prints
a human-readable summary and, as the last line of stdout, one JSON
object {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end_to_end metrics of BENCHMARK.json, with --trace 1 its
per_layer metrics. The full record (host, build, per-operation counts,
digests, workload-named metrics) is written to
.bench_build/results/. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("recommend_cold", "subplan_serve", "build_adapt")
# Each run (set-up, gate and measured phase) must end well inside the
# 180 s a run is allowed.
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds the perfbench target."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cfg = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cfg += ["-G", "Ninja"]
        steps.append(cfg)
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            rc = subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT)
            if rc != 0:
                # A failed configure must not leave a cache that later
                # runs would trust.
                if cmd[1] == "-S":
                    cache = os.path.join(BUILD, "CMakeCache.txt")
                    if os.path.exists(cache):
                        os.remove(cache)
                with open(log_path) as f:
                    tail = f.read()[-3000:]
                fail("build failed (%s):\n%s" % (" ".join(cmd), tail))


def read_first(path, default=""):
    try:
        with open(path) as f:
            return f.read().strip()
    except OSError:
        return default


def host_record(nproc):
    cpu = "unknown"
    for line in read_first("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    if os.path.isdir(base):
        for entry in sorted(os.listdir(base)):
            d = os.path.join(base, entry)
            level = read_first(os.path.join(d, "level"))
            kind = read_first(os.path.join(d, "type"))
            size = read_first(os.path.join(d, "size"))
            if level in ("2", "3") and kind in ("Unified", "Data"):
                caches["L" + level] = size
    return {"cpu_model": cpu, "nproc": nproc,
            "l2": caches.get("L2", "unknown"),
            "l3": caches.get("L3", "unknown")}


def binary_digest():
    h = hashlib.sha1()
    with open(BINARY, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()[:16]


def check_repeat_digests(workload, seed, digests):
    """Compares the gate digests with an earlier run of the same seed and
    the same binary; returns the mismatches."""
    path = os.path.join(BUILD, "digests", "%s-%s-seed%d.json"
                        % (binary_digest(), workload, seed))
    if os.path.exists(path):
        with open(path) as f:
            before = json.load(f)
        return ["%s: %s != %s (earlier run)" % (k, v, before[k])
                for k, v in digests.items() if before.get(k) != v]
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump(digests, f)
    return []


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("AutoCE sources not found under %s" % ROOT)
    with open(spec_path) as f:
        spec = json.load(f)
    build()

    nproc = len(os.sched_getaffinity(0))
    threads = max(1, min(nproc, 4))
    alt_threads = max(1, threads // 2)
    workdir = os.path.join(BUILD, "work", "%s-%d" % (args.workload, os.getpid()))
    trace_out = os.path.join(BUILD, "traces", "%s-seed%d.json"
                             % (args.workload, args.seed))
    os.makedirs(workdir, exist_ok=True)
    os.makedirs(os.path.dirname(trace_out), exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--threads", str(threads), "--alt-threads", str(alt_threads),
           "--workdir", workdir]
    if args.trace:
        cmd += ["--trace-out", trace_out]
    # With address-space randomization off, every run of a binary gets
    # the same memory layout, so layout-dependent cache effects do not
    # add run-to-run noise.
    setarch = shutil.which("setarch")
    if setarch and subprocess.call([setarch, os.uname().machine, "-R", "true"]) == 0:
        cmd = [setarch, os.uname().machine, "-R"] + cmd
    env = dict(os.environ, AUTOCE_THREADS=str(threads))
    for var in ("AUTOCE_FAULTS", "AUTOCE_KILLPOINTS", "AUTOCE_SIMD",
                "AUTOCE_TRACE", "AUTOCE_METRICS"):
        env.pop(var, None)
    started = time.time()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        fail("perfbench exited with %d" % proc.returncode)
    report = json.loads(proc.stdout.strip().splitlines()[-1])

    gate_errors = list(report["gate_errors"])
    gate_errors += check_repeat_digests(args.workload, args.seed,
                                        report["digests"])
    ops = report["ops"]
    attempted = sum(c["attempted"] for c in ops.values())
    failed = sum(c["failed"] for c in ops.values())
    failed += len(gate_errors) - len(report["gate_errors"])

    source = report["end_to_end"]
    if args.trace:
        # The workload's quality figures ride along with the per-layer
        # metrics (they have no time bound; see README.md).
        source = dict(report["per_layer"])
        source.update({"quality." + k: v for k, v in report["named"].items()})
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = source.get(m["name"])
        if got is None and not args.trace:
            fail("workload did not report %s" % m["name"])
        if got is None:
            # A layer this workload does not exercise did no work.
            got = {"value": 0.0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            fail("%s: unit %s, expected %s" % (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}

    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "host": host_record(nproc), "build": report["build"],
        "wall_s": time.time() - started,
        "setup_seconds": report["setup_seconds"],
        "ops": {k: dict(v, succeeded=v["attempted"] - v["failed"])
                for k, v in ops.items()},
        "failed_ratio": failed / attempted if attempted else 1.0,
        "digests": report["digests"], "gate_errors": gate_errors,
        "named": report["named"], "end_to_end": report["end_to_end"],
        "per_layer": report["per_layer"],
    }
    os.makedirs(os.path.join(BUILD, "results"), exist_ok=True)
    with open(os.path.join(BUILD, "results", "%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)), "w") as f:
        json.dump(record, f, indent=1)

    host = record["host"]
    print("# %s seed=%d trace=%d  host: %s, nproc %d, L2 %s, L3 %s"
          % (args.workload, args.seed, args.trace, host["cpu_model"],
             host["nproc"], host["l2"], host["l3"]))
    b = report["build"]
    print("# build: %s, git %s, simd %s/%s, pool %d threads (gate also at %d)"
          % (b["build_type"], b["git_describe"], b["simd_compiled"],
             b["simd_selected"], b["pool_threads"], b["alt_threads"]))
    for op, c in sorted(record["ops"].items()):
        print("# op %-10s attempted %6d  succeeded %6d  failed %d"
              % (op, c["attempted"], c["succeeded"], c["failed"]))
    print("# failed_ratio %.6f (%d of %d)" % (record["failed_ratio"], failed,
                                             attempted))
    shown = report["per_layer"] if args.trace else report["end_to_end"]
    for name, m in list(report["named"].items()) + list(shown.items()):
        print("# %-36s %14.6g %-9s n=%d" % (name, m["value"], m["unit"],
                                            m["samples"]))
    for name, d in sorted(report["digests"].items()):
        print("# digest %-26s %s" % (name, d))
    for err in gate_errors:
        print("# GATE FAILURE: " + err)
    print(json.dumps({"correct": not gate_errors and failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
