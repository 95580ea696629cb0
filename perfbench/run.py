#!/usr/bin/env python3
"""Build and run one workload of the end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the perfbench binary from this checkout's sources (CMake, into
$CARGO_TARGET_DIR or .bench_build, under perfbench/), runs the named
workload in a child process with a controlled environment, and prints
the result as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of an untraced run. --trace 1
runs the workload untraced and then traced (SB_PROF=1, SB_TRACE set) and
reports the per-layer metrics of the traced run plus the tracing
overhead (traced vs untraced lat_p50_ms). The line before the result
holds provenance and sample-count details. Exit code 0 only when every
output was verified and the run was valid. See perfbench/README.md.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep", "serve-trickle", "serve-ladder", "offline-b64")
SERVING = ("serve-trickle", "serve-ladder")
CHILD_TIMEOUT_S = 170
# Every inherited SB_* switch (profiling, telemetry, sweep parallelism,
# SIMD tier, overload policy, faults, fleet sharding, ...) and the cache
# location are dropped before the workload process starts.
CLEARED_NAMES = ("SHRINKBENCH_CACHE",)


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configures and builds incrementally (a no-op when nothing changed);
    serialized by a lock so concurrent runs in one checkout share a single
    build tree."""
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    with open(out / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        cmd = ["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
        cmd = ["cmake", "--build", str(out), "-j", jobs, "--target", "perfbench"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    return out / "perfbench"


def pool_threads(workload):
    """Pool width per workload. On serving workloads the generator and the
    collector thread each hold a core, and the server worker is the pool's
    calling thread, so all of them fit in the cores the process may use.
    Closed-loop workloads leave one core free: with every core in the
    pool, one preempted thread stalls each parallel job. Interleaved
    offline-b64 runs on a shared 4-core host spread 0.43 (IQR / median)
    at 4 threads against 0.14 at 2; a second set gave 0.05 at 3."""
    cores = len(os.sched_getaffinity(0))
    return max(1, cores - (2 if workload in SERVING else 1))


def child_env(workload, trace_path=None):
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("SB_") and k not in CLEARED_NAMES}
    env["SB_THREADS"] = str(pool_threads(workload))
    env["SB_LOG_LEVEL"] = "warn"
    # One glibc malloc arena: with one per thread, identical offline-b64
    # runs peaked at 67.5-72 MB of RSS, against 59.9-60.0 MB with one.
    env["MALLOC_ARENA_MAX"] = "1"
    if trace_path:
        env["SB_PROF"] = "1"
        env["SB_TRACE"] = str(trace_path)
    return env


def run_child(binary, args, env, work_dir):
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--work-dir", str(work_dir)]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {CHILD_TIMEOUT_S} s")
        return None
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log(f"{args.workload} exited {proc.returncode} without a result")
        return None


def source_digest():
    """Content hash of the sources the binary is built from; the checkout
    the benchmark runs in need not be a git repository."""
    h = hashlib.sha256()
    for sub in ("src", "perfbench"):
        for p in sorted((ROOT / sub).rglob("*")):
            if p.is_file() and p.suffix in (".cpp", ".hpp", ".txt", ".py"):
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_revision():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], text=True,
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, timeout=10)
        return out.stdout.strip() or "none"
    except (OSError, subprocess.TimeoutExpired):
        return "none"


def print_table(title, metrics):
    log(title)
    for name, m in metrics.items():
        log(f"  {name:<44} {m['value']:>16.6g} {m['unit']}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"build failed: {e}")
        return 1

    work = ROOT / ".perfbench_out" / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        plain = run_child(binary, args, child_env(args.workload), work / "plain")
        if plain is None:
            return 1
        runs = [plain]
        if args.trace:
            traced = run_child(binary, args, child_env(args.workload, work / "trace.json"),
                               work / "traced")
            if traced is None:
                return 1
            runs.append(traced)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = all(r["correct"] for r in runs)
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    if args.trace:
        metrics = dict(runs[1]["per_layer"])
        base = runs[0]["metrics"]["lat_p50_ms"]["value"]
        over = runs[1]["metrics"]["lat_p50_ms"]["value"] / base - 1.0 if base > 0 else 0.0
        metrics["harness.trace_overhead_frac"] = {"value": over, "unit": "frac"}
        print_table(f"{args.workload}: per-layer metrics (traced run)", metrics)
        log(f"{args.workload}: spans over the measured window (traced run)")
        log(f"  {'span':<44} {'count':>10} {'self_s':>12} {'total_s':>12}")
        for name, t in runs[1]["info"].get("spans", {}).items():
            log(f"  {name:<44} {t['count']:>10} {t['self_s']:>12.6f} {t['total_s']:>12.6f}")
        print_table(f"{args.workload}: end-to-end metrics, untraced run", runs[0]["metrics"])
        print_table(f"{args.workload}: end-to-end metrics, traced run", runs[1]["metrics"])
    else:
        metrics = plain["metrics"]
        print_table(f"{args.workload}: end-to-end metrics", metrics)

    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git": git_revision(),
        "source_sha256": source_digest(),
        "runs": [r["info"] for r in runs],
    }
    print(json.dumps({"details": details}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
