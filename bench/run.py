"""Benchmark entry point: one workload, one seed, every metric by name and unit.

    python3 bench/run.py --workload qb-certify --seed 1 --seconds 16 --trace 0

Each measurement runs in a fresh interpreter (bench/worker.py), so the flow
oracle's memo starts empty.  Several workers run the same jobs and each job
is charged the least CPU time any of them spent on it, scaled by a speed
probe run between jobs; both filter out interference from other tenants of
a shared machine.  With --trace 0 the
last stdout line carries the end-to-end metrics; with --trace 1 it carries
the per-layer metrics of a traced run plus the tracing overhead against
untraced runs of the same jobs.  The first line records the machine and the
code measured.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("qb-certify", "sketch-small", "exact-cuts")
REPEATS = 2             # fresh workers per run, each on seconds / REPEATS of work
TRACED_REPEATS = 2      # untraced and traced workers each in a --trace 1 run
EXTRA_SETUPS = 3        # set-up-only workers; setup_s is a median of 5 set-ups
DEADLINE_S = 170.0


def machine_info(seed: int) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "flowsparse").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy_version, "git_commit": commit,
            "src_sha256": digest.hexdigest(), "seed": seed}


def run_worker(args, deadline: float, *extra: str) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds / REPEATS), *extra]
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                          timeout=max(1.0, deadline - time.monotonic()))
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {' '.join(extra)} exited with {proc.returncode}")
    return json.loads(lines[-1])


def run_repeats(args, deadline: float, trace: int, count: int) -> list[dict]:
    """`count` fresh workers on the same jobs; only the first checks outputs."""
    return [run_worker(args, deadline, "--trace", str(trace),
                       *(["--skip-checks"] if i else []))
            for i in range(count)]


def best_job_times(runs: list[dict]) -> list[float]:
    """Per job, the least reference CPU time any worker spent on it."""
    return [min(times) for times in zip(*(r["job_ref_s"] for r in runs))]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "flowsparse" / "__init__.py").is_file():
        print(f"no flowsparse sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    print(json.dumps({"machine": machine_info(args.seed),
                      "workload": args.workload, "seconds": args.seconds,
                      "trace": args.trace}))
    try:
        if args.trace:
            plain = run_repeats(args, deadline, 0, TRACED_REPEATS)
            traced = run_repeats(args, deadline, 1, TRACED_REPEATS)
        else:
            setups = [run_worker(args, deadline, "--setup-only")["setup_s"]
                      for _ in range(EXTRA_SETUPS)]
            plain, traced = run_repeats(args, deadline, 0, REPEATS), []
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    runs = plain + traced
    print(json.dumps({"workers": [{k: r[k] for k in ("trace", "cpu_s", "wall_s", "probe_s")}
                                  for r in runs]}))
    problems = [msg for r in runs for msg in r["problems"]]
    for msg in problems[:20]:
        print(f"problem: {msg}")
    if args.trace:
        quietest = min(traced, key=lambda r: r["cpu_s"])
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in quietest["layers"].items()}
        overhead = sum(best_job_times(traced)) - sum(best_job_times(plain))
        metrics["trace.cpu_s"] = {"value": sum(best_job_times([quietest])), "unit": "s"}
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        print(json.dumps({"traced_sites": quietest["sites"]}))
    else:
        best = best_job_times(plain)
        metrics = {
            "setup_s": {"value": statistics.median(setups + [r["setup_s"] for r in plain]),
                        "unit": "s"},
            "cpu_s": {"value": sum(best), "unit": "s"},
            "job_ms.p50": {"value": 1000.0 * statistics.median(best), "unit": "ms"},
            "job_ms.p90": {"value": 1000.0 * statistics.quantiles(
                best, n=10, method="inclusive")[8], "unit": "ms"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in plain),
                            "unit": "MB"},
        }
    failed = max(r["failed"] for r in runs)
    print(json.dumps({"correct": not problems and failed == 0,
                      "attempted": plain[0]["attempted"], "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
