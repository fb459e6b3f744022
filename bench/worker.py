"""One measured process: set-up, timed phase, output checks.

Run by run.py in a fresh interpreter, so the flow oracle's process-wide memo
starts empty.  Prints one JSON object as its last stdout line.  Job times
are CPU seconds of this process (run.py pins BLAS to one thread), also given
scaled to a reference machine speed measured by a probe run between jobs.

    python3 bench/worker.py --workload W --seed N --seconds S --trace 0|1 [--skip-checks]
    python3 bench/worker.py --workload W --seed N --seconds S --setup-only
"""

import time  # set-up time counts this process's CPU time from its start

import argparse
import json
import resource
import statistics
import sys
import traceback
from fractions import Fraction
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import flowsparse  # noqa: E402

if not Path(flowsparse.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"flowsparse was imported from {flowsparse.__file__}, not {ROOT / 'src'}")

from workloads import WORKLOADS  # noqa: E402

PROBE_EVERY_S = 0.1     # CPU seconds of jobs between speed probes

# Which probe tracks each workload's slowdowns, and the probe time that
# defines one reference CPU second.  On a shared 2-core Xeon VM, over 100 s
# of interleaved samples, the log time of a min-cut run followed the
# Fraction loop with slope 0.98, and that of a concurrent-flow solve was fit
# best by about one part Fraction loop to one and a half parts matrix loop.
PROBE_MIX = {"qb-certify": "mixed", "sketch-small": "mixed", "exact-cuts": "fraction"}
PROBE_REF_S = {"mixed": 0.0075, "fraction": 0.004}


def _fraction_loop() -> None:
    acc = Fraction(0)
    for i in range(1, 300):
        acc += Fraction(1, i)


def _matrix_loop() -> None:
    m, v = np.eye(150), np.ones(150)
    for _ in range(60):
        m -= np.outer(v, m[0]) * 1e-4
        v = m @ v / 150.0


def speed_probe(kind: str) -> float:
    """CPU seconds of a fixed piece of interpreter or small-matrix work.

    Independent of flowsparse, so its time tracks only how fast the machine
    runs this process right now: on a shared machine that speed can change
    twofold within a minute, and a job's time tracks the probes around it.
    """
    t = time.process_time()
    if kind == "fraction":
        for _ in range(6):
            _fraction_loop()
    else:
        for _ in range(3):
            _fraction_loop()
        _matrix_loop()
    return time.process_time() - t


def reference_times(job_s: list[float], probes: list[tuple[int, float]],
                    ref_s: float) -> list[float]:
    """Job CPU times scaled to the machine speed at which the probe takes ref_s.

    Each job is scaled by the mean of the last probe before it and the first
    probe after it.
    """
    out, k = [], 0
    for idx, t in enumerate(job_s):
        while probes[k + 1][0] <= idx:
            k += 1
        local = (probes[k][1] + probes[k + 1][1]) / 2
        out.append(t * ref_s / local)
    return out


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--skip-checks", action="store_true")
    args = ap.parse_args()

    make_jobs, check = WORKLOADS[args.workload]
    jobs = make_jobs(args.seed, args.seconds)
    setup_s = time.process_time() * PROBE_REF_S["mixed"] / statistics.mean(
        speed_probe("mixed") for _ in range(3))
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
        tracer.active = True

    outputs, job_s, raised = [], [], set()
    kind = PROBE_MIX[args.workload]
    probes, since_probe = [(0, speed_probe(kind))], 0.0   # (next job index, seconds)
    start = time.perf_counter()
    for idx, (_, job) in enumerate(jobs):
        if tracer is not None:
            tracer.job = idx
        if since_probe >= PROBE_EVERY_S:
            probes.append((idx, speed_probe(kind)))
            since_probe = 0.0
        t = time.process_time()
        try:
            out = job()
        except Exception:
            traceback.print_exc()
            out = None
            raised.add(idx)
        job_s.append(time.process_time() - t)
        since_probe += job_s[-1]
        outputs.append(out)
    probes.append((len(jobs), speed_probe(kind)))
    wall_s = time.perf_counter() - start
    cpu_s = sum(job_s)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        tracer.active = False
    problems = [] if args.skip_checks else check(args.seed, jobs, outputs)
    messages = [f"job {idx} raised" for idx in sorted(raised)]
    messages += [msg for _, msg in problems]
    failed_jobs = raised | {idx for idx, _ in problems if idx is not None}
    result = {
        "trace": args.trace,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "probe_s": statistics.median(p for _, p in probes),
        "job_ref_s": reference_times(job_s, probes, PROBE_REF_S[kind]),
        "job_s": job_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(jobs),
        "failed": len(failed_jobs),
    }
    if tracer is not None:
        coverage = tracer.check_coverage(args.workload)
        messages += coverage
        result["layers"] = tracer.metrics(cpu_s)
        result["sites"] = sorted(set(tracer.sites))
        tracer.write(ROOT / ".bench_traces" / f"{args.workload}-{args.seed}.tsv.gz")
    result["problems"] = messages
    print(json.dumps(result))


if __name__ == "__main__":
    main()
