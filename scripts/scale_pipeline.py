#!/usr/bin/env python3
"""CPU and peak RSS of each step of the k = 5 sampling pipeline at large n.

For n in 10^4 and 10^5 (each in a process of its own, so no step sees
another n's memory), on `gen_quasi_bipartite(5, n, n + 7000)`:

    gen          the generator
    cut_view     `integer_view` and the reduction
    record       the flow oracle's per-network record (`flow._record`)
    solve        one concurrent flow, unit demand on all ten pairs
    sample       `sample_sparsifier(net, 256, 0)`
    certify      `certify` of the sample on that one demand

Each step reports its CPU seconds (`time.process_time`) and the process's
peak RSS after it (`ru_maxrss`).  n = 10^6 runs only when ten times the
n = 10^5 peak is under 4 GB; otherwise the file says it was not run, and
why.  It writes scripts/scale_pipeline.json:

    python3 scripts/scale_pipeline.py
"""

import json
import multiprocessing
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "scripts" / "scale_pipeline.json"
LIMIT_MB = 4096
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")


def run(n: int, queue) -> None:
    """Time each step at one n and put {step: {cpu_s, peak_rss_mb}} on
    `queue`, with the sample's size and both lambdas."""
    sys.path.insert(0, str(ROOT / "src"))
    from flowsparse import DemandVector, certify, flow
    from flowsparse.generators import gen_quasi_bipartite
    from flowsparse.sampling import sample_sparsifier

    steps = {}
    held = {}

    def step(name, call):
        start = time.process_time()
        held[name] = call()
        steps[name] = {"cpu_s": round(time.process_time() - start, 3),
                       "peak_rss_mb": round(resource.getrusage(
                           resource.RUSAGE_SELF).ru_maxrss / 1024, 1)}
        return held[name]

    net = step("gen", lambda: gen_quasi_bipartite(5, n, n + 7000))
    step("cut_view", lambda: net.cut_view)
    step("record", lambda: flow._record(net))
    demand = DemandVector.of({p: 1.0 for p in net.terminal_pairs()})
    solve = step("solve", lambda: flow.concurrent_flow(net, demand))
    sample = step("sample", lambda: sample_sparsifier(net, 256, 0))
    report = step("certify", lambda: certify(net, sample.net, [demand],
                                             sample.claimed_quality))
    queue.put({"n": n, "steps": steps, "lambda": solve.value,
               "sample_vertices": len(sample.net.vertices),
               "lambda_sample": report.records[0].lam_candidate})


def in_own_process(n: int) -> dict:
    ctx = multiprocessing.get_context("spawn")
    queue = ctx.Queue()
    proc = ctx.Process(target=run, args=(n, queue))
    proc.start()
    result = queue.get()
    proc.join()
    return result


def main() -> None:
    runs = [in_own_process(n) for n in (10**4, 10**5)]
    peak = max(s["peak_rss_mb"] for s in runs[-1]["steps"].values())
    if 10 * peak < LIMIT_MB:
        runs.append(in_own_process(10**6))
    else:
        runs.append({"n": 10**6, "not_run": (
            f"ten times the n = 10^5 peak of {peak} MB is past {LIMIT_MB} MB")})
    OUT.write_text(json.dumps({"k": 5, "seed": "n + 7000", "M": 256,
                               "runs": runs}, indent=2) + "\n")
    print(OUT.read_text())


if __name__ == "__main__":
    main()
