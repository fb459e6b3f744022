#!/usr/bin/env python3
"""Print one sha256 per benchmark workload over the outputs of its jobs.

Builds the jobs of bench/workloads.py (qb-certify, sketch-small, exact-cuts)
for each seed at the reference scale, runs them in order, as one benchmark
worker does, and hashes what they return.  Each seed's jobs build their own
network objects, and the flow oracle keeps its memo on the network, so every
seed starts from a cold memo as a fresh worker does.  Two trees whose hashes
agree compute bit-identical outputs.  Floats are written with `float.hex`,
reports and sketches as sorted-key JSON of `to_json_dict`, networks as their
canonical fields with capacities as p/q.

A fourth line, `sketch-probes`, hashes `query_with_stats` (answer and probe
count) over the same sketch-small queries, since a query job returns the
answer alone and a change to the probe counts would not show in its hash.

A fifth line, `certificates`, hashes the flow oracle's certificates, which
no job returns whole: per result its value, rounds, pivots, `.flow.arc_flows`,
`.dual.lengths` and `.dual.dists`.  After each seed's jobs, in job order, it
solves every qb-certify certify job's demand on the base and on the
candidate (unless the candidate splits a demanded pair, where `certify`
solves nothing), and each sketch-small network's single-pair unit demands.
A sixth line, `certificate-values`, hashes the `value.hex()` of exactly
those solves, so a change that routes certificates otherwise but keeps
every value shows as a moved fifth line beside an equal sixth.

The outputs depend on the string hash seed and on the BLAS thread count,
so the script runs with PYTHONHASHSEED=0 and one BLAS thread, as the
benchmark does: started in any other environment, it runs itself again
with those set before it imports numpy.

    python3 scripts/output_hashes.py --seeds 1 2 3
"""

import argparse
import dataclasses
import hashlib
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

PINNED_ENV = {"PYTHONHASHSEED": "0", "OPENBLAS_NUM_THREADS": "1",
              "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
if __name__ == "__main__" and any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
    os.execve(sys.executable, [sys.executable, *sys.orig_argv[1:]],
              {**os.environ, **PINNED_ENV})

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402
from flowsparse.flow import concurrent_flow  # noqa: E402
from flowsparse.network import DemandVector, TerminalNetwork  # noqa: E402


def encode(obj):
    """A JSON-ready value that pins every bit of a job output."""
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, TerminalNetwork):
        return [list(obj.vertices), list(obj.terminals),
                [[u, v, encode(c)] for u, v, c in obj.edges]]
    if hasattr(obj, "to_json_dict"):
        return json.dumps(obj.to_json_dict(), sort_keys=True)
    if dataclasses.is_dataclass(obj):
        return {f.name: encode(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, (tuple, list)):
        return [encode(x) for x in obj]
    if obj is None or isinstance(obj, (str, int)):
        return obj
    raise TypeError(f"no encoding for a job output of type {type(obj).__name__}")


def certified(name: str, jobs: list, outputs: list):
    """The oracle results the `certificates` line hashes, for one seed's
    jobs of workload `name` and their outputs."""
    if name == "qb-certify":
        for ((_, _, _, net, d), _), out in zip(jobs, outputs):
            if d is None:
                cand = out.net
                continue
            yield concurrent_flow(net, d)
            if all(cand.component_of[s] == cand.component_of[t] for s, t in d.pairs()):
                yield concurrent_flow(cand, d)
    elif name == "sketch-small":
        for ((_, net, q), _), _ in zip(jobs, outputs):
            if q is None:
                for p in net.terminal_pairs():
                    yield concurrent_flow(net, DemandVector.of({p: 1.0}))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[1])
    args = ap.parse_args()
    certificates, values = hashlib.sha256(), hashlib.sha256()
    for name, (make, _) in workloads.WORKLOADS.items():
        digest = hashlib.sha256()
        for seed in args.seeds:
            jobs = make(seed, workloads.REF_SECONDS)
            outputs = []
            for _, job in jobs:
                outputs.append(job())
                digest.update(json.dumps(encode(outputs[-1]), sort_keys=True).encode() + b"\n")
            for res in certified(name, jobs, outputs):
                certificates.update(json.dumps(encode(
                    [res.value, res.rounds, res.pivots, res.flow.arc_flows,
                     res.dual.lengths, res.dual.dists])).encode() + b"\n")
                values.update(res.value.hex().encode() + b"\n")
        print(f"{name} {digest.hexdigest()}")
    digest = hashlib.sha256()
    for seed in args.seeds:
        for (_, _, query), job in workloads.sk_make(seed, workloads.REF_SECONDS):
            if query is None:
                sketch = job()
            else:
                digest.update(json.dumps(encode(sketch.query_with_stats(query))).encode() + b"\n")
    print(f"sketch-probes {digest.hexdigest()}")
    print(f"certificates {certificates.hexdigest()}")
    print(f"certificate-values {values.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
