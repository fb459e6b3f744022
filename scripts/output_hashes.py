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

Run it with a fixed hash seed and one BLAS thread, as the benchmark does:

    PYTHONHASHSEED=0 OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1 \\
        python3 scripts/output_hashes.py --seeds 1 2 3
"""

import argparse
import dataclasses
import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402
from flowsparse.network import TerminalNetwork  # noqa: E402


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


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[1])
    args = ap.parse_args()
    for name, (make, _) in workloads.WORKLOADS.items():
        digest = hashlib.sha256()
        for seed in args.seeds:
            for _, job in make(seed, workloads.REF_SECONDS):
                digest.update(json.dumps(encode(job()), sort_keys=True).encode() + b"\n")
        print(f"{name} {digest.hexdigest()}")
    digest = hashlib.sha256()
    for seed in args.seeds:
        for (_, _, query), job in workloads.sk_make(seed, workloads.REF_SECONDS):
            if query is None:
                sketch = job()
            else:
                digest.update(json.dumps(encode(sketch.query_with_stats(query))).encode() + b"\n")
    print(f"sketch-probes {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
