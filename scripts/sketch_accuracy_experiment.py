#!/usr/bin/env python3
"""Measure sketch accuracy and storage against the flow oracle across eps.

For random small networks this reports, per eps: the worst multiplicative
query deviation over a random demand sample, the same over each terminal's
star demand (1 to every other terminal) and each single-pair demand, the
stored entry count, the size of the sketch file in bytes, and which
membership core the build chose.  Random demands rarely make a singleton
terminal cut tight; stars do.

Usage: python scripts/sketch_accuracy_experiment.py --k 3 --queries 100
"""

import argparse
import json
import random

from flowsparse import DemandVector, concurrent_flow
from flowsparse.sketch import GridCore, build_sketch
from flowsparse.generators import gen_quasi_bipartite


def deviation(sk, net, d) -> float:
    """Multiplicative distance of the sketch's answer from the oracle's."""
    q = sk.query(d)
    lam = concurrent_flow(net, d).value
    return max(q / lam, lam / q)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--k", type=int, default=3)
    ap.add_argument("--n", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--queries", type=int, default=100)
    args = ap.parse_args()

    net = gen_quasi_bipartite(args.k, args.n, args.seed)
    rng = random.Random(args.seed)
    print(f"instance: k={args.k} n={args.n} seed={args.seed}")
    stars = [DemandVector.of({(t, u): 1.0 for u in net.terminals if u != t})
             for t in net.terminals]
    fixed = stars + [DemandVector.of({p: 1.0}) for p in net.terminal_pairs()]
    print(f"{'eps':>6} {'core':>8} {'entries':>9} {'file bytes':>10} "
          f"{'worst dev':>10} {'star/pair':>10} {'band':>7}")
    for eps in (0.45, 0.4, 0.3, 0.25, 0.2, 0.15):
        sk = build_sketch(net, eps)
        worst = 1.0
        for _ in range(args.queries):
            entries = {p: rng.uniform(0.05, 2.0) for p in net.terminal_pairs()
                       if rng.random() < 0.9}
            if entries:
                worst = max(worst, deviation(sk, net, DemandVector.of(entries)))
        worst_fixed = max(deviation(sk, net, d) for d in fixed)
        core = "grid" if isinstance(sk.core, GridCore) else "hull"
        size = len(json.dumps(sk.to_json_dict()))
        print(f"{eps:>6} {core:>8} {sk.stored_entries:>9} {size:>10} "
              f"{worst:>10.4f} {worst_fixed:>10.4f} {1 + eps:>7.2f}")


if __name__ == "__main__":
    main()
