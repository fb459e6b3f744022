"""Record the reference outputs the checks compare against.

    python3 bench/record_reference.py --seeds 0-15

Runs the qb-certify and sketch-small jobs of each seed at the reference run
length and writes, per seed and net, the values their checks compare:
sampled vertex counts and every certified lambda for qb-certify, the core
kind for sketch-small.  Run it only on a commit whose outputs are trusted.
"""

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def record(name: str, seed: int) -> list:
    make_jobs = workloads.WORKLOADS[name][0]
    jobs = make_jobs(seed, workloads.REF_SECONDS)
    outputs = [job() for _, job in jobs]
    if name == "sketch-small":
        return [workloads.sk_reference_entry(out)
                for (meta, _), out in zip(jobs, outputs) if meta[2] is None]
    per_net: dict = {}
    for (i, _, _), (_, (_, cand), certs) in workloads._qb_candidates(jobs, outputs).items():
        per_net.setdefault(i, []).append((None, cand, certs))
    return [workloads.qb_reference_entry(per_net[i]) for i in sorted(per_net)]


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-15")
    ap.add_argument("--workload", choices=("qb-certify", "sketch-small"), action="append")
    args = ap.parse_args()
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    for name in args.workload or ("qb-certify", "sketch-small"):
        path = workloads.REFERENCE_DIR / f"{name}.json"
        table = json.loads(path.read_text()) if path.exists() else {}
        for seed in seeds:
            table[str(seed)] = record(name, seed)
            print(f"{name} seed {seed}: {len(table[str(seed)])} nets", flush=True)
        rows = [f"{json.dumps(key)}: {json.dumps(table[key])}"
                for key in sorted(table, key=int)]
        path.parent.mkdir(exist_ok=True)
        path.write_text("{\n" + ",\n".join(rows) + "\n}\n")


if __name__ == "__main__":
    main()
