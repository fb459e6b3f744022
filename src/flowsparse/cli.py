"""Command-line interface.

Subcommands: gen, sparsify, verify, sketch (build/query), plan.
Exit codes: 0 success, 1 verification failure, 2 input, structure or LP
solver error, 3 enumeration budget exceeded.  All randomness flows from --seed; every
command with an output file writes a run manifest next to it.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .generators import (
    gen_bounded_component,
    gen_quasi_bipartite,
    gen_series_parallel,
    gen_treewidth,
)
from .jsonio import load_demands, load_net, read_json, save_net, write_manifest
from .lp import LPError
from .merging import profile_bucket_sparsifier, ratio_type_sparsifier
from .sampling import plan_oversampling, sample_sparsifier
from .sketch import BudgetExceeded, DemandSketch, build_sketch
from .structured import (
    SpTree,
    StructureError,
    TreeDecomposition,
    sp_sparsifier,
    treewidth_sparsifier,
)
from .verify import certify, certify_cuts, demand_grid, require_same_terminals

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3

# every module's error class, json.JSONDecodeError included, is a ValueError
_INPUT_ERRORS = (ValueError, LPError, OSError, OverflowError)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # exits 3 and 2 are the error contract; no driver's input is too large or malformed
    try:
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="flowsparse",
                                description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("gen", help="generate benchmark instances")
    g.add_argument("--kind", required=True,
                   choices=["quasi-bipartite", "sp", "bounded-component",
                            "treewidth", "tree"])
    g.add_argument("--k", type=int, required=True)
    g.add_argument("--n", type=int,
                   help="vertices (default 50; 30 for treewidth and tree), "
                        "plus one hub per extra terminal component of a draw")
    g.add_argument("--leaves", type=int, default=16)
    g.add_argument("--w", type=int, default=2)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.add_argument("--sptree-out")
    g.add_argument("--tdec-out")
    g.set_defaults(func=cmd_gen)

    s = sub.add_parser("sparsify", help="construct a sparsifier")
    s.add_argument("--method", required=True,
                   choices=["clump", "ratio", "sample", "sp", "treewidth"])
    s.add_argument("--graph", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--eps", type=float, default=0.25)
    s.add_argument("--M", type=float, default=50.0)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--w", type=int, default=1,
                   help="--method sample: most vertices per terminal-free "
                        "component (1 samples single vertices)")
    s.add_argument("--sptree")
    s.add_argument("--tdec")
    s.add_argument("--leaf", default="identity", choices=["identity", "mimick"])
    s.add_argument("--demands", help="demand set for --method clump "
                                     "(spec string or JSON file)")
    s.set_defaults(func=cmd_sparsify)

    v = sub.add_parser("verify", help="certify a sparsifier against the oracle")
    v.add_argument("--g", required=True)
    v.add_argument("--gp", required=True)
    v.add_argument("--demands", required=True,
                   help="basis | random:N:SEED | disc:EPS:ETA | file.json")
    v.add_argument("--claim", type=float, required=True)
    v.add_argument("--out", required=True)
    v.add_argument("--cuts", action="store_true",
                   help="also compare all terminal bipartition min cuts")
    v.set_defaults(func=cmd_verify)

    sk = sub.add_parser("sketch", help="build or query demand sketches")
    sks = sk.add_subparsers(dest="sketch_cmd", required=True)
    skb = sks.add_parser("build")
    skb.add_argument("--graph", required=True)
    skb.add_argument("--eps", type=float, required=True)
    skb.add_argument("--out", required=True)
    skb.set_defaults(func=cmd_sketch_build)
    skq = sks.add_parser("query")
    skq.add_argument("--sk", required=True)
    skq.add_argument("--demand", required=True)
    skq.set_defaults(func=cmd_sketch_query)

    pl = sub.add_parser("plan", help="oversampling factor for a target failure")
    pl.add_argument("--eps", type=float, required=True)
    pl.add_argument("--k", type=int, required=True)
    pl.add_argument("--fail", type=float, required=True)
    pl.set_defaults(func=cmd_plan)
    return p


def cmd_gen(args) -> int:
    started = time.time()
    n = args.n
    if n is None:
        n = 30 if args.kind in ("treewidth", "tree") else 50
    if args.kind == "quasi-bipartite":
        net = gen_quasi_bipartite(args.k, n, args.seed)
        extra = {}
    elif args.kind == "sp":
        net, tree = gen_series_parallel(args.leaves, args.k, args.seed)
        extra = {}
        if args.sptree_out:
            with open(args.sptree_out, "w") as fh:
                json.dump(tree.to_json_dict(), fh, indent=1, sort_keys=True)
            extra["sptree"] = args.sptree_out
    elif args.kind == "bounded-component":
        net = gen_bounded_component(args.k, n, args.w, args.seed)
        extra = {}
    else:
        w = 1 if args.kind == "tree" else args.w
        net, tdec = gen_treewidth(args.k, n, w, args.seed)
        extra = {}
        if args.tdec_out:
            with open(args.tdec_out, "w") as fh:
                json.dump(tdec.to_json_dict(), fh, indent=1, sort_keys=True)
            extra["tdec"] = args.tdec_out
    save_net(net, args.out, meta={"generator": args.kind, "seed": args.seed,
                                  **extra})
    write_manifest(args.out, "gen", _params(args), args.seed, {}, started)
    print(f"wrote {args.out}: {len(net.vertices)} vertices, "
          f"{len(net.edges)} edges, k={net.k}")
    return EXIT_OK


def cmd_sparsify(args) -> int:
    started = time.time()
    net = load_net(args.graph)
    if args.method == "clump":
        demand_set = _demand_set(net, args.demands) if args.demands else None
        res = profile_bucket_sparsifier(net, args.eps, demand_set)
    elif args.method == "ratio":
        res = ratio_type_sparsifier(net, args.eps)
    elif args.method == "sample":
        res = sample_sparsifier(net, args.M, args.seed, args.w)
    elif args.method == "sp":
        tree = None
        if args.sptree:
            doc = read_json(args.sptree)
            try:
                tree = SpTree.from_json_dict(doc)
            except RecursionError:
                raise StructureError("SP-tree JSON nests deeper than the "
                                     "recursion limit allows") from None
        res = sp_sparsifier(net, tree)
    else:
        if not args.tdec:
            raise StructureError("--method treewidth needs --tdec")
        tdec = TreeDecomposition.from_json_dict(read_json(args.tdec))
        res = treewidth_sparsifier(net, tdec, args.leaf)
    save_net(res.net, args.out, meta=res.meta())
    write_manifest(args.out, "sparsify", _params(args), args.seed,
                   {"graph": args.graph}, started)
    print(f"wrote {args.out}: {len(res.net.vertices)} vertices "
          f"(from {len(net.vertices)}), method={args.method}")
    return EXIT_OK


def cmd_verify(args) -> int:
    started = time.time()
    g = load_net(args.g)
    gp = load_net(args.gp, allow_disconnected=True)
    require_same_terminals(g, gp)   # before the demand set's LP solves
    report = certify(g, gp, _demand_set(g, args.demands), args.claim,
                     demand_spec=args.demands)
    doc = report.to_json_dict()
    if args.cuts:
        doc["cuts"] = certify_cuts(g, gp).to_json_dict()
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
    write_manifest(args.out, "verify", _params(args), None,
                   {"g": args.g, "gp": args.gp}, started)
    print(f"lower={report.lower:.6f} upper={report.upper:.6f} "
          f"claim={args.claim} verdict={'pass' if report.verdict else 'fail'}")
    return EXIT_OK if report.verdict else EXIT_VERIFY_FAIL


def cmd_sketch_build(args) -> int:
    started = time.time()
    net = load_net(args.graph)
    sk = build_sketch(net, args.eps)
    sk.save(args.out)
    write_manifest(args.out, "sketch build", _params(args), None,
                   {"graph": args.graph}, started)
    core = type(sk.core).__name__
    print(f"wrote {args.out}: {core} with {sk.stored_entries} entries "
          f"(log storage bound {sk.storage_bound_log():.6g})")
    return EXIT_OK


def cmd_sketch_query(args) -> int:
    sk = DemandSketch.load(args.sk)
    demands = load_demands(args.demand)
    for d in demands:
        value, probes = sk.query_with_stats(d)
        print(f"{value:.9g}  (probes={probes})")
    return EXIT_OK


def cmd_plan(args) -> int:
    rep = plan_oversampling(args.eps, args.k, args.fail)
    print(rep.summary())
    print(f"M {rep.M:.6g}")
    return EXIT_OK


def _demand_set(net, spec: str) -> list:
    """A --demands value: a demand file (.json) or a `demand_grid` spec."""
    return load_demands(spec) if spec.endswith(".json") else demand_grid(net, spec)


def _params(args) -> dict:
    skip = {"func", "cmd", "sketch_cmd"}
    return {k: v for k, v in vars(args).items()
            if k not in skip and v is not None}


if __name__ == "__main__":
    sys.exit(main())
