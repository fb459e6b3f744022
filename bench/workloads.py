"""The three benchmark workloads: inputs from a seed, jobs, output checks.

Each workload is a closed loop with one client: `make_jobs` builds the job
list from the workload seed in set-up, the timed phase runs the jobs back to
back, and `check` verifies every recorded output afterwards, returning
(job index or None, message) for each problem.  A job is a zero-argument
callable returning the outputs the check needs.

The amount of work is fixed by (seed, seconds), where `seconds` is one
worker's share of the run: each workload scales its job count linearly with
it, at a rate chosen so that the jobs take about `seconds` reference CPU
seconds with the code this benchmark was defined on.  Job i of a seed is the
same whatever the scale, so reference values recorded per job index stay
valid.
"""

from __future__ import annotations

import functools
import heapq
import importlib
import json
import math
import random
from fractions import Fraction
from pathlib import Path

from flowsparse import DemandVector, TerminalNetwork
from flowsparse import flow, merging, sampling, sketch, structured, verify
from flowsparse.generators import gen_quasi_bipartite, gen_series_parallel, gen_treewidth

# the package re-exports the function splice() under the submodule's name
splice = importlib.import_module("flowsparse.splice")

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REL_TOL = 1e-6

# Job counts at the reference run length, scaled by seconds / REF_SECONDS.
REF_SECONDS = 8.0


def _scaled(count: float, seconds: float) -> int:
    return max(1, round(count * seconds / REF_SECONDS))


def _rng(workload: str, seed: int, index) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def _uniform_demand(rng: random.Random, net: TerminalNetwork,
                    density: float = 0.85) -> DemandVector:
    pairs = net.terminal_pairs()
    entries = {p: rng.uniform(0.05, 1.0) for p in pairs if rng.random() < density}
    return DemandVector.of(entries or {pairs[0]: 1.0})


def _close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def load_reference(workload: str, seed: int) -> list | None:
    path = REFERENCE_DIR / f"{workload}.json"
    if not path.exists():
        return None
    return json.loads(path.read_text()).get(str(seed))


# ---------------------------------------------------------------------------
# Certificate check of one concurrent-flow result, independent of the oracle
# ---------------------------------------------------------------------------

def _shortest(adj: dict, lengths: dict, source: str) -> dict:
    dist = {source: 0.0}
    heap = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v in adj[u]:
            nd = d + lengths.get((u, v) if u <= v else (v, u), 0.0)
            if nd < dist.get(v, math.inf):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def certificate_gap(net: TerminalNetwork, demand: DemandVector, res) -> float:
    """Relative gap between the value and the dual bound its certificate gives.

    The primal flow must route value * demand within the capacities; the
    dual lengths then bound the optimum by sum(c l) / sum(d * dist_l).
    Raises ValueError when the primal flow is infeasible.
    """
    lam = res.value
    caps = {(u, v): float(c) for u, v, c in net.edges}
    loads: dict = {}
    for pair, arcs in res.flow.arc_flows:
        s, t = pair
        bal: dict = {}
        for (u, v), f in arcs:
            if f < -1e-12:
                raise ValueError(f"negative flow on {(u, v)}")
            e = (u, v) if u <= v else (v, u)
            loads[e] = loads.get(e, 0.0) + f
            bal[u] = bal.get(u, 0.0) + f
            bal[v] = bal.get(v, 0.0) - f
        scale = max(1.0, lam)
        for v, b in bal.items():
            if v not in (s, t) and abs(b) > REL_TOL * scale:
                raise ValueError(f"conservation fails at {v} for {pair}")
        if not _close(bal.get(s, 0.0), lam * demand[pair]):
            raise ValueError(f"routed amount for {pair} is not value * demand")
    for e, load in loads.items():
        cap = caps.get(e, 0.0)
        if load > cap + REL_TOL * max(1.0, cap):
            raise ValueError(f"capacity exceeded on {e}")
    lengths = {e: max(0.0, l) for e, l in res.dual.lengths}
    dual_obj = sum(caps[e] * l for e, l in lengths.items())
    adj = {v: list(nbrs) for v, nbrs in net.adjacency.items()}
    by_source: dict = {}
    routed = 0.0
    for (s, t), d in demand.items():
        if s not in by_source:
            by_source[s] = _shortest(adj, lengths, s)
        routed += d * by_source[s].get(t, math.inf)
    if routed <= 0:
        raise ValueError("dual lengths separate no demand")
    upper = dual_obj / routed
    return (upper - lam) / max(1.0, lam)


def _result_problems(net, demand, lam) -> list[str]:
    res = flow.concurrent_flow(net, demand)
    out = []
    if not _close(res.value, lam, 1e-9):
        out.append(f"re-solve gave {res.value}, job saw {lam}")
    if not res.duality_gap <= REL_TOL * max(1.0, lam):
        out.append(f"reported duality gap {res.duality_gap}")
    try:
        gap = certificate_gap(net, demand, res)
    except ValueError as exc:
        return out + [str(exc)]
    if not -REL_TOL <= gap <= REL_TOL:
        out.append(f"certificate gap {gap}")
    return out


# ---------------------------------------------------------------------------
# qb-certify: the big-LP path
# ---------------------------------------------------------------------------

QB_K, QB_N, QB_DEMANDS, QB_EPS = 5, 60, 8, 0.25
QB_NETS = 4            # nets at REF_SECONDS; four candidates per net
QB_JOBS = (("sample", 8), ("sample", 32), ("ratio", QB_EPS), ("profile", QB_EPS))


def qb_instance(seed: int, index: int):
    rng = _rng("qb-certify", seed, index)
    net_seed = rng.randrange(2 ** 31)
    net = gen_quasi_bipartite(QB_K, QB_N, net_seed)
    demands = [_uniform_demand(rng, net) for _ in range(QB_DEMANDS)]
    return net, net_seed, demands


def qb_make(seed: int, seconds: float):
    """Per net and construction: one job builds the candidate, then one job
    per demand certifies it on that demand, as a user checking a witness set
    one demand at a time would."""
    jobs = []
    for i in range(_scaled(QB_NETS, seconds)):
        net, net_seed, demands = qb_instance(seed, i)
        for kind, param in QB_JOBS:
            built: dict = {}

            def construct(kind=kind, param=param, built=built, net=net,
                          net_seed=net_seed, demands=demands):
                if kind == "sample":
                    built["cand"] = sampling.sample_sparsifier(net, param, net_seed)
                elif kind == "ratio":
                    built["cand"] = merging.ratio_type_sparsifier(net, param)
                else:
                    built["cand"] = merging.profile_bucket_sparsifier(net, param, demands)
                return built["cand"]

            def certify_one(d, built=built, net=net):
                claim = built["cand"].claimed_quality
                return verify.certify(net, built["cand"].net, [d],
                                      claim if math.isfinite(claim) else math.inf)

            jobs.append(((i, kind, param, net, None), construct))
            jobs += [((i, kind, param, net, d), functools.partial(certify_one, d))
                     for d in demands]
    return jobs


def _qb_candidates(jobs, outputs):
    """{(net index, kind, param): [net, (job index, candidate), certifications]}

    where certifications is a list of (job index, demand, record or None).
    """
    out: dict = {}
    for j, ((meta, _), res) in enumerate(zip(jobs, outputs)):
        i, kind, param, net, d = meta
        entry = out.setdefault((i, kind, param), [net, None, []])
        if d is None:
            entry[1] = (j, res)
        else:
            entry[2].append((j, d, None if res is None else res.records[0]))
    return out


def qb_reference_entry(candidates) -> dict:
    """What the reference file stores for one net: its four candidates, in order."""
    return {"vertices": [len(cand.net.vertices) for _, cand, _ in candidates],
            "lam_base": [rec.lam_base for _, _, rec in candidates[0][2]],
            "lam_candidate": [[rec.lam_candidate for _, _, rec in certs]
                              for _, _, certs in candidates]}


def qb_check(seed: int, jobs, outputs) -> list:
    reference = load_reference("qb-certify", seed)
    errors = []
    by_net: dict = {}
    for (i, kind, param), (net, (cj, cand), certs) in _qb_candidates(jobs, outputs).items():
        where = f"net {i} {kind}({param})"
        complete = cand is not None and all(rec is not None for _, _, rec in certs)
        by_net.setdefault(i, []).append(
            (cj, cand, [(j, d, rec) for j, d, rec in certs]) if complete else None)
        if not complete:
            continue
        for j, d, rec in certs:
            for side, g, lam in (("base", net, rec.lam_base),
                                 ("candidate", cand.net, rec.lam_candidate)):
                errors += [(j, f"{where} {side}: {msg}")
                           for msg in _result_problems(g, d, lam)]
            if kind in ("ratio", "profile") and rec.lam_base / rec.lam_candidate > 1 + REL_TOL:
                errors.append((j, f"{where}: merge candidate loses flow "
                                  f"({rec.lam_base / rec.lam_candidate})"))
    if reference is None:
        print(f"qb-certify: no reference values recorded for seed {seed}; "
              "certificates checked only")
        return errors
    for i, candidates in sorted(by_net.items()):
        if i >= len(reference) or None in candidates:
            continue
        got, want = qb_reference_entry(candidates), reference[i]
        for (cj, _, _), v_got, v_want in zip(candidates, got["vertices"], want["vertices"]):
            if v_got != v_want:
                errors.append((cj, f"net {i}: {v_got} vertices, reference {v_want}"))
        lams_got = [got["lam_base"]] + got["lam_candidate"]
        lams_want = [want["lam_base"]] + want["lam_candidate"]
        for (cj, _, _), a, b in zip(candidates[:1] + candidates, lams_got, lams_want):
            if len(a) != len(b) or not all(_close(x, y) for x, y in zip(a, b)):
                errors.append((cj, f"net {i}: lambda values differ from the reference"))
    return errors


# ---------------------------------------------------------------------------
# sketch-small: many tiny LPs, build then query
# ---------------------------------------------------------------------------

SK_NETS, SK_QUERIES, SK_EPS, SK_BAND_QUERIES = 12, 500, 0.25, 8
SK_SIZES = (8, 12, 16, 20)


def sk_instance(seed: int, index: int):
    """Sizes cycle with the index, so every seed runs the same size mix."""
    rng = _rng("sketch-small", seed, index)
    k = 3 if index % 3 != 2 else 4        # two grid cores per hull core
    net = gen_quasi_bipartite(k, SK_SIZES[index % len(SK_SIZES)], rng.randrange(2 ** 31))
    queries = [_uniform_demand(rng, net) for _ in range(SK_QUERIES)]
    return net, queries


def sk_make(seed: int, seconds: float):
    """Per net: one job builds the sketch, then one job per query reads it."""
    jobs = []
    for i in range(_scaled(SK_NETS, seconds)):
        net, queries = sk_instance(seed, i)
        built: dict = {}

        def build(net=net, built=built):
            built["sketch"] = sketch.build_sketch(net, SK_EPS)
            return built["sketch"]

        def query(q, built=built):
            return built["sketch"].query(q)

        jobs.append(((i, net, None), build))
        jobs += [((i, net, q), functools.partial(query, q)) for q in queries]
    return jobs


def sk_reference_entry(sk) -> str:
    return type(sk.core).__name__


def sk_check(seed: int, jobs, outputs) -> list:
    reference = load_reference("sketch-small", seed)
    lo, hi = 1 / (1 + SK_EPS), 1 + SK_EPS
    errors = []
    nets: dict = {}
    for j, ((meta, _), out) in enumerate(zip(jobs, outputs)):
        i, net, q = meta
        entry = nets.setdefault(i, [net, None, []])
        if q is None:
            entry[1] = (j, out)
        else:
            entry[2].append((j, q, out))
    for i, (net, (bj, sk), answers) in sorted(nets.items()):
        if sk is None:
            continue
        if reference is not None and i < len(reference) \
                and sk_reference_entry(sk) != reference[i]:
            errors.append((bj, f"net {i}: core {sk_reference_entry(sk)}, "
                               f"reference {reference[i]}"))
        rng = _rng("sketch-small-band", seed, i)
        for j, q, answer in rng.sample(answers, SK_BAND_QUERIES):
            if answer is None:
                continue
            ratio = answer / flow.concurrent_flow(net, q).value
            if not lo * (1 - REL_TOL) <= ratio <= hi * (1 + REL_TOL):
                errors.append((j, f"net {i}: query answer over lambda is {ratio}, "
                                  "outside the band"))
    if reference is None:
        print(f"sketch-small: no reference core kinds recorded for seed {seed}; "
              "band checked only")
    return errors


# ---------------------------------------------------------------------------
# exact-cuts: exact arithmetic only (max flow, min cuts, splicing)
# ---------------------------------------------------------------------------

EX_SP, EX_MIMICK, EX_TREEWIDTH, EX_SPLICE = 90, 120, 12, 36


def _random_connected_net(rng: random.Random, n: int, k: int) -> TerminalNetwork:
    """A random spanning tree plus up to n chords; the first k are terminals."""
    vs = [f"v{i}" for i in range(n)]
    edges = [(vs[i], vs[rng.randrange(i)], rng.randint(1, 10)) for i in range(1, n)]
    for _ in range(rng.randint(0, n)):
        i, j = rng.sample(range(n), 2)
        edges.append((vs[i], vs[j], rng.randint(1, 10)))
    return TerminalNetwork.make(vs, vs[:k], edges)


def _random_decomposition(rng: random.Random):
    """Flow paths over 3-5 terminals, at least one through an internal terminal."""
    while True:
        terms = [f"t{i}" for i in range(rng.randint(3, 5))]
        verts = terms + [f"m{i}" for i in range(rng.randint(1, 4))]
        paths = []
        internal = False
        for _ in range(rng.randint(2, 7)):
            walk = rng.sample(verts, rng.randint(3, min(6, len(verts))))
            walk[0] = rng.choice(terms)
            walk[-1] = rng.choice([t for t in terms if t != walk[0]])
            if len(set(walk)) != len(walk):
                continue
            internal = internal or any(v in terms for v in walk[1:-1])
            paths.append(splice.FlowPath(tuple(walk),
                                         Fraction(rng.randint(1, 12), rng.randint(1, 8))))
        if paths and internal:
            dec = splice.FlowDecomposition(tuple(paths))
            net_b = TerminalNetwork.make(
                verts, terms, [(u, v, c) for (u, v), c in dec.edge_loads().items()],
                allow_disconnected=True)
            return terms, dec, net_b


def _ex_cut_job(build, base_of):
    def job():
        res = build()
        return verify.certify_cuts(base_of(res), res.net)
    return job


def _ex_splice_job(terms, dec, net_b):
    def job():
        res = splice.splice(dec, terms)
        routed = splice.unsplice_route(net_b, dec.induced_demand(),
                                       res.decomposition, res)
        return res, routed
    return job


def _ex_job(kind: str, seed: int, index: int):
    """(payload the check needs, job) for job `index` of one kind.

    Sizes cycle with the index, so every seed runs the same size mix.
    """
    rng = _rng("exact-cuts", seed, f"{kind}{index}")
    if kind == "sp":
        k = 2 + index % 5
        net, tree = gen_series_parallel(10 + 10 * (index % 4), k, rng.randrange(2 ** 31))
        if len(net.vertices) > 60:
            net, tree = gen_series_parallel(30, k, rng.randrange(2 ** 31))
        return None, _ex_cut_job(
            lambda: structured.sp_sparsifier(net, tree),
            lambda res: TerminalNetwork.make(net.vertices, res.net.terminals, net.edges))
    if kind == "mimick":
        net = _random_connected_net(rng, 6 + index % 10, 4)
        return None, _ex_cut_job(lambda: structured.mimick_small(net), lambda res: net)
    if kind == "treewidth":
        # width 1 splits at a separator (threshold 8 < k = 9) into mimicked
        # leaves; width 2 stays one leaf, so its cost is the cut certificate
        w = 1 + index % 2
        net, tdec = gen_treewidth(9, 30, w, rng.randrange(2 ** 31))
        return None, _ex_cut_job(
            lambda: structured.treewidth_sparsifier(net, tdec, "mimick",
                                                    leaf_threshold=4 * (w + 1)),
            lambda res: net)
    terms, dec, net_b = _random_decomposition(rng)
    return (terms, dec), _ex_splice_job(terms, dec, net_b)


def ex_make(seed: int, seconds: float):
    counts = {"sp": EX_SP, "mimick": EX_MIMICK, "treewidth": EX_TREEWIDTH,
              "splice": EX_SPLICE}
    jobs = []
    for kind, count in counts.items():
        for i in range(_scaled(count, seconds)):
            payload, job = _ex_job(kind, seed, i)
            jobs.append(((kind, i, payload), job))
    _rng("exact-cuts-order", seed, 0).shuffle(jobs)
    return jobs


def ex_check(seed: int, jobs, outputs) -> list:
    errors = []
    for j, (((kind, i, payload), _), out) in enumerate(zip(jobs, outputs)):
        if out is None:
            continue
        if kind != "splice":
            if not out.all_exact:
                errors.append((j, f"{kind} {i}: cuts not exact"))
            continue
        terms, dec = payload
        res, routed = out
        if res.decomposition.edge_loads() != dec.edge_loads():
            errors.append((j, f"splice {i}: edge loads changed"))
        if res.decomposition.internal_terminal_occurrences(terms) != 0:
            errors.append((j, f"splice {i}: internal terminals remain"))
        got = routed.induced_demand()
        for pair, want in dec.induced_demand().items():
            if abs(float(got.get(pair, 0) - want)) > 1e-9 * max(1.0, float(want)):
                errors.append((j, f"splice {i}: demand on {pair} is {got.get(pair, 0)}"))
    return errors


WORKLOADS = {
    "qb-certify": (qb_make, qb_check),
    "sketch-small": (sk_make, sk_check),
    "exact-cuts": (ex_make, ex_check),
}
