"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`.
Every tolerance is pinned here; each criterion also enforces its own wall
clock budget.  All randomness is seeded.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from flowsparse import (
    DemandVector,
    TerminalNetwork,
    certify,
    certify_cuts,
    concurrent_flow,
)
from flowsparse.generators import (
    gen_quasi_bipartite,
    gen_series_parallel,
    gen_treewidth,
)
from flowsparse.merging import profile_bucket_sparsifier, ratio_type_sparsifier
from flowsparse.sampling import (
    plan_oversampling,
    sample_sparsifier,
    sampling_plan,
    unit_uniform,
)
from flowsparse.sketch import build_sketch
from flowsparse.splice import (
    FlowDecomposition,
    FlowPath,
    compose,
    splice,
    unsplice_route,
)
from flowsparse.structured import mimick_small, sp_sparsifier, treewidth_sparsifier
from flowsparse.verify import disc_demands

from conftest import random_connected_net, random_demand, sparsest_cut, two_hop_split


RESULT_LINES: list[str] = []


def _report(number: int, label: str, ok: bool, elapsed: float, budget: float,
            detail: str = "") -> None:
    status = "PASS" if ok and elapsed < budget else "FAIL"
    extra = f" [{detail}]" if detail else ""
    line = (f"ACCEPTANCE {number} ({label}): {status} "
            f"({elapsed:.1f}s / budget {budget:.0f}s){extra}")
    RESULT_LINES.append(line)
    print("\n" + line)
    assert ok, f"criterion {number} failed: {detail}"
    assert elapsed < budget, f"criterion {number} exceeded its time budget"


def _uniform_demand(rng, net, density=0.85):
    entries = {}
    for s, t in net.terminal_pairs():
        if rng.random() < density:
            entries[(s, t)] = rng.uniform(0.05, 1.0)
    if not entries:
        p = net.terminal_pairs()[0]
        entries[p] = 1.0
    return DemandVector.of(entries)


def test_acceptance_1_oracle_sanity():
    """Primal/dual agreement, flow <= cut, exact homogeneity."""
    start = time.time()
    rng = random.Random(101)
    ok = True
    detail = ""
    for trial in range(30):
        net = random_connected_net(rng, rng.randint(4, 12), rng.randint(2, 4))
        for _ in range(3):
            d = random_demand(rng, net)
            res = concurrent_flow(net, d)
            if res.duality_gap > 1e-6 * max(1.0, res.value):
                ok, detail = False, f"duality gap {res.duality_gap}"
                break
            phi, _ = sparsest_cut(net, d)
            if phi < res.value * (1 - 1e-6):
                ok, detail = False, f"cut {phi} below flow {res.value}"
                break
            alpha = rng.choice([0.5, 2.0, 5.0])
            scaled = concurrent_flow(net, d.scaled(alpha)).value
            if abs(scaled - res.value / alpha) > 1e-9 * max(1.0, res.value):
                ok, detail = False, "homogeneity violated"
                break
        if not ok:
            break
    _report(1, "oracle sanity", ok, time.time() - start, 60, detail)


def test_acceptance_2_sketch_band():
    """Sketch queries within [1/(1+eps), 1+eps] of the oracle, eps=0.25."""
    start = time.time()
    eps = 0.25
    rng = random.Random(202)
    hits = 0
    total = 0
    worst = 1.0
    for i in range(10):
        k = 2 + i % 3  # k in {2,3,4}
        net = random_connected_net(rng, rng.randint(k + 2, 10), k)
        sk = build_sketch(net, eps)
        for _ in range(200):
            d = random_demand(rng, net)
            q = sk.query(d)
            lam = concurrent_flow(net, d).value
            ratio = q / lam
            total += 1
            if 1 / (1 + eps) <= ratio <= 1 + eps:
                hits += 1
            worst = max(worst, ratio, 1 / ratio)
    ok = hits == total
    _report(2, "sketch (1+eps) band", ok, time.time() - start, 300,
            f"{hits}/{total} in band, worst deviation x{worst:.4f}")


def test_acceptance_3_sampling_quality_and_size():
    """Planner-chosen M at target failure 0.1: quality in [1-3eps, 1+4eps]
    in >= 80% of 50 seeded runs; size <= 10 k^2 M in >= 90%."""
    start = time.time()
    eps = 0.5
    k, n = 5, 200
    net = gen_quasi_bipartite(k, n, seed=303)
    M = plan_oversampling(eps, k, 0.1).M
    rng = random.Random(303)
    demands = [_uniform_demand(rng, net) for _ in range(50)]
    lo_band, hi_band = 1 - 3 * eps, 1 + 4 * eps
    good_quality = 0
    good_size = 0
    runs = 50
    for seed in range(runs):
        res = sample_sparsifier(net, M, seed)
        rep = certify(net, res.net, demands, claimed_q=hi_band)
        # certified quality: worst-case per-demand ratio of candidate vs base
        ratios = [r.lam_candidate / r.lam_base for r in rep.records]
        if all(lo_band <= r <= hi_band for r in ratios):
            good_quality += 1
        if len(res.net.vertices) <= 10 * k * k * M:
            good_size += 1
    ok = good_quality >= 0.8 * runs and good_size >= 0.9 * runs
    _report(3, "sampling at planner M", ok, time.time() - start, 900,
            f"quality {good_quality}/{runs}, size {good_size}/{runs}, "
            f"M={M:.0f}")


def test_acceptance_4_estimator_unbiasedness():
    """Mean sampled 2-hop flow within 3% of F_st per pair, 2000 draws,
    5 fixed instances."""
    start = time.time()
    ok = True
    detail = ""
    M = 8.0
    draws = 2000
    for inst in range(5):
        net = gen_quasi_bipartite(4, 28, seed=404 + inst)
        plan = sampling_plan(net, M, 0)
        pmap = {u.unit_id: u.p for u in plan.units}
        for pair, per_v in two_hop_split(net).items():
            fst = sum(per_v.values())
            if fst == 0:
                continue
            total = 0.0
            for i in range(draws):
                acc = 0.0
                for v, share in per_v.items():
                    p = pmap.get(v, 0.0)
                    if p > 0 and unit_uniform(inst * 10 ** 6 + i, v) < p:
                        acc += float(share) / p
                total += acc
            rel = abs(total / draws / float(fst) - 1.0)
            if rel > 0.03:
                ok = False
                detail = f"instance {inst} pair {pair}: rel err {rel:.4f}"
                break
        if not ok:
            break
    _report(4, "estimator unbiasedness", ok, time.time() - start, 300, detail)


def test_acceptance_5_series_parallel_exact():
    """20 random SP nets: cuts exact, flow ratios 1 +- 1e-6, size bound."""
    start = time.time()
    rng = random.Random(505)
    ok = True
    detail = ""
    for trial in range(20):
        k = rng.randint(2, 6)
        leaves = rng.randint(8, 50)
        net, tree = gen_series_parallel(leaves, k, 505 + trial)
        if len(net.vertices) > 60:
            net, tree = gen_series_parallel(30, k, 505 + trial)
        res = sp_sparsifier(net, tree)
        k_all = len(res.net.terminals)
        if len(res.net.vertices) > 11 * (2 * k_all - 1) + 2:
            ok, detail = False, f"trial {trial}: size {len(res.net.vertices)}"
            break
        base = TerminalNetwork.make(net.vertices, res.net.terminals, net.edges)
        if not certify_cuts(base, res.net).all_exact:
            ok, detail = False, f"trial {trial}: cut mismatch"
            break
        for _ in range(100):
            d = _uniform_demand(rng, base)
            lg = concurrent_flow(base, d).value
            lh = concurrent_flow(res.net, d).value
            if abs(lh / lg - 1) > 1e-6:
                ok, detail = False, f"trial {trial}: flow ratio {lh / lg}"
                break
        if not ok:
            break
    _report(5, "series-parallel exactness", ok, time.time() - start, 600,
            detail)


def test_acceptance_6_mimicking_base_case():
    """50 random k=4 nets: fit succeeds, all 7 cuts exact, flow ratio 1."""
    start = time.time()
    rng = random.Random(606)
    ok = True
    detail = ""
    for trial in range(50):
        net = random_connected_net(rng, rng.randint(6, 15), 4)
        res = mimick_small(net)
        rep = certify_cuts(net, res.net)
        if not rep.all_exact:
            ok, detail = False, f"trial {trial}: inexact cuts"
            break
        if len(rep.records) != 7:
            ok, detail = False, f"trial {trial}: {len(rep.records)} bipartitions"
            break
        for _ in range(50):
            d = _uniform_demand(rng, net)
            lg = concurrent_flow(net, d).value
            lh = concurrent_flow(res.net, d).value
            if abs(lh / lg - 1) > 1e-6:
                ok, detail = False, f"trial {trial}: ratio {lh / lg}"
                break
        if not ok:
            break
    _report(6, "mimicking base case", ok, time.time() - start, 600, detail)


def test_acceptance_7_composition_lemma():
    """20 glued pairs with certified component sparsifiers: composed quality
    bounded by the worst component quality."""
    start = time.time()
    rng = random.Random(707)
    ok = True
    detail = ""
    for trial in range(20):
        shared = rng.randint(1, 3)
        k1 = rng.randint(max(2, shared), 4)
        k2 = rng.randint(max(2, shared), 4)
        g1 = random_connected_net(rng, rng.randint(k1 + 1, 8), k1)
        g2raw = random_connected_net(rng, rng.randint(k2 + 1, 8), k2)
        g2 = TerminalNetwork.make([f"b{v}" for v in g2raw.vertices],
                                  [f"b{t}" for t in g2raw.terminals],
                                  [(f"b{u}", f"b{v}", c)
                                   for u, v, c in g2raw.edges])
        phi = {g1.terminals[i]: g2.terminals[i] for i in range(shared)}
        if trial % 2 == 0:
            s1, q1 = mimick_small(g1).net, 1.0
            s2, q2 = mimick_small(g2).net, 1.0
        else:
            alpha = rng.choice([1.5, 2.0])
            s1, q1 = mimick_small(g1).net, 1.0
            s2 = TerminalNetwork.make(g2.vertices, g2.terminals,
                                      [(u, v, c * Fraction(alpha))
                                       for u, v, c in g2.edges])
            q2 = alpha
        whole, _ = compose(g1, g2, phi, 1.0, 1.0)
        built, q = compose(s1, s2, phi, q1, q2)
        for _ in range(100):
            d = _uniform_demand(rng, whole, density=0.6)
            lg = concurrent_flow(whole, d).value
            lh = concurrent_flow(built, d).value
            if lh / lg > q * (1 + 1e-6) or lh / lg < 1 - 1e-6:
                ok, detail = False, f"trial {trial}: ratio {lh / lg} vs q={q}"
                break
        if not ok:
            break
    _report(7, "composition lemma", ok, time.time() - start, 600, detail)


def test_acceptance_8_splicing_round_trip():
    """30 random decompositions: loads preserved exactly, demand reconnected."""
    start = time.time()
    rng = random.Random(808)
    ok = True
    detail = ""
    done = 0
    attempts = 0
    while done < 30 and attempts < 300:
        attempts += 1
        n_terms = rng.randint(3, 5)
        terms = [f"t{i}" for i in range(n_terms)]
        mids = [f"m{i}" for i in range(rng.randint(1, 4))]
        verts = terms + mids
        paths = []
        has_internal = False
        for _ in range(rng.randint(2, 7)):
            size = rng.randint(3, min(6, len(verts)))
            walk = rng.sample(verts, size)
            walk[0] = rng.choice(terms)
            walk[-1] = rng.choice([t for t in terms if t != walk[0]])
            if len(set(walk)) != len(walk):
                continue
            if any(v in terms for v in walk[1:-1]):
                has_internal = True
            amt = Fraction(rng.randint(1, 12), rng.randint(1, 8))
            paths.append(FlowPath(tuple(walk), amt))
        if not paths or not has_internal:
            continue
        dec = FlowDecomposition(tuple(paths))
        res = splice(dec, terms)
        if res.decomposition.edge_loads() != dec.edge_loads():
            ok, detail = False, "edge loads changed"
            break
        if res.decomposition.internal_terminal_occurrences(terms) != 0:
            ok, detail = False, "internal terminals remain"
            break
        # route the spliced demand in the tight network carrying those loads
        loads = dec.edge_loads()
        net_b = TerminalNetwork.make(
            verts, terms, [(u, v, c) for (u, v), c in loads.items()],
            allow_disconnected=True)
        out = unsplice_route(net_b, dec.induced_demand(), res.decomposition,
                             res)
        got = out.induced_demand()
        for pair, want in dec.induced_demand().items():
            if abs(float(got.get(pair, 0) - want)) > 1e-9 * max(1.0, float(want)):
                ok, detail = False, f"demand mismatch on {pair}"
                break
        if not ok:
            break
        done += 1
    ok = ok and done == 30
    _report(8, "splicing round trip", ok, time.time() - start, 60,
            detail or f"{done} decompositions")


def test_acceptance_9_treewidth_recursion():
    """Trees and treewidth-2 nets, k <= 9, identity leaves: quality 1, depth
    within log_{6/5} k."""
    start = time.time()
    rng = random.Random(909)
    ok = True
    detail = ""
    cases = [
        (gen_treewidth(8, 30, 1, seed=91), None),
        (gen_treewidth(9, 26, 2, seed=92), None),
        (gen_treewidth(9, 30, 1, seed=93), 8),   # force an actual split
    ]
    for (net, tdec), threshold in cases:
        res = treewidth_sparsifier(net, tdec, "identity",
                                   leaf_threshold=threshold)
        depth = dict(res.params)["depth"]
        if depth > math.log(max(2, net.k)) / math.log(6 / 5):
            ok, detail = False, f"depth {depth} too large"
            break
        if res.claimed_quality != 1.0:
            ok, detail = False, "claimed quality not 1"
            break
        for _ in range(50):
            d = _uniform_demand(rng, net)
            lg = concurrent_flow(net, d).value
            lh = concurrent_flow(res.net, d).value
            if abs(lh / lg - 1) > 1e-6:
                ok, detail = False, f"ratio {lh / lg}"
                break
        if not ok:
            break
    _report(9, "treewidth recursion", ok, time.time() - start, 600, detail)


def test_acceptance_10_merge_constructions():
    """Profile-bucket and ratio-type at eps=0.25, k=4: certified <= 1+5eps on
    the disc grid, and the lower ratio is 1 on every demand."""
    start = time.time()
    eps = 0.25
    ok = True
    detail = ""
    for seed in (11, 12, 13):
        net = gen_quasi_bipartite(4, 40, seed=seed)
        grid = disc_demands(net, eps, 0.1)
        for name, res in (
                ("profile", profile_bucket_sparsifier(net, eps, grid)),
                ("ratio", ratio_type_sparsifier(net, eps))):
            rep = certify(net, res.net, grid, claimed_q=1 + 5 * eps)
            if rep.upper > 1 + 5 * eps + 1e-9:
                ok, detail = False, f"{name} upper {rep.upper:.4f}"
                break
            per_demand_lower = [r.lam_base / r.lam_candidate for r in rep.records]
            if any(l > 1 + 1e-6 for l in per_demand_lower):
                ok, detail = False, f"{name} lost flow on a demand"
                break
        if not ok:
            break
    _report(10, "merge constructions", ok, time.time() - start, 600, detail)
