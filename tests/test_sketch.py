import dataclasses
import hashlib
import json
import math
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import flowsparse.lp
from flowsparse import DemandVector, TerminalNetwork, sketch
from flowsparse.flow import concurrent_flow, sparsest_terminal_cut
from flowsparse.generators import gen_quasi_bipartite
from flowsparse.network import terminal_bipartitions
from flowsparse.sketch import (
    _exponent_floor,
    _grid_exponents,
    _terminal_cuts,
    DemandSketch,
    GridCore,
    HullCore,
    SketchError,
    build_sketch,
    grid_demands,
)

from conftest import (ONE_BLAS_THREAD, child_env, first_reads_meet, random_connected_net,
                      random_demand)


def single_edge(cap=10):
    return TerminalNetwork.make(["s", "t"], ["s", "t"], [("s", "t", cap)])


def _exact_cut_ratios(net, pairs, vecs):
    """Per row of `vecs`, the least ratio of a terminal bipartition's min cut
    to the demand it separates, with every min cut brute-forced over the
    vertex subsets (the sketch's own cut code is not used)."""
    vidx = {v: i for i, v in enumerate(net.vertices)}
    masks = np.arange(1 << len(net.vertices), dtype=np.int64)

    def inside(v):
        return (masks >> vidx[v]) & 1 == 1

    caps = sum(float(c) * (inside(u) != inside(v)) for u, v, c in net.edges)
    ratios = np.full(len(vecs), np.inf)
    for A, B in terminal_bipartitions(net.terminals):
        fits = np.all([inside(t) for t in A] + [~inside(t) for t in B], axis=0)
        sep = vecs @ np.array([(s in A) != (t in A) for s, t in pairs], dtype=float)
        with np.errstate(divide="ignore"):
            ratios = np.minimum(ratios, np.where(sep > 0, caps[fits].min() / sep, np.inf))
    return ratios


def _dense_feasible(k, eps, maxflows, rows):
    """A grid core's feasible array scored as `_grid_core` once did: each
    row summed in pair order over every axis, zero terms included, into one
    float score per candidate."""
    base = 1.0 + eps
    ranges = [_grid_exponents(eps / (k * k) * m, m, base) for m in maxflows]
    axes = np.ix_(*[np.array([0.0] + [base ** j for j in r]) for r in ranges])
    feasible = np.ones([len(r) + 1 for r in ranges], dtype=bool)
    for row in rows:
        score = sum(c * a for c, a in zip(row, axes))
        assert score.shape == feasible.shape
        feasible &= score <= 1.0 + sketch._MEMBER_TOL
    feasible.flat[0] = False
    return feasible


class TestBuild:
    def test_epsilon_domain(self):
        net = single_edge()
        with pytest.raises(SketchError):
            build_sketch(net, 0.0)
        with pytest.raises(SketchError):
            build_sketch(net, 0.5)
        sk = build_sketch(net, 0.49)
        assert 0 < sk.eps_internal < 0.125

    def test_single_edge_grid(self):
        sk = build_sketch(single_edge(10), 0.1)
        assert isinstance(sk.core, GridCore)
        assert sk.maxflows == (10.0,)
        assert sk.stored_entries > 0
        # k=2: every candidate in [eps_int/4 * 10, 10] is feasible, so the
        # dictionary holds the full per-coordinate range
        assert sk.stored_entries == sk.core.counts[0]

    def test_stored_vectors_feasible_and_in_range(self):
        rng = random.Random(4)
        net = random_connected_net(rng, 7, 3)
        sk = build_sketch(net, 0.4)
        demands = grid_demands(sk)
        assert demands, "dictionary should not be empty on a connected net"
        k = sk.k
        sample = random.Random(1).sample(demands, min(25, len(demands)))
        for d in sample:
            lam = concurrent_flow(net, d).value
            assert lam >= 1.0 - 1e-6
            for p, v in d.items():
                L = sk.maxflows[sk.pairs.index(p)]
                assert sk.eps_internal / k**2 * L * (1 - 1e-9) <= v <= L * (1 + 1e-9)
                j = round(math.log(v) / math.log(sk.base))
                assert v == pytest.approx(sk.base ** j, rel=1e-9)

    @pytest.mark.parametrize("seed", [172, 213])
    def test_grid_core_is_the_exact_feasible_grid(self, seed):
        # flow equals cut for k = 3, so the stored set must be every nonzero
        # grid vector whose exact cut ratio is at least 1, and nothing else
        rng = random.Random(seed)
        net = random_connected_net(rng, rng.randint(4, 11), 3)
        sk = build_sketch(net, 0.3)
        core = sk.core
        assert isinstance(core, GridCore)
        # every grid vector in code order, from the per-pair value tables;
        # the first is the zero vector, the one grid vector never stored
        tables = [[0.0] + [sk.base ** (j + d) for d in range(c)]
                  for j, c in zip(core.jmins, core.counts)]
        vecs = np.stack(np.meshgrid(*tables, indexing="ij"), axis=-1)
        ratios = _exact_cut_ratios(net, sk.pairs, vecs.reshape(-1, len(tables))[1:])
        assert not core.feasible.flat[0]
        stored = core.feasible.ravel()[1:]
        assert ratios[stored].min() >= 1 - 1e-9
        assert ratios[~stored].max() < 1

    def test_grid_build_memory_per_candidate(self):
        # the boolean feasible array and a boolean mask fit in 2 bytes a
        # candidate; a k = 3 cut row is 0 on one pair, so its float scores
        # span two axes and no candidate-sized float array is made
        net = gen_quasi_bipartite(3, 8, seed=22)
        build_sketch(net, 0.25)                  # warms the network's caches
        tracemalloc.start()
        try:
            sk = build_sketch(net, 0.25)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        candidates = math.prod(c + 1 for c in sk.core.counts)
        assert candidates == 571_787
        assert peak <= 2 * candidates

    @pytest.mark.parametrize("eps", [0.1, 0.25, 0.45])
    def test_grid_scores_match_the_dense_broadcast(self, eps):
        """`_grid_core` scores each row on its nonzero axes alone; its
        feasible array equals scoring every row over the whole grid, on built
        k = 2 and k = 3 sketches (a k = 3 grid at eps = 0.1 is past
        DEFAULT_BUDGET) and on hand-made rows with more zeros, a -0.0 and an
        all-zero row."""
        cases = []
        for k in (2, 3) if eps > 0.1 else (2,):
            sk = build_sketch(gen_quasi_bipartite(k, k + 5, seed=40 + k), eps)
            cases.append((k, sk.eps_internal, sk.maxflows, sk.core.rows))
        eps_int = eps / 4
        if eps > 0.1:
            # the last row but one puts axis 0's top value at 1, so that its
            # small term on axis 2 decides the verdict
            top = (1 + eps_int) ** _grid_exponents(eps_int / 9 * 3.0, 3.0, 1 + eps_int)[-1]
            cases.append((3, eps_int, (3.0, 0.7, 12.5), np.array(
                [[0.1, 0.0, 0.0], [0.0, 0.0, 0.3], [0.05, 0.02, 0.0], [0.0, -0.0, 0.04],
                 [0.01, 0.2, 0.03], [1 / top, 0.0, 1e-6], [0.0, 0.0, 0.0]])))
        cases.append((2, eps_int, (5.0,), np.array([[0.0], [0.25], [-0.0]])))
        for k, eps_int, maxflows, rows in cases:
            core = sketch._grid_core(k, eps_int, maxflows, rows)
            assert isinstance(core, GridCore)
            want = _dense_feasible(k, eps_int, maxflows, rows)
            assert core.feasible.shape == want.shape
            assert np.array_equal(core.feasible, want)
            assert core.size > 0

    def test_storage_bound(self):
        rng = random.Random(5)
        net = random_connected_net(rng, 6, 3)
        sk = build_sketch(net, 0.3)
        assert math.log(max(1, sk.stored_entries)) <= sk.storage_bound_log()

    def test_budget_fallback_to_hull(self):
        rng = random.Random(6)
        net = random_connected_net(rng, 8, 3)
        sk = build_sketch(net, 0.1)
        candidates = math.prod(
            len(_grid_exponents(sk.eps_internal / sk.k ** 2 * m, m, sk.base)) + 1
            for m in sk.maxflows)
        assert candidates > sketch.DEFAULT_BUDGET
        assert isinstance(sk.core, HullCore)
        with pytest.raises(SketchError):
            grid_demands(sk)

    def test_needs_two_terminals(self):
        net = TerminalNetwork.make(["a", "b"], ["a"], [("a", "b", 1)])
        with pytest.raises(SketchError):
            build_sketch(net, 0.2)


class TestQuery:
    def test_single_edge_contract(self):
        sk = build_sketch(single_edge(10), 0.1)
        v = sk.query({("s", "t"): 1})
        assert 10 / 1.1 <= v <= 11.0

    def test_scaled_demand(self):
        sk = build_sketch(single_edge(10), 0.2)
        v1 = sk.query({("s", "t"): 1})
        v2 = sk.query({("s", "t"): 4})
        assert v2 == pytest.approx(v1 / 4, rel=2 * 0.2 + 0.05)

    def test_zero_demand_rejected(self):
        sk = build_sketch(single_edge(), 0.2)
        with pytest.raises(SketchError):
            sk.query(DemandVector.of({}))

    def test_unknown_pair_rejected(self):
        sk = build_sketch(single_edge(), 0.2)
        with pytest.raises(SketchError):
            sk.query({("s", "zzz"): 1})

    @pytest.mark.parametrize("seed,k,eps", [(0, 2, 0.25), (1, 3, 0.25),
                                            (2, 3, 0.4), (3, 4, 0.25)])
    def test_band_soundness(self, seed, k, eps):
        rng = random.Random(seed)
        net = random_connected_net(rng, rng.randint(k + 2, 10), k)
        sk = build_sketch(net, eps)
        for _ in range(50):
            d = random_demand(rng, net)
            q = sk.query(d)
            lam = concurrent_flow(net, d).value
            assert lam / (1 + eps) <= q <= (1 + eps) * lam

    def test_probe_count_contract(self):
        rng = random.Random(9)
        net = random_connected_net(rng, 8, 3)
        eps = 0.25
        sk = build_sketch(net, eps)
        budget = (1 / sk.eps_internal) * sk.k**2 * max(1.0, math.log(sk.k)) * 8
        for _ in range(20):
            d = random_demand(rng, net)
            _, probes = sk.query_with_stats(d)
            assert probes <= budget

    def test_query_monotone_under_coordinate_decrease(self):
        rng = random.Random(10)
        net = random_connected_net(rng, 8, 3)
        eps = 0.3
        sk = build_sketch(net, eps)
        slack = (1 + eps) ** 2
        for _ in range(20):
            d = random_demand(rng, net)
            entries = dict(d.items())
            pair = rng.choice(list(entries))
            entries[pair] *= rng.uniform(0.2, 0.9)
            smaller = DemandVector.of(entries)
            assert sk.query(smaller) >= sk.query(d) / slack * (1 - 1e-9)


def _query_probe_by_probe(sk, demand):
    """(answer, probes) of a binary search over [jlo, jhi], then up to three
    probes below jlo, that rounds each undropped lam * d_i with
    `_exponent_floor` at every probe: the query before it took each pair's
    exponent once per query and walked from its rows' bound."""
    base, k, n = sk.base, sk.k, len(sk.pairs)
    dvals = [0.0] * n
    for p, v in DemandVector.of(demand).items():
        dvals[sk.pairs.index(p)] = v
    beta = min(m / v for m, v in zip(sk.maxflows, dvals) if v > 0)
    jlo = sketch._exponent_ceil(beta / (k * k), base)
    jhi = max(jlo, _exponent_floor(beta, base))
    floors = [2 * sk.eps_internal / (k * k) * m for m in sk.maxflows]
    probes = 0

    def decide(j):
        nonlocal probes
        probes += 1
        lam = base ** j
        exps = {i: _exponent_floor(lam * dv, base) for i, dv in enumerate(dvals)
                if dv > 0 and lam * dv > floors[i]}
        if not exps:
            return True
        if isinstance(sk.core, GridCore):
            index = [0] * n
            for i, e in exps.items():
                index[i] = e - sk.core.jmins[i] + 1
                if not 0 <= index[i] < sk.core.feasible.shape[i]:
                    return False
            return bool(sk.core.feasible[tuple(index)])
        vec = np.zeros(n)
        for i, e in exps.items():
            vec[i] = base ** e
        return float(np.max(sk.core.rows @ vec)) <= 1.0 + sketch._MEMBER_TOL

    lo, hi, best = jlo, jhi, None
    while lo <= hi:
        mid = (lo + hi) // 2
        if decide(mid):
            best, lo = mid, mid + 1
        else:
            hi = mid - 1
    if best is None:
        best = next(j for j in range(jlo - 1, jlo - 4, -1) if decide(j))
    return float(base ** best), probes


def _shift_test_sketches():
    """Grid and hull sketches at eps in {0.1, 0.25, 0.45} on k = 3 and 4
    quasi-bipartite nets.  Each k = 3 grid also answers through a hull of
    its cut rows, which are exact at k = 3.  At eps = 0.1 a k = 3 grid is
    past DEFAULT_BUDGET, so a k = 2 net gives the grid there.  Last, a hull
    at eps = 0.001, where the dust tolerance 1e-12 / ln(base), 4e-9 in
    exponent units, is wider than a margin of 1e-9 would be."""
    out = []
    for eps in (0.1, 0.25, 0.45):
        for k in (2, 3, 4) if eps == 0.1 else (3, 4):
            sk = build_sketch(gen_quasi_bipartite(k, k + 5, seed=40 + k), eps)
            out.append(sk)
            if isinstance(sk.core, GridCore) and k == 3:
                out.append(dataclasses.replace(sk, core=HullCore(sk.core.rows)))
    hull = next(sk for sk in out if sk.k == 3 and isinstance(sk.core, HullCore))
    out.append(dataclasses.replace(hull, epsilon=0.001, eps_internal=0.00025))
    return out


def _near_powers(sk, m):
    """base**m off by 1e-15 to 1e-7 relative, both ways."""
    return [sk.base ** m * (1 + sign * r * 10.0 ** -s) for s in range(8, 16)
            for r in (1.0, 2.5, 6.3) for sign in (-1, 1)]


def _shift_test_demands(sk, rng, count):
    """Demands mixing exact grid powers, grid powers off by 1e-15 to 1e-7
    relative, integers, uniform values and the extremes 1e-300, 1e300 and
    1e308; each query leaves one pair under its negligible floor with odds
    1/4.  Then single-pair demands next to grid powers, where an exponent
    off by one moves the answer by a grid step."""
    def value():
        kind = rng.randrange(6)
        if kind == 0:
            return sk.base ** rng.randint(-40, 40)
        if kind == 1:
            return rng.choice(_near_powers(sk, rng.randint(-40, 40)))
        if kind == 2:
            return float(rng.randint(1, 12))
        if kind == 3:
            return rng.uniform(0.05, 3.0)
        return rng.choice((1e-300, 1e300, 1e308)) if rng.random() < 0.1 else 1.0
    out = []
    for _ in range(count):
        entries = {p: value() for p in sk.pairs if rng.random() < 0.8}
        if not entries:
            entries = {sk.pairs[0]: value()}
        if len(sk.pairs) > 1 and rng.random() < 0.25:
            entries[rng.choice(sk.pairs)] = 1e-9 * min(entries.values())
        out.append(entries)
    return out + [{rng.choice(sk.pairs): v} for v in _near_powers(sk, rng.randint(-40, 40))]


def _exponent_floor_calls(monkeypatch):
    """Patch `sketch._exponent_floor` to log the `log_base` argument of each
    call: None for beta's two roundings, the log of the base for a probe's."""
    calls = []

    def logged(value, base, log_base=None):
        calls.append(log_base)
        return _exponent_floor(value, base, log_base)

    monkeypatch.setattr(sketch, "_exponent_floor", logged)
    return calls


def _check_against_probe_by_probe(sk, demand, calls):
    """The query's answer equals the probe-by-probe reference's bit for bit;
    returns how many of its roundings took `_exponent_floor` at a probe, its
    probe count and the reference's."""
    del calls[:]
    got = sk.query_with_stats(demand)
    exact = len(calls) - calls.count(None)
    want = _query_probe_by_probe(sk, demand)
    assert got[0].hex() == want[0].hex(), demand
    return exact, got[1], want[1]


def test_first_query_plans_of_two_sketches_run_at_once(monkeypatch):
    """Two threads taking the query plans of two sketches meet inside the
    plans' build, at `_QueryPlan`."""
    sketches = [build_sketch(gen_quasi_bipartite(3, 6, seed=seed), 0.45) for seed in (1, 2)]
    plan = sketch._QueryPlan
    first_reads_meet(monkeypatch, sketch, "_QueryPlan", lambda sk: sk._query_plan, sketches)
    assert all(type(sk._query_plan) is plan for sk in sketches)


def test_exponent_shift_matches_rounding_at_every_probe(monkeypatch):
    """Taking each pair's exponent once per query and walking from the rows'
    bound leave every answer as a binary search with `_exponent_floor` at
    every probe gives it, on grid and hull cores alike, in fewer probes;
    some queries round a pair exactly at every probe, and some shift every
    pair."""
    calls = _exponent_floor_calls(monkeypatch)
    rng = random.Random(32)
    kinds, shifted, exact, probes, reference = set(), 0, 0, 0, 0
    for sk in _shift_test_sketches():
        kinds.add((type(sk.core).__name__, sk.epsilon))
        for demand in _shift_test_demands(sk, rng, 150):
            rounded, got, want = _check_against_probe_by_probe(sk, demand, calls)
            if rounded:
                exact += 1
            else:
                shifted += 1
            probes, reference = probes + got, reference + want
    assert kinds >= {(kind, eps) for kind in ("GridCore", "HullCore")
                     for eps in (0.1, 0.25, 0.45)}
    assert exact > 100 and shifted > 100, (exact, shifted)
    assert probes < reference, (probes, reference)


@pytest.mark.parametrize("scale", [1e-6, 1e6])
def test_walk_answers_alike_from_any_start(scale):
    """The walk's answer does not depend on where it starts: with the row
    columns behind its start in the query plan scaled by 1e-6 it starts at
    jhi and walks down, and by 1e6 it starts at jlo and walks up; either
    way every answer is the binary search's.  The probes read the core.
    The last sketch, at eps = 0.001, is left out: its range is some 9 000
    steps long."""
    rng = random.Random(34)
    for sk in _shift_test_sketches()[:-1]:
        moved = dataclasses.replace(sk)
        plan = sk._query_plan
        moved.__dict__["_query_plan"] = plan._replace(
            pairs={p: at[:-1] + ([r * scale for r in at[-1]],) for p, at in plan.pairs.items()})
        for demand in _shift_test_demands(sk, rng, 20):
            want = _query_probe_by_probe(sk, demand)[0].hex()
            assert moved.query(demand).hex() == sk.query(demand).hex() == want, demand


def _scaled_hull(sk, scale, eps_internal):
    """`sk`'s hull for the net with every capacity times `scale`, at grid
    parameter `eps_internal`."""
    return dataclasses.replace(
        sk, epsilon=4 * eps_internal, eps_internal=eps_internal,
        maxflows=tuple(m * scale for m in sk.maxflows), core=HullCore(sk.core.rows / scale))


def test_exponent_shift_waits_for_normal_floats(monkeypatch):
    """Where a probe's lam or an undropped lam * d_i can be subnormal, its
    rounding is too coarse for the shift, so every pair takes
    `_exponent_floor` at every probe.  lam: capacities near 1e-12 and a
    demand next to a grid power from 1e307 to 1e308.  lam * d_i:
    capacities near 1e-305 at eps_int = 1e-8, where the negligible floors
    are subnormal.  The rows there hold entries near 1e12 and 1e305, so
    rows . d can pass the float range."""
    calls = _exponent_floor_calls(monkeypatch)
    sk = build_sketch(gen_quasi_bipartite(3, 8, seed=43), 0.25)
    rng = random.Random(33)
    tiny_lam = _scaled_hull(sk, 1e-12, sk.eps_internal)
    cases = [(tiny_lam, {sk.pairs[m % 3]: v}) for m in range(11_670, 11_700)
             for v in _near_powers(sk, m)]
    tiny_vals = _scaled_hull(sk, 1e-305, 1e-8)
    cases += [(tiny_vals, {sk.pairs[0]: 1.5, sk.pairs[1]: rng.uniform(0.2, 1) * 1e-8,
                           sk.pairs[2]: rng.uniform(0.2, 1) * 1e-7}) for _ in range(20)]
    probes, reference = 0, 0
    for hull, demand in cases:
        rounded, got, want = _check_against_probe_by_probe(hull, demand, calls)
        assert rounded > 0
        probes, reference = probes + got, reference + want
    assert probes < reference, (probes, reference)


def test_a_pair_with_zero_rows_answers_as_the_binary_search(tmp_path):
    """A version-2 file may leave a pair's whole column of rows at 0.  A
    demand on that pair alone has rows . d = 0, so the walk starts at jhi.
    On a loaded grid and a loaded hull, every answer equals the binary
    search's and the one pinned from it."""
    answers = []
    for k, eps in ((3, 0.45), (4, 0.25)):
        sk = build_sketch(gen_quasi_bipartite(k, k + 5, seed=40 + k), eps)
        doc = sk.to_json_dict()
        for row in doc["rows"]:
            row[0] = 0.0
        path = tmp_path / f"zero-column-{k}.json"
        path.write_text(json.dumps(doc))
        loaded = DemandSketch.load(str(path))
        assert type(loaded.core) is type(sk.core)
        assert not loaded.core.rows[:, 0].any()
        pair, other = loaded.pairs[0], loaded.pairs[-1]
        for demand in ({pair: 1.0}, {pair: 0.37}, {pair: 2.0, other: 1e-9},
                       {pair: 1.0, other: 0.5}, {other: 3.0}):
            answer = loaded.query(demand)
            assert answer.hex() == _query_probe_by_probe(loaded, demand)[0].hex()
            answers.append(answer.hex())
    assert answers == ZERO_COLUMN_ANSWERS


# The answers of the zero-column test, taken from the binary search that
# the walk replaced.
ZERO_COLUMN_ANSWERS = [
    "0x1.e527a20f626dbp+2", "0x1.6039ad8550e41p+4", "0x1.ffcfccc4f2d59p+1",
    "0x1.e527a20f626dbp+2", "0x1.4e203b3b51dc2p+1", "0x1.80451de209afdp+3",
    "0x1.0d4204dd24b36p+5", "0x1.8a8043284eec8p+2", "0x1.80451de209afdp+3",
    "0x1.021324bc502c7p+2",
]


def star_and_pair_demands(net):
    """Each terminal's star demand (1 to every other terminal), then each
    single-pair demand: the stars meet the singleton terminal cuts, which
    random demands rarely make tight."""
    stars = [DemandVector.of({(t, u): 1.0 for u in net.terminals if u != t})
             for t in net.terminals]
    return stars + [DemandVector.of({p: 1.0}) for p in net.terminal_pairs()]


# Two seeded k = 4 nets on which a hull without the terminal cut rows
# answered x1.348 and x1.455 of lambda, on the first and second vector below
HULL_BAND_NETS = (959636831, 47026748)
HULL_BAND_VECTORS = (
    {("t0", "t1"): 9.93, ("t1", "t2"): 19.71, ("t1", "t3"): 14.56},
    {("t0", "t3"): 9.43, ("t1", "t3"): 13.11, ("t2", "t3"): 12.26},
)


@pytest.mark.parametrize("seed", HULL_BAND_NETS)
def test_k4_hull_answers_stars_within_the_band(seed):
    net = gen_quasi_bipartite(4, 8, seed)
    eps = 0.25
    sk = build_sketch(net, eps)
    assert isinstance(sk.core, HullCore)
    for d in star_and_pair_demands(net) + [DemandVector.of(v) for v in HULL_BAND_VECTORS]:
        ratio = sk.query(d) / concurrent_flow(net, d).value
        assert 1 / (1 + eps) <= ratio <= 1 + eps, (d, ratio)


def _flow_cut_nets():
    """120 seeded (net, demand) cases with k in {2, 3, 4}, half quasi-bipartite
    and half random connected."""
    rng = random.Random(2024)
    for i in range(120):
        k = 2 + i % 3
        if i % 2:
            net = gen_quasi_bipartite(k, rng.randint(k + 1, k + 9), rng.randrange(2 ** 31))
        else:
            net = random_connected_net(rng, rng.randint(k, k + 8), k)
        yield net, random_demand(rng, net)


class TestExactFlowValue:
    """For k <= 4 the cut condition suffices, so the terminal cut rows alone
    give the exact flow value and a k <= 4 hull needs no validation; from
    k = 5 on they only bound it."""

    def test_flow_equals_cut_up_to_four_terminals(self):
        for net, d in _flow_cut_nets():
            pairs = tuple(net.terminal_pairs())
            vec = np.array([d[p] for p in pairs])
            cut = sparsest_terminal_cut(net, d)[0]
            assert concurrent_flow(net, d).value == pytest.approx(cut, rel=1e-9)
            rows = _terminal_cuts(net, pairs)[1]
            assert 1 / np.max(rows @ vec) == pytest.approx(cut, rel=1e-12)

    def test_k23_flow_is_below_the_cut_bound(self):
        # unit K_{2,3}, every vertex a terminal: the cut condition holds with
        # slack 1, yet only 3/4 of the demand routes concurrently
        net = TerminalNetwork.make(
            ["a", "b", "x", "y", "z"], ["a", "b", "x", "y", "z"],
            [(u, v, 1) for u in "ab" for v in "xyz"])
        d = DemandVector.of({("a", "b"): 1, ("x", "y"): 1, ("x", "z"): 1,
                             ("y", "z"): 1})
        pairs = tuple(net.terminal_pairs())
        vec = np.array([d[p] for p in pairs])
        assert sparsest_terminal_cut(net, d)[0] == pytest.approx(1.0, rel=1e-12)
        assert 1 / np.max(_terminal_cuts(net, pairs)[1] @ vec) == pytest.approx(
            1.0, rel=1e-12)
        assert concurrent_flow(net, d).value == pytest.approx(0.75, rel=1e-9)

    @staticmethod
    def _count_solves(monkeypatch, net):
        """Core kind and the calls to the oracle, to the certificate rows and
        to the float simplex behind both, in one build."""
        calls = {"oracle": 0, "rows": 0, "simplex": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(sketch, "concurrent_flow",
                            counted("oracle", sketch.concurrent_flow))
        monkeypatch.setattr(sketch, "_dual_certificate",
                            counted("rows", sketch._dual_certificate))
        monkeypatch.setattr(flowsparse.lp, "simplex_min",
                            counted("simplex", flowsparse.lp.simplex_min))
        sk = build_sketch(net, 0.45)
        return type(sk.core), calls["oracle"], calls["rows"], calls["simplex"]

    @pytest.mark.parametrize("k, n, core", [(3, 8, GridCore), (4, 10, HullCore)])
    def test_lp_solves_only_certificate_rows_up_to_four_terminals(
            self, monkeypatch, k, n, core):
        kind, oracle, rows, simplex = self._count_solves(
            monkeypatch, gen_quasi_bipartite(k, n, seed=24))
        assert kind is core
        if core is GridCore:
            # the grid is enumerated against the exact terminal cuts alone
            assert oracle == rows == simplex == 0
        else:
            # the cut rows are exact: one oracle row per pair and the mix,
            # and no validation solve
            assert oracle == rows == 7
            assert simplex > 0

    def test_five_terminals_validate_with_the_oracle(self, monkeypatch):
        _, oracle, rows, _ = self._count_solves(
            monkeypatch, gen_quasi_bipartite(5, 8, seed=24))
        assert (oracle, rows) == (91, 11)


class TestSerialization:
    def test_roundtrip_grid(self, tmp_path):
        sk = build_sketch(single_edge(7), 0.15)
        path = tmp_path / "g.sk"
        sk.save(str(path))
        sk2 = DemandSketch.load(str(path))
        for val in (0.3, 1.0, 2.5):
            assert sk2.query({("s", "t"): val}) == sk.query({("s", "t"): val})

    def test_roundtrip_hull(self, tmp_path):
        rng = random.Random(12)
        net = random_connected_net(rng, 9, 4)
        sk = build_sketch(net, 0.25)
        assert isinstance(sk.core, HullCore)
        path = tmp_path / "h.sk"
        sk.save(str(path))
        sk2 = DemandSketch.load(str(path))
        for _ in range(10):
            d = random_demand(rng, net)
            assert sk2.query(d) == sk.query(d)


def _sketch_pin_groups():
    """Seeded `build_sketch` inputs: (net, epsilon, enumeration budget or
    None for `sketch.DEFAULT_BUDGET`)."""
    qb3 = gen_quasi_bipartite(3, 8, seed=22)
    return {
        "qb-2-6": (gen_quasi_bipartite(2, 6, seed=21), 0.25, None),
        "qb-3-8": (qb3, 0.45, None),
        "connected-3-9": (random_connected_net(random.Random(23), 9, 3), 0.45, None),
        "qb-3-8-budget-10": (qb3, 0.45, "10"),
        "qb-4-10": (gen_quasi_bipartite(4, 10, seed=24), 0.45, None),
    }


def _pinned_build_and_load(net, eps, budget):
    """The pinned build, and what its JSON text loads back to under the same
    budget.  Runs in the pinning child, so the budget it sets reaches no
    other test; the next group builds under the default again."""
    default = sketch.DEFAULT_BUDGET
    if budget is not None:
        sketch.DEFAULT_BUDGET = int(budget)
    try:
        sk = build_sketch(net, eps)
        return sk, DemandSketch.from_json_dict(json.loads(json.dumps(sk.to_json_dict())))
    finally:
        sketch.DEFAULT_BUDGET = default


def _same_sketch(a, b):
    """Equal fields, core type and core arrays."""
    grid = isinstance(a.core, GridCore)
    core_fields = ("jmins", "feasible", "rows") if grid else ("rows",)
    return (type(a.core) is type(b.core)
            and (a.epsilon, a.eps_internal, a.terminals, a.pairs, a.maxflows)
            == (b.epsilon, b.eps_internal, b.terminals, b.pairs, b.maxflows)
            and all(np.array_equal(getattr(a.core, f), getattr(b.core, f))
                    for f in core_fields))


def _sketch_fingerprint(sk):
    doc = json.dumps(sk.to_json_dict(), sort_keys=True)
    return [type(sk.core).__name__, hashlib.sha256(doc.encode()).hexdigest()[:16]]


def _query_fingerprint(sk, net):
    """sha256 prefixes of the answers and of the probe counts over 300
    seeded queries.  Each pair is demanded with probability 0.8, at a size
    spread over four decades, so that probes zero the coordinates at or
    below their pair's floor."""
    rng = random.Random(31)
    pairs = net.terminal_pairs()
    answers, probes = [], []
    for _ in range(300):
        entries = {p: rng.uniform(0.1, 3.0) * 10 ** rng.uniform(-3, 1)
                   for p in pairs if rng.random() < 0.8}
        value, count = sk.query_with_stats(entries or {pairs[0]: 1.0})
        answers.append(value.hex())
        probes.append(count)
    return [hashlib.sha256(repr(out).encode()).hexdigest()[:16] for out in (answers, probes)]


@pytest.fixture(scope="module")
def sketch_fingerprints():
    """Fingerprint every pinned build, its queries, and its load from JSON
    text in a fresh interpreter with one BLAS thread, as the oracle pins in
    test_flow.py do."""
    tests = Path(__file__).resolve().parent
    env = child_env(**ONE_BLAS_THREAD)
    code = ("import json, test_sketch as T\n"
            "out = {}\n"
            "for g, (net, eps, budget) in T._sketch_pin_groups().items():\n"
            "    sk, back = T._pinned_build_and_load(net, eps, budget)\n"
            "    out[g] = [T._sketch_fingerprint(sk), T._query_fingerprint(sk, net),\n"
            "              T._same_sketch(sk, back), T._query_fingerprint(back, net)]\n"
            "print(json.dumps(out))\n")
    proc = subprocess.run([sys.executable, "-c", code], cwd=tests, env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


# (core kind, sha256 prefix of the sorted-key JSON of to_json_dict()) per
# build, with one BLAS thread.  The file holds the core's rows: a change to
# the file format, the cut rows or the hull rows changes them.  Hull rows are
# the terminal cut rows, then the oracle's per-pair and mix rows; qb-4-10's
# oracle rows come from the star oracle (its view is star-shaped), and its
# cut rows set every answer, as at any k <= 4.
PINNED_SKETCHES = {
    "qb-2-6": ["GridCore", "d80b7ac6817ceee9"],
    "qb-3-8": ["GridCore", "3b07ba898c1408cd"],
    "connected-3-9": ["GridCore", "f929e37ff4eeef3d"],
    "qb-3-8-budget-10": ["HullCore", "a72b44a4cc399728"],
    "qb-4-10": ["HullCore", "9f181882d3b6a2d3"],
}


# sha256 prefix of repr([answer.hex(), ...]) over each build's 300 seeded
# queries (`_query_fingerprint`), with one BLAS thread.  Work may be moved
# out of the probe loop, and probes may be skipped, only where these stay
# equal.
PINNED_ANSWERS = {
    "qb-2-6": "e2cc5247f52aad6f",
    "qb-3-8": "8d8ddf99b2fe747c",
    "connected-3-9": "cd5f584aeee96263",
    "qb-3-8-budget-10": "8d8ddf99b2fe747c",
    "qb-4-10": "83ec3ad609792734",
}


# sha256 prefix of repr([probes, ...]) over the same queries.  The query
# walks from one exponent above its rows' bound 1 / max(rows . d) instead of
# binary-searching [jlo, jhi], so these moved when the walk came in, while
# every answer above stayed.
PINNED_PROBES = {
    "qb-2-6": "6e7601f602122027",
    "qb-3-8": "b3d6d9f1b5c92ae7",
    "connected-3-9": "93e35e8eb50c8572",
    "qb-3-8-budget-10": "b3d6d9f1b5c92ae7",
    "qb-4-10": "9e5d60617dcdecc5",
}


class TestPinnedBuilds:
    def test_pins_cover_every_group(self):
        assert (PINNED_SKETCHES.keys() == PINNED_ANSWERS.keys() == PINNED_PROBES.keys()
                == _sketch_pin_groups().keys())
        kinds = {kind for kind, _ in PINNED_SKETCHES.values()}
        assert kinds == {"GridCore", "HullCore"}

    @pytest.mark.parametrize("group", sorted(_sketch_pin_groups()))
    def test_build_is_bit_identical(self, group, sketch_fingerprints):
        assert sketch_fingerprints[group][0] == PINNED_SKETCHES[group]

    @pytest.mark.parametrize("group", sorted(_sketch_pin_groups()))
    def test_queries_are_bit_identical(self, group, sketch_fingerprints):
        assert sketch_fingerprints[group][1][0] == PINNED_ANSWERS[group]

    @pytest.mark.parametrize("group", sorted(_sketch_pin_groups()))
    def test_probe_counts_are_pinned(self, group, sketch_fingerprints):
        assert sketch_fingerprints[group][1][1] == PINNED_PROBES[group]

    @pytest.mark.parametrize("group", sorted(_sketch_pin_groups()))
    def test_load_is_bit_identical(self, group, sketch_fingerprints):
        # the loaded core is the built one, and answers every query alike
        assert sketch_fingerprints[group][2:] == [
            True, [PINNED_ANSWERS[group], PINNED_PROBES[group]]]


class TestGridCodes:
    @pytest.mark.parametrize("jmins,counts,base", [
        ((-3, 5, 0), (4, 0, 7), 1.1),
        ((-12,), (30,), 1.0625),
        ((2, -40, 7, 0), (3, 5, 1, 2), 1.3),
    ])
    def test_vectors_index_feasible_entries(self, jmins, counts, base):
        rng = np.random.default_rng(len(counts))
        feasible = rng.random([c + 1 for c in counts]) < 0.5
        feasible.flat[0] = False
        core = GridCore(jmins, feasible, np.empty((0, len(counts))))
        self._check_decode(core, base)

    def test_built_core_round_trips(self):
        sk = build_sketch(gen_quasi_bipartite(3, 8, seed=22), 0.45)
        core = sk.core
        assert isinstance(core, GridCore)
        vecs = self._check_decode(core, sk.base)
        assert [d.entries for d in grid_demands(sk)] == [
            tuple((p, v) for p, v in zip(sk.pairs, row) if v > 0)
            for row in vecs.tolist()]

    @staticmethod
    def _check_decode(core, base):
        """The decoded vectors index `size` distinct true entries of
        `feasible`."""
        vecs = core.vectors(base)
        indices = {tuple(0 if v == 0 else _exponent_floor(v, base) - jmin + 1
                         for v, jmin in zip(row, core.jmins)) for row in vecs.tolist()}
        assert len(vecs) == len(indices) == core.size
        assert all(core.feasible[index] for index in indices)
        return vecs
