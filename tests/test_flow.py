import dataclasses
import hashlib
import itertools
import json
import math
import random
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
from scipy.optimize import linprog

from flowsparse import (
    DemandVector,
    NetworkError,
    TerminalNetwork,
    concurrent_flow,
    max_flow,
    mincut_partition,
    sparsest_terminal_cut,
)
from flowsparse import flow
from flowsparse.flow import OPT_TOL, FlowError
from flowsparse.generators import (gen_quasi_bipartite, gen_series_parallel,
                                   gen_treewidth)
from flowsparse.lp import LPError
from flowsparse.network import _CUT_TABLE_MAX_ENTRIES, _pair, terminal_bipartitions

from conftest import (ONE_BLAS_THREAD, check_certificates, child_env, first_reads_meet, fresh,
                      random_connected_net, random_demand, random_quasi_bipartite,
                      rational_net, skew_duality_gap, sparsest_cut, two_hop_split,
                      with_prime_denominators)


def scipy_lambda(net, demand, terminal_free=False):
    """Independent concurrent-flow oracle: arc-flow LP solved by HiGHS.

    With `terminal_free`, commodity (s, t) may not use an arc that touches
    any other terminal.
    """
    arcs = []
    for u, v, c in net.edges:
        arcs.append((u, v))
        arcs.append((v, u))
    pairs = [p for p, _ in demand.items()]
    na, npair = len(arcs), len(pairs)
    nv = npair * na + 1
    A_ub, b_ub, A_eq, b_eq = [], [], [], []
    for i, (u, v, c) in enumerate(net.edges):
        row = [0.0] * nv
        for pi in range(npair):
            row[pi * na + 2 * i] = 1.0
            row[pi * na + 2 * i + 1] = 1.0
        A_ub.append(row)
        b_ub.append(float(c))
    for pi, (s, t) in enumerate(pairs):
        for x in net.vertices:
            row = [0.0] * nv
            for ai, (u, v) in enumerate(arcs):
                if u == x:
                    row[pi * na + ai] += 1.0
                if v == x:
                    row[pi * na + ai] -= 1.0
            if x == s:
                row[-1] = -demand[(s, t)]
            elif x == t:
                row[-1] = demand[(s, t)]
            A_eq.append(row)
            b_eq.append(0.0)
    bounds = [(0, None)] * nv
    if terminal_free:
        for pi, pair in enumerate(pairs):
            others = net.terminal_set - set(pair)
            for ai, (u, v) in enumerate(arcs):
                if u in others or v in others:
                    bounds[pi * na + ai] = (0, 0)
    c_obj = [0.0] * nv
    c_obj[-1] = -1.0
    res = linprog(c_obj, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                  bounds=bounds, method="highs")
    assert res.status == 0, res.message
    return -res.fun


def nx_set_flow(net, S, T):
    """Exact max flow from vertex set S to T by networkx, through a super
    source and sink joined by edges of unbounded capacity."""
    g = nx.Graph()
    g.add_edges_from((u, v, {"capacity": c}) for u, v, c in net.edges)
    g.add_edges_from(("_S", a) for a in S)
    g.add_edges_from((b, "_T") for b in T)
    return nx.maximum_flow_value(g, "_S", "_T")


def prime_denominator_net(rng, n, k):
    """Random connected net with prime-denominator capacities (see
    `with_prime_denominators`)."""
    return with_prime_denominators(rng, random_connected_net(rng, n, k))


class TestMaxFlow:
    def test_single_edge(self):
        net = TerminalNetwork.make(["s", "t"], ["s", "t"], [("s", "t", 10)])
        assert max_flow(net, "s", "t") == 10

    def test_bottleneck(self):
        net = TerminalNetwork.make(["s", "v", "t"], ["s", "t"],
                                   [("s", "v", 2), ("v", "t", 5)])
        assert max_flow(net, "s", "t") == 2

    def test_two_disjoint_paths(self):
        net = TerminalNetwork.make(
            ["s", "a", "t", "b"], ["s", "t"],
            [("s", "a", 1), ("a", "t", 1), ("t", "b", 1), ("b", "s", 1)])
        assert max_flow(net, "s", "t") == 2

    def test_exact_rational(self):
        net = TerminalNetwork.make(["s", "v", "t"], ["s", "t"],
                                   [("s", "v", "1/3"), ("v", "t", "2/7")])
        assert max_flow(net, "s", "t") == Fraction(2, 7)

    @pytest.mark.parametrize("seed", range(10))
    def test_against_networkx(self, seed):
        rng = random.Random(seed)
        net = random_connected_net(rng, rng.randint(4, 12), 2)
        g = nx.Graph()
        for u, v, c in net.edges:
            g.add_edge(u, v, capacity=float(c))
        s, t = net.terminals[0], net.terminals[1]
        ref = nx.maximum_flow_value(g, s, t)
        assert float(max_flow(net, s, t)) == pytest.approx(ref)

    @pytest.mark.parametrize("seed", range(10))
    def test_set_endpoints(self, seed):
        rng = random.Random(seed)
        net = rational_net(rng, rng.randint(5, 12), 5)
        S, T = set(net.terminals[:2]), set(net.terminals[2:])
        assert max_flow(net, S, T) == nx_set_flow(net, S, T)
        assert max_flow(net, S, net.terminals[4]) == nx_set_flow(net, S, {net.terminals[4]})
        s, t = net.terminals[0], net.terminals[1]
        assert max_flow(net, {s}, [t]) == max_flow(net, s, t)

    @pytest.mark.parametrize("seed", range(24))
    def test_large_scale_exact_against_networkx(self, seed):
        rng = random.Random(700 + seed)
        net = prime_denominator_net(rng, rng.randint(8, 14), 4)
        assert net.integer_view[0] > 10 ** 6
        # 10 of these 24 nets sum past the int64 bound, on Python ints
        assert_table_is_edmonds_karp(net)
        t = net.terminals
        for S, T in [({t[0]}, {t[1]}), ({t[0], t[2]}, {t[1], t[3]}),
                     ({t[3]}, set(t[:3]))]:
            value = max_flow(net, S, T)
            assert type(value) is Fraction
            assert value == nx_set_flow(net, S, T)

    def test_value_is_a_fraction_on_integer_capacities(self):
        net = TerminalNetwork.make(["s", "v", "t"], ["s", "t"],
                                   [("s", "v", 2), ("v", "t", 5), ("s", "t", 1)])
        assert type(max_flow(net, "s", "t")) is Fraction
        raw = TerminalNetwork(vertices=("s", "t"), terminals=("s", "t"),
                              edges=(("s", "t", 4),))
        value = max_flow(raw, "s", "t")
        assert type(value) is Fraction and value == 4

    def test_raw_net_with_duplicated_edge_matches_make(self):
        edges = (("s", "a", 3), ("a", "t", 2), ("s", "a", 1), ("a", "t", 4),
                 ("a", "b", 2), ("b", "t", 7), ("s", "b", 1), ("s", "b", 1))
        raw = TerminalNetwork(vertices=("a", "b", "s", "t"), terminals=("s", "t"),
                              edges=edges)
        made = TerminalNetwork.make(raw.vertices, raw.terminals, edges)
        value = max_flow(raw, "s", "t")
        assert type(value) is Fraction
        assert value == max_flow(made, "s", "t") == 6

    def test_endpoint_errors(self):
        net = TerminalNetwork.make(["s", "v", "t"], ["s", "t"],
                                   [("s", "v", 2), ("v", "t", 5)])
        for s, t in [("s", "s"), ({"s", "v"}, {"v", "t"}), ({"s"}, ["s"]),
                     (set(), "t"), ("s", ())]:
            with pytest.raises(FlowError, match="disjoint"):
                max_flow(net, s, t)
        for s, t in [("s", "x"), ({"s", "x"}, "t"), ("s", {"t", "x"})]:
            with pytest.raises(FlowError, match="not in network"):
                max_flow(net, s, t)


def edmonds_karp(net, S, T):
    """Max flow from vertex set S to T by Edmonds-Karp on the integer
    view, so on the unreduced network and past any cut table."""
    scale, index, arcs = net.integer_view
    return Fraction(flow._edmonds_karp(arcs, [index[v] for v in sorted(S)],
                                       {index[v] for v in T}), scale)


def assert_table_is_edmonds_karp(net):
    """Every entry of `bipartition_cuts` equals Edmonds-Karp on the integer
    view, and `max_flow` reads it."""
    cuts = net.bipartition_cuts
    splits = list(terminal_bipartitions(net.terminals))
    assert cuts is not None and len(cuts) == len(splits) == 2 ** (net.k - 1) - 1
    scale = net.cut_view[0]
    for cut, (A, B) in zip(cuts, splits):
        assert type(cut) is int
        assert Fraction(cut, scale) == edmonds_karp(net, A, B) == max_flow(net, B, A), A


CUT_VIEW_FAMILIES = {
    "random-k4": lambda rng, seed: random_connected_net(rng, rng.randint(5, 16), 4),
    "series-parallel": lambda rng, seed: gen_series_parallel(
        rng.randint(6, 20), 4, seed)[0],
    "treewidth": lambda rng, seed: gen_treewidth(
        rng.randint(5, 9), 30, 1 + seed % 3, seed)[0],
    "quasi-bipartite": lambda rng, seed: gen_quasi_bipartite(
        rng.randint(3, 6), rng.randint(10, 30), seed),
}


class TestCutView:
    @pytest.mark.parametrize("family", sorted(CUT_VIEW_FAMILIES))
    def test_terminal_cuts_equal_the_integer_view(self, family):
        vertices_in = vertices_out = 0
        for seed in range(40):
            net = CUT_VIEW_FAMILIES[family](random.Random(seed), seed)
            vertices_in += len(net.vertices)
            vertices_out += len(net.cut_view[1])
            assert net.terminal_set <= net.cut_view[1].keys()
            assert_table_is_edmonds_karp(net)
            for s, t in itertools.combinations(net.terminals, 2):
                assert max_flow(net, s, t) == edmonds_karp(net, {s}, {t}), (seed, s, t)
        assert vertices_out < vertices_in

    def test_odd_triangle_doubles_the_scale(self):
        net = TerminalNetwork.make(["a", "b", "c", "v"], ["a", "b", "c"],
                                   [("v", "a", 1), ("v", "b", 1), ("v", "c", 3)])
        # c_c clips to 2; the clipped sum 4 is even, so no doubling here
        assert net.cut_view == (1, {"a": 0, "b": 1, "c": 2},
                                [{2: 1}, {2: 1}, {0: 1, 1: 1}])
        odd = TerminalNetwork.make(["a", "b", "c", "v"], ["a", "b", "c"],
                                   [("v", "a", 1), ("v", "b", 1), ("v", "c", 1),
                                    ("a", "b", 2)])
        # the triangle has capacities 1/2, so everything is doubled
        assert odd.cut_view == (2, {"a": 0, "b": 1, "c": 2},
                                [{1: 5, 2: 1}, {0: 5, 2: 1}, {0: 1, 1: 1}])
        assert max_flow(odd, "a", "b") == 3
        assert max_flow(odd, "c", ["a", "b"]) == 1
        assert max_flow(odd, "a", "c") == Fraction(1)

    def test_raw_net(self):
        edges = (("s", "a", 3), ("a", "t", 2), ("s", "a", 1), ("a", "t", 4),
                 ("a", "b", 2), ("b", "t", 7), ("s", "b", 1), ("s", "b", 1))
        raw = TerminalNetwork(vertices=("a", "b", "s", "t"), terminals=("s", "t"),
                              edges=edges)
        made = TerminalNetwork.make(raw.vertices, raw.terminals, edges)
        assert raw.cut_view[1].keys() == {"s", "t"}
        assert raw.cut_view == made.cut_view
        assert max_flow(raw, "s", "t") == edmonds_karp(raw, {"s"}, {"t"}) == 6

    def test_isolated_non_terminal_is_dropped(self):
        net = TerminalNetwork.make(["s", "t", "z"], ["s", "t"], [("s", "t", "3/2")],
                                   allow_disconnected=True)
        assert net.cut_view == (2, {"s": 0, "t": 1}, [{1: 3}, {0: 3}])
        assert max_flow(net, "s", "t") == Fraction(3, 2)
        assert max_flow(net, "s", "z") == 0

    def test_eliminated_endpoint_uses_the_integer_view(self):
        net = TerminalNetwork.make(["s", "v", "t"], ["s", "t"],
                                   [("s", "v", 2), ("v", "t", 5)])
        assert "v" not in net.cut_view[1]
        assert max_flow(net, "s", "t") == 2
        assert max_flow(net, "s", "v") == 2
        assert max_flow(net, "v", "t") == 5
        assert max_flow(net, {"s", "v"}, "t") == 5

    def test_unknown_endpoint_raises(self):
        net = TerminalNetwork.make(["s", "v", "t"], ["s", "t"],
                                   [("s", "v", 2), ("v", "t", 5)])
        for s, t in [("s", "x"), ("x", "t"), ({"s", "x"}, "t")]:
            with pytest.raises(FlowError, match="endpoint not in network"):
                max_flow(net, s, t)
        with pytest.raises(NetworkError, match="terminal 't' is not a vertex"):
            TerminalNetwork(vertices=("s", "v"), terminals=("s", "t"),
                            edges=(("s", "v", 1),))


def ring_net(rng, k, r, caps=None):
    """k terminals and one component of r >= 5 non-terminals x0..x{r-1}:
    each x_i is joined to x_{i+1}, x_{i+2} and terminal t_{i mod k}, so
    every non-terminal has degree 5 and the cut view keeps them all.
    Capacities are random in 1..9, or `caps` in edge order."""
    ts, xs = [f"t{i}" for i in range(k)], [f"x{i}" for i in range(r)]
    ends = [(xs[i], xs[(i + j) % r]) for i in range(r) for j in (1, 2)]
    ends += [(xs[i], ts[i % k]) for i in range(r)]
    ends += [(ts[i], ts[i + 1]) for i in range(k - 1)]
    caps = caps or [rng.randint(1, 9) for _ in ends]
    return TerminalNetwork.make(ts + xs, ts,
                                [(u, v, c) for (u, v), c in zip(ends, caps, strict=True)])


class TestBipartitionCuts:
    """`bipartition_cuts` against Edmonds-Karp on the integer view, entry
    by entry: in int64, in Python ints past the int64 bound, and past the
    entry bounds, where `max_flow` falls back to its own kernels."""

    @pytest.mark.parametrize("seed", range(20))
    def test_fractional_capacities(self, seed):
        rng = random.Random(2100 + seed)
        net = rational_net(rng, rng.randint(6, 14), 2 + seed % 5)
        assert net.cut_view[0] > 1
        assert_table_is_edmonds_karp(net)

    def test_two_terminals(self):
        for seed in range(20):
            rng = random.Random(2200 + seed)
            net = rational_net(rng, rng.randint(3, 14), 2)
            assert_table_is_edmonds_karp(net)
            s, t = net.terminals
            assert max_flow(net, s, t) == nx_set_flow(net, {s}, {t})

    def test_two_terminals_skip_the_table(self):
        # one bipartition gains nothing from a table: max_flow answers alone
        for seed in range(20):
            rng = random.Random(2250 + seed)
            net = rational_net(rng, rng.randint(3, 14), 2)
            s, t = net.terminals
            value = max_flow(net, s, t)
            assert "bipartition_cuts" not in net.__dict__
            assert mincut_partition(net, [t], [s]) == value
            assert "bipartition_cuts" not in net.__dict__
            assert value == Fraction(net.bipartition_cuts[0], net.cut_view[0])

    def test_sixteen_terminals(self):
        # 2^5 x 32767 entries: the largest component the table takes at k = 16
        net = ring_net(random.Random(2300), 16, 5)
        assert len(net.cut_view[1]) == 21
        assert_table_is_edmonds_karp(net)

    def test_no_non_terminal_left(self):
        tables = 0
        for seed in range(20):
            net = gen_series_parallel(random.Random(seed).randint(6, 16), 4, seed)[0]
            if net.cut_view[1].keys() == net.terminal_set:
                tables += 1
                assert_table_is_edmonds_karp(net)
        assert tables > 0

    def test_matrices_past_the_entry_bound_fall_back(self):
        # k = 8 has 127 bipartitions: 2^13 x 127 entries fit in 2^20, 2^14 x 127 do not
        assert 2 ** 13 * 127 <= _CUT_TABLE_MAX_ENTRIES < 2 ** 14 * 127
        assert_table_is_edmonds_karp(ring_net(random.Random(2400), 8, 13))
        net = ring_net(random.Random(2401), 8, 14)
        assert net.bipartition_cuts is None
        for A, B in terminal_bipartitions(net.terminals):
            assert max_flow(net, A, B) == edmonds_karp(net, A, B), A
        # k = 16 has 32767 bipartitions: 32 single vertices fit, 33 do not;
        # at k = 17 the 65535 bipartitions by 17 terminals alone do not
        rng = random.Random(2402)
        ts = [f"t{i}" for i in range(17)]
        for k, singles, taken in [(16, 32, True), (16, 33, False), (17, 0, False)]:
            edges = [(ts[i], ts[i + 1], rng.randint(1, 9)) for i in range(k - 1)]
            edges += [(f"y{j}", t, rng.randint(1, 9)) for j in range(singles)
                      for t in rng.sample(ts[:k], 4)]
            net = TerminalNetwork.make({v for e in edges for v in e[:2]}, ts[:k], edges)
            assert len(net.cut_view[1]) == k + singles
            assert (net.bipartition_cuts is not None) is taken
            for A, B in itertools.islice(terminal_bipartitions(net.terminals), 0, None, 997):
                assert max_flow(net, A, B) == edmonds_karp(net, A, B), A

    def test_capacity_past_the_int64_bound_sums_python_ints(self, monkeypatch):
        rng = random.Random(2500)
        # 21 edges; the last takes what brings the total to 2^61 - 1, the
        # largest total summed in int64
        caps = [rng.randint(1, 2 ** 56) for _ in range(20)]
        caps.append(2 ** 61 - 1 - sum(caps))
        net = ring_net(rng, 4, 6, caps)
        assert table_dtypes(monkeypatch, net) == {np.int64}
        assert_table_is_edmonds_karp(net)
        caps[-1] += 1
        net = ring_net(rng, 4, 6, caps)
        assert table_dtypes(monkeypatch, net) == {object}
        assert_table_is_edmonds_karp(net)
        net = ring_net(rng, 4, 6, [2 ** 62 + c for c in caps])
        assert table_dtypes(monkeypatch, net) == {object}
        assert_table_is_edmonds_karp(net)
        assert max(net.bipartition_cuts) >= 2 ** 63    # past int64 itself
        for A, B in terminal_bipartitions(net.terminals):
            assert max_flow(net, A, B) == nx_set_flow(net, A, B)


def table_dtypes(monkeypatch, net):
    """The dtypes of the arrays that `net.bipartition_cuts` allocates."""
    net.cut_view
    seen = set()
    zeros = np.zeros
    with monkeypatch.context() as patch:
        patch.setattr(np, "zeros", lambda shape, dtype=float: seen.add(dtype)
                      or zeros(shape, dtype))
        net.bipartition_cuts
    return seen


def with_zero_capacity_edges(net, rng):
    """`net` built again from its edges plus a few zero-capacity edges,
    some between non-terminals, which the constructor drops."""
    inner = [v for v in net.vertices if v not in net.terminal_set]
    extra = [(*rng.sample(inner, 2), Fraction(0)) for _ in range(3)]
    extra += [(rng.choice(net.terminals), rng.choice(inner), Fraction(0))]
    return TerminalNetwork(net.vertices, net.terminals, net.edges + tuple(extra))


def terminal_cases(net, rng):
    """Every terminal bipartition and every terminal pair."""
    return (list(terminal_bipartitions(net.terminals))
            + [((s,), (t,)) for s, t in itertools.combinations(net.terminals, 2)])


def mixed_cases(net, rng):
    """Terminal cases with a random non-terminal added to one side, and
    each terminal against a random non-terminal."""
    inner = [v for v in net.vertices if v not in net.terminal_set]
    cases = [(A + (rng.choice(inner),), B) for A, B in terminal_cases(net, rng)]
    return cases + [((t,), (rng.choice(inner),)) for t in net.terminals]


# name -> (net from (rng, seed), its (S, T) cases)
CLOSED_FORM_FAMILIES = {
    "quasi-bipartite": (lambda rng, seed: gen_quasi_bipartite(
        rng.randint(2, 5), rng.randint(8, 20), seed), terminal_cases),
    "series-parallel": (lambda rng, seed: gen_series_parallel(
        rng.randint(4, 16), rng.randint(2, 4), seed)[0], terminal_cases),
    "random-k4": (lambda rng, seed: random_connected_net(
        rng, rng.randint(8, 14), 4, extra_edges=rng.randint(8, 16)),
        terminal_cases),
    "raw-zero-capacity": (lambda rng, seed: with_zero_capacity_edges(
        gen_quasi_bipartite(rng.randint(2, 4), rng.randint(8, 16), seed), rng),
        terminal_cases),
    "raw-zero-capacity-mixed": (lambda rng, seed: with_zero_capacity_edges(
        gen_quasi_bipartite(rng.randint(2, 4), rng.randint(8, 16), seed), rng),
        mixed_cases),
    "non-terminal-endpoints": (lambda rng, seed: rational_net(
        rng, rng.randint(6, 12), rng.randint(2, 4)), mixed_cases),
}


class TestClosedFormMaxFlow:
    """`max_flow` against networkx on nets whose min cuts have a closed form
    (independent non-terminals, each on its cheaper side) and on nets whose
    cuts have none; terminal bipartitions read the cut table, and the rest
    runs Edmonds-Karp."""

    @pytest.mark.parametrize("family", sorted(CLOSED_FORM_FAMILIES))
    def test_matches_networkx(self, family):
        make, cases = CLOSED_FORM_FAMILIES[family]
        for seed in range(40):
            rng = random.Random(1600 + seed)
            net = make(rng, seed)
            for S, T in cases(net, rng):
                S, T = frozenset(S), frozenset(T)
                assert max_flow(net, S, T) == nx_set_flow(net, S, T), (seed, S, T)

    def test_independent_vertex_joins_its_cheaper_side(self):
        # v has degree 4, so the cut view keeps it; cutting it off from
        # {c, d} costs 2 and from {a, b} costs 10
        net = TerminalNetwork.make(
            ["a", "b", "c", "d", "v"], ["a", "b", "c", "d"],
            [("v", "a", 5), ("v", "b", 5), ("v", "c", 1), ("v", "d", 1), ("a", "c", 3)])
        assert "v" in net.cut_view[1]
        for S, T, want in [({"a", "b"}, {"c", "d"}, 5), ({"c", "d"}, {"a", "b"}, 5),
                           ({"a", "c"}, {"b", "d"}, 6), ({"a"}, {"b", "c", "d"}, 8)]:
            assert max_flow(net, S, T) == want == nx_set_flow(net, S, T)
        # a non-terminal endpoint: on the integer view, u joins T's side
        path = TerminalNetwork.make(["s", "u", "t", "x"], ["s", "t"],
                                    [("s", "u", 4), ("u", "t", 1), ("t", "x", 2)])
        assert max_flow(path, "s", {"t", "x"}) == 1 == nx_set_flow(path, "s", "tx")


# Seeded non-star nets whose reduced views keep at least 30 vertices, with
# k >= 8: (seed, make(rng, seed)), the demand drawn from the same rng.
LARGE_VIEWS = {
    "random-60-8-seed1": (1, lambda rng, seed: random_connected_net(rng, 60, 8)),
    "random-60-8-seed5": (5, lambda rng, seed: random_connected_net(rng, 60, 8)),
    "treewidth-8-50-5": (0, lambda rng, seed: gen_treewidth(8, 50, 5, seed)[0]),
    "treewidth-9-60-4": (2, lambda rng, seed: gen_treewidth(9, 60, 4, seed)[0]),
}


@pytest.fixture()
def cg_brackets(monkeypatch):
    """The (lambda, lo, hi) that each column-generation solve passes
    `flow._result`; the star oracle calls its own import of `_result`."""
    real, seen = flow._result, []

    def spy(net, state, lam, lo, hi, *rest):
        seen.append((lam, lo, hi))
        return real(net, state, lam, lo, hi, *rest)
    monkeypatch.setattr(flow, "_result", spy)
    return seen


def assert_brackets_hold(brackets, ref):
    """`ref`, HiGHS's lambda, lies in each bracket [lo, hi] to within
    OPT_TOL * max(1, lambda)."""
    for lam, lo, hi in brackets:
        tol = OPT_TOL * max(1.0, lam)
        assert lo - tol <= ref <= hi + tol, (lam, lo, hi, ref)


class TestConcurrentFlow:
    def test_single_edge(self):
        net = TerminalNetwork.make(["s", "t"], ["s", "t"], [("s", "t", 10)])
        assert concurrent_flow(net, {("s", "t"): 1}).value == pytest.approx(10.0)

    def test_star_all_pairs(self):
        net = TerminalNetwork.make(
            ["v", "a", "b", "c"], ["a", "b", "c"],
            [("v", "a", 2), ("v", "b", 2), ("v", "c", 2)])
        d = {("a", "b"): 1, ("a", "c"): 1, ("b", "c"): 1}
        assert concurrent_flow(net, d).value == pytest.approx(1.0)

    def test_path_through_terminal(self):
        net = TerminalNetwork.make(["s", "t", "u"], ["s", "t", "u"],
                                   [("s", "t", 1), ("t", "u", 1)])
        d = DemandVector.of({("s", "u"): 1})
        assert concurrent_flow(net, d).value == pytest.approx(1.0)

    def test_homogeneity_exact(self):
        rng = random.Random(5)
        for _ in range(5):
            net = random_connected_net(rng, 8, 3)
            d = random_demand(rng, net)
            base = concurrent_flow(net, d).value
            for alpha in (0.5, 2.0, 7.0):
                scaled = concurrent_flow(net, d.scaled(alpha)).value
                assert abs(scaled - base / alpha) <= 1e-9 * max(1.0, base)

    def test_memo_result_is_frozen(self):
        net = TerminalNetwork.make(["s", "v", "t"], ["s", "t"],
                                   [("s", "v", 2), ("v", "t", 5)])
        res = concurrent_flow(net, {("s", "t"): 1})
        with pytest.raises(dataclasses.FrozenInstanceError):
            res.value = 123
        assert concurrent_flow(net, {("s", "t"): 1}).value == pytest.approx(2.0)

    def test_raw_net_with_parallel_edges_matches_make(self):
        edges = (("a", "m", 1), ("a", "m", 1), ("b", "m", 3))
        raw = TerminalNetwork(vertices=("a", "b", "m"), terminals=("a", "b"),
                              edges=edges)
        made = TerminalNetwork.make(raw.vertices, raw.terminals, edges)
        d = DemandVector.of({("a", "b"): 1})
        res = concurrent_flow(raw, d)
        assert res.value == max_flow(raw, "a", "b") == concurrent_flow(made, d).value == 2.0
        check_certificates(raw, d, res)

    def test_zero_demand_rejected(self):
        net = TerminalNetwork.make(["s", "t"], ["s", "t"], [("s", "t", 1)])
        with pytest.raises(FlowError):
            concurrent_flow(net, DemandVector.of({}))

    def test_strong_duality_and_feasibility(self):
        rng = random.Random(11)
        for _ in range(10):
            net = random_connected_net(rng, rng.randint(4, 12), rng.randint(2, 4))
            d = random_demand(rng, net)
            res = concurrent_flow(net, d)
            assert res.duality_gap <= 1e-6 * max(1.0, res.value)
            check_certificates(net, d, res)

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_independent_oracle(self, seed, cg_brackets):
        rng = random.Random(100 + seed)
        net = random_connected_net(rng, rng.randint(4, 11), rng.randint(2, 4))
        d = random_demand(rng, net)
        ours = concurrent_flow(net, d).value
        ref = scipy_lambda(net, d)
        assert ours == pytest.approx(ref, rel=1e-7, abs=1e-9)
        assert len(cg_brackets) == (flow._record(net).stars is None)
        assert_brackets_hold(cg_brackets, ref)

    @pytest.mark.parametrize("name", sorted(LARGE_VIEWS))
    def test_matches_independent_oracle_on_large_views(self, name, cg_brackets):
        seed, make = LARGE_VIEWS[name]
        rng = random.Random(seed)
        net = make(rng, seed)
        assert len(net.cut_view[1]) >= 30 and net.k >= 8
        assert flow._record(net).stars is None      # column generation solves it
        d = random_demand(rng, net)
        res = concurrent_flow(net, d)
        ref = scipy_lambda(net, d)
        assert res.value == pytest.approx(ref, rel=1e-7, abs=1e-9)
        assert res.duality_gap <= OPT_TOL
        assert len(cg_brackets) == 1
        assert_brackets_hold(cg_brackets, ref)
        check_certificates(net, d, res)

    @pytest.mark.parametrize("name", sorted(LARGE_VIEWS))
    def test_demand_scale(self, name):
        """Scaling the demand by s scales lambda by 1/s to within 1e-12 up
        to s = 1e7.  From 1e8 on the lengths fall below column generation's
        absolute tolerances (`FEAS_TOL`, the simplex's), pricing stops
        short, and the weak-duality end of the bracket makes the solve
        raise rather than return a wrong lambda."""
        seed, make = LARGE_VIEWS[name]
        rng = random.Random(seed)
        net = make(rng, seed)
        d = random_demand(rng, net)
        base = concurrent_flow(net, d).value
        for s in (1e-6, 1e-3, 1e3, 1e6, 1e7):
            assert concurrent_flow(net, d.scaled(s)).value * s == pytest.approx(base, rel=1e-12)
        for s in (1e8, 1e9):
            with pytest.raises(LPError, match="duality gap"):
                concurrent_flow(net, d.scaled(s))

    @pytest.mark.parametrize("k,n,seed", [(5, 30, 5), (4, 40, 0), (6, 60, 3)])
    def test_demand_scale_on_star_views(self, k, n, seed):
        """The star oracle under the certificate rule relative to lambda:
        scaling the demand by s scales lambda by 1/s to within 1e-12 up to
        s = 1e7.  Kelley's stop rule and its undemanded-entry check are
        relative to max(1, lambda), so further up a solve may stop at a
        bracket the rule rejects; it then raises, and never returns a
        wrong lambda (at 1e9 the first net raises, the second returns)."""
        net = gen_quasi_bipartite(k, n, seed)
        assert flow._record(net).stars is not None  # the star oracle solves it
        d = random_demand(random.Random(seed), net)
        base = concurrent_flow(net, d).value
        for s in (1e-6, 1e-3, 1e3, 1e6, 1e7):
            assert concurrent_flow(net, d.scaled(s)).value * s == pytest.approx(base, rel=1e-12)
        for s in (1e8, 1e9):
            try:
                value = concurrent_flow(net, d.scaled(s)).value
            except LPError as e:
                assert "duality gap" in str(e)
            else:
                assert value * s == pytest.approx(base, rel=1e-12)

    def test_gap_is_relative_to_a_tiny_lambda(self):
        """A demand 1e9 times its draw on a star view: the star oracle's
        lambda is 0.57% off the unscaled one / 1e9, with a bracket 4.7e-11
        wide.  Measured against max(1, lambda) that passed; against lambda
        it raises."""
        net = gen_quasi_bipartite(5, 30, 5)
        d = random_demand(random.Random(5), net).scaled(1e9)
        with pytest.raises(LPError, match="duality gap"):
            concurrent_flow(gen_quasi_bipartite(5, 30, 5), d)

    def test_down_monotonicity(self):
        rng = random.Random(21)
        for _ in range(6):
            net = random_connected_net(rng, 9, 3)
            d = random_demand(rng, net)
            lam = concurrent_flow(net, d).value
            # shrink one coordinate: at the same scale it stays routable
            entries = dict(d.items())
            pair = rng.choice(list(entries))
            entries[pair] *= rng.uniform(0.1, 0.9)
            smaller = DemandVector.of(entries)
            lam2 = concurrent_flow(net, smaller).value
            assert lam2 >= lam * (1 - 1e-9)


LIFT_FAMILIES = {
    "quasi-bipartite": lambda rng, seed: gen_quasi_bipartite(
        2 + seed % 5, rng.randint(8, 30), seed),
    "random-connected": lambda rng, seed: random_connected_net(
        rng, rng.randint(5, 13), rng.randint(2, 5)),
    "rational": lambda rng, seed: rational_net(rng, rng.randint(5, 12), rng.randint(2, 5)),
    "series-parallel": lambda rng, seed: gen_series_parallel(
        rng.randint(6, 20), 4, seed)[0],
    "treewidth": lambda rng, seed: gen_treewidth(
        rng.randint(4, 8), 24, 1 + seed % 3, seed)[0],
}


def assert_lifted(net, d):
    """The oracle's certificates hold on the network itself: λ equals the
    arc-flow LP's, both checks pass, sum(c * l) over the network's edges is
    λ, and every reported terminal distance is the network's shortest path
    under the lifted lengths."""
    res = concurrent_flow(net, d)
    assert res.value == pytest.approx(scipy_lambda(net, d), rel=1e-7, abs=1e-9)
    loads = check_certificates(net, d, res)
    lengths = res.dual.length_map()
    assert lengths.keys() == {(u, v) if u <= v else (v, u) for u, v, _ in net.edges}
    assert loads.keys() <= lengths.keys()
    cost = sum(float(net.cap(*e)) * l for e, l in lengths.items())
    assert abs(cost - res.value) <= OPT_TOL * max(1.0, res.value)
    assert res.dual.value == cost
    graph = nx.Graph()
    graph.add_nodes_from(net.vertices)
    graph.add_weighted_edges_from((u, v, l) for (u, v), l in lengths.items())
    for (s, t), dist in res.dual.dists:
        assert nx.dijkstra_path_length(graph, s, t) == pytest.approx(dist, rel=1e-9)
    return res


class TestLift:
    @pytest.mark.parametrize("family", sorted(LIFT_FAMILIES))
    def test_lifted_certificates_hold_on_the_network(self, family):
        vertices_in = vertices_out = 0
        for seed in range(24):
            rng = random.Random(900 + seed)
            net = LIFT_FAMILIES[family](rng, seed)
            vertices_in += len(net.vertices)
            vertices_out += len(net.cut_view[1])
            assert_lifted(net, random_demand(rng, net))
            # a second component: its pair has no path, in the reduction too
            cut_off = TerminalNetwork.make(
                net.vertices + ("~x0", "~x1"), net.terminals + ("~x1",),
                net.edges + (("~x0", "~x1", 1),), allow_disconnected=True)
            with pytest.raises(FlowError, match="no path"):
                concurrent_flow(cut_off, {(net.terminals[0], "~x1"): 1,
                                          net.terminals[:2]: 1})
        assert vertices_out < vertices_in

    def test_raw_net_with_parallel_edges(self):
        edges = (("a", "m", 1), ("a", "m", 1), ("b", "m", 3), ("c", "m", 2),
                 ("b", "c", 1), ("b", "c", 2), ("c", "w", 1), ("w", "a", 4))
        raw = TerminalNetwork(vertices=("a", "b", "c", "m", "w"),
                              terminals=("a", "b", "c"), edges=edges)
        assert raw.cut_view[1].keys() == {"a", "b", "c"}
        d = DemandVector.of({("a", "b"): 1, ("a", "c"): 2, ("b", "c"): 0.5})
        made = TerminalNetwork.make(raw.vertices, raw.terminals, edges)
        assert assert_lifted(raw, d).value == pytest.approx(concurrent_flow(made, d).value)

    def test_isolated_non_terminal(self):
        net = TerminalNetwork.make(["s", "t", "u", "v", "z"], ["s", "t", "u"],
                                   [("s", "v", 2), ("v", "t", 3), ("v", "u", 1),
                                    ("s", "t", "3/2")], allow_disconnected=True)
        assert "z" not in net.cut_view[1] and "v" not in net.cut_view[1]
        assert_lifted(net, DemandVector.of({("s", "t"): 1, ("t", "u"): 1}))

    def test_series_length_goes_to_the_smaller_capacity(self):
        net = TerminalNetwork.make(["s", "v", "w", "t"], ["s", "t"],
                                   [("s", "v", 2), ("v", "w", 5), ("w", "t", 2)])
        res = assert_lifted(net, DemandVector.of({("s", "t"): 1}))
        # v goes first: s-w (2) takes the length; then the tie at w gives
        # it to s, the first side in name order
        assert res.dual.length_map() == {("s", "v"): 1.0, ("v", "w"): 0.0,
                                         ("t", "w"): 0.0}

    def test_clipped_triangle_puts_no_length_on_the_clipped_side(self):
        net = TerminalNetwork.make(["a", "b", "c", "v"], ["a", "b", "c"],
                                   [("v", "a", 1), ("v", "b", 1), ("v", "c", 3)])
        res = assert_lifted(net, DemandVector.of({("a", "c"): 1, ("b", "c"): 1}))
        assert res.value == pytest.approx(1.0)
        lengths = res.dual.length_map()
        assert lengths[("c", "v")] == 0.0
        assert lengths[("a", "v")] + lengths[("b", "v")] == pytest.approx(1.0)

    def test_triangle_splits_lengths_by_gromov_products(self):
        net = TerminalNetwork.make(["a", "b", "c", "v"], ["a", "b", "c"],
                                   [("v", "a", 2), ("v", "b", 3), ("v", "c", 4)])
        res = assert_lifted(net, DemandVector.of({("b", "c"): 1}))
        assert res.value == pytest.approx(3.0)
        # cutting b off is the only min cut; its length lands on b's side
        l = res.dual.length_map()
        assert l == {("a", "v"): 0.0, ("b", "v"): 1.0, ("c", "v"): 0.0}
        dist = res.dual.dist_map()
        for x, y, z in ("abc", "bac", "cab"):
            gromov = (dist[_pair(x, y)] + dist[_pair(x, z)] - dist[_pair(y, z)]) / 2
            assert l[(x, "v")] == pytest.approx(gromov)

    def test_greedy_fill_keeps_flow_on_the_original_edge(self):
        # v is a series piece merged into the s-t edge, after the edge itself
        net = TerminalNetwork.make(["s", "v", "t", "u"], ["s", "t", "u"],
                                   [("s", "t", 4), ("s", "v", 1), ("v", "t", 1),
                                    ("t", "u", 1)])
        res = assert_lifted(net, DemandVector.of({("s", "u"): 1}))
        assert res.flow.arc_flows == ((("s", "u"), ((("s", "t"), 1.0),
                                                     (("t", "u"), 1.0))),)
        full = assert_lifted(net, DemandVector.of({("s", "t"): 1}))
        assert full.flow.arc_flows == ((("s", "t"), ((("s", "t"), 4.0),
                                                     (("s", "v"), 1.0),
                                                     (("v", "t"), 1.0))),)


def _pool_demands():
    """A net whose reduced view keeps adjacent non-terminals (22 of its 40
    vertices), so it is solved by column generation, which pools paths."""
    net = random_connected_net(random.Random(3), 40, 5)
    rng = random.Random(5)
    return net, [random_demand(rng, net) for _ in range(8)]


def _count_calls(monkeypatch, name):
    """Wrap flow.<name>, recording the calls: the pair for `_bfs_path`, the
    first argument otherwise."""
    real = getattr(flow, name)
    calls = []

    def counting(first, *args):
        calls.append(tuple(args) if name == "_bfs_path" else first)
        return real(first, *args)
    monkeypatch.setattr(flow, name, counting)
    return calls


def _memo_and_pool(net):
    """The oracle's memo and path pool on `net`, as plain copies."""
    state = flow._record(net)
    return dict(state.memo), {p: list(paths) for p, paths in state.pool.items()}


@pytest.mark.parametrize("star_path", [True, False])
def test_round_cap_raises_and_memoizes_nothing(monkeypatch, star_path):
    """A solve that needs a second simplex call raises once the cap is one
    call, on either method, and leaves no memo entry or pooled path."""
    if star_path:
        net = gen_quasi_bipartite(6, 30, seed=1)
        rng = random.Random(5)
        demands = [random_demand(rng, net) for _ in range(2)]
    else:
        net, demands = _pool_demands()
    d = next(d for d in demands if concurrent_flow(fresh(net), d).rounds > 1)
    assert (flow._record(net).stars is not None) == star_path
    monkeypatch.setattr(flow, "_MAX_SEPARATION_ROUNDS", 1)
    with pytest.raises(FlowError, match="did not converge"):
        concurrent_flow(net, d)
    assert _memo_and_pool(net) == ({}, {})


class TestPathPool:
    def test_order_and_history_do_not_change_lambda(self):
        net, demands = _pool_demands()
        assert flow._record(fresh(net)).stars is None
        forward = [concurrent_flow(net, d) for d in demands]

        again = fresh(net)
        backward = [concurrent_flow(again, d) for d in reversed(demands)][::-1]
        cold = [concurrent_flow(fresh(net), d) for d in demands]
        for f, b, c in zip(forward, backward, cold):
            assert f.value == pytest.approx(c.value, rel=1e-9)
            assert b.value == pytest.approx(c.value, rel=1e-9)
        # the pool is what makes the later solves short
        assert sum(r.rounds for r in forward[1:]) < sum(r.rounds for r in cold[1:])

    def test_warm_results_are_certified(self):
        net, demands = _pool_demands()
        for d in demands:
            res = concurrent_flow(net, d)
            assert res.duality_gap <= OPT_TOL
            check_certificates(net, d, res)

    def test_shape_and_start_paths_are_built_once_per_network(self, monkeypatch):
        """The shape and each pair's start path are built once per network,
        the lift not before a certificate is read and then once, whichever
        result reads it."""
        built = _count_calls(monkeypatch, "_shape_of")
        lifts = _count_calls(monkeypatch, "_lift_of")
        bfs = _count_calls(monkeypatch, "_bfs_path")
        net, demands = _pool_demands()
        results = [concurrent_flow(net, d) for d in demands]
        pairs = {p for d in demands for p in d.pairs()}
        assert built == [net.cut_view] and lifts == []
        assert sorted(bfs) == sorted(pairs)
        assert results[0].dual and results[1].flow and results[-1].dual
        assert concurrent_flow(net, demands[1]).dual      # a memo hit
        assert lifts == [net.vertices]
        state = flow._record(net)
        # the record holds the reduced shape, and its paths are reduced-net paths
        assert state.shape == flow._shape_of(net.cut_view)
        assert len(state.shape.arcs) < len(net.vertices)
        assert state.lift() == flow._lift_of(net.vertices, net.edges, net.reduction[1],
                                             state.shape.edges)
        for p, (path, rows) in state.starts.items():
            assert path == flow._bfs_path(state.shape.arcs, *p)
            assert rows == state.shape.rows(path)
        for paths in state.pool.values():
            assert all(rows == state.shape.rows(path) for path, rows in paths.items())

    def test_threads_keep_the_store_consistent(self, monkeypatch):
        rng = random.Random(8)
        nets = [random_connected_net(rng, 7, 3) for _ in range(4)]
        jobs = [(net, random_demand(rng, net)) for net in nets for _ in range(6)]
        errors = []
        barrier = threading.Barrier(4)

        def work(offset):
            try:
                for i in range(len(jobs)):
                    net, d = jobs[(i + offset) % len(jobs)]
                    concurrent_flow(net, d)
                # then the threads read each network's certificates at once,
                # half the primal, half the dual
                barrier.wait(timeout=60)
                for i, (net, d) in enumerate(jobs):
                    res = concurrent_flow(net, d)      # a memo hit
                    assert res.flow if (i + offset) % 2 else res.dual
            except Exception as exc:     # surfaced by the assertion below
                errors.append(exc)
        real_record, real_lift = flow._record, flow._lift_of
        lifts = []

        def slow_lift(vertices, *args):     # widen the window a second build needs
            lifts.append(vertices)
            time.sleep(0.01)
            return real_lift(vertices, *args)
        monkeypatch.setattr(flow, "_lift_of", slow_lift)

        def yielding_record(net):   # give other threads a turn mid-update
            state = real_record(net)
            time.sleep(0)
            return state
        monkeypatch.setattr(flow, "_record", yielding_record)
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(7 * i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads) and not errors
        # one lift per network, whichever thread read a certificate first
        assert sorted(map(id, lifts)) == sorted(id(net.vertices) for net in nets)
        # every job's result is memoized on its network, none lost to a race
        for net in nets:
            state = flow._record(net)
            assert set(state.memo) == {d.entries for n, d in jobs if n is net}
            assert state.shape == flow._shape_of(net.cut_view)
            assert state.lift() == flow._lift_of(net.vertices, net.edges, net.reduction[1],
                                                 state.shape.edges)
            assert all(start == (flow._bfs_path(state.shape.arcs, *p),
                                 state.shape.rows(start[0]))
                       for p, start in state.starts.items())
            assert all(rows == state.shape.rows(path)
                       for paths in state.pool.values() for path, rows in paths.items())

    def test_duality_gap_above_tolerance_raises(self, monkeypatch):
        """A simplex value 1% off its own solution fails the bracket check
        on either method: against the primal lambda and sum(c * l) on
        column generation, against Kelley's bracket on the star path."""
        skew_duality_gap(monkeypatch)
        net, demands = _pool_demands()
        star_net = gen_quasi_bipartite(5, 40, seed=3)
        for net, d, star_path in ((net, demands[0], False),
                                  (star_net, random_demand(random.Random(5), star_net), True)):
            assert (flow._record(net).stars is not None) == star_path
            with pytest.raises(LPError, match="duality gap"):
                concurrent_flow(net, d)
            assert _memo_and_pool(net) == ({}, {})     # nothing memoized, nothing pooled


class TestLazyPrimal:
    """Both certificates are lifted to the network only when read: the
    primal flow when `.flow` is, the dual when `.dual` is."""

    @pytest.fixture()
    def lifts(self, monkeypatch):
        real = flow._Lift.flows
        calls = []

        def counting(lift, shape, reduced):
            calls.append(len(reduced))
            return real(lift, shape, reduced)
        monkeypatch.setattr(flow._Lift, "flows", counting)
        return calls

    @pytest.fixture()
    def duals(self, monkeypatch):
        """The calls, by name, of the dual's lift (`_Lift.lengths`) and of
        `flow._dijkstra`, which also prices column generation's paths."""
        real_lengths, real_dijkstra = flow._Lift.lengths, flow._dijkstra
        calls = []

        def lengths(lift, reduced):
            calls.append("lengths")
            return real_lengths(lift, reduced)

        def dijkstra(arcs, lengths, source):
            calls.append("dijkstra")
            return real_dijkstra(arcs, lengths, source)
        monkeypatch.setattr(flow._Lift, "lengths", lengths)
        monkeypatch.setattr(flow, "_dijkstra", dijkstra)
        return calls

    def test_value_only_callers_never_lift(self, lifts):
        from flowsparse.merging import profile_bucket_sparsifier, ratio_type_sparsifier
        from flowsparse.sampling import sample_sparsifier
        from flowsparse.sketch import build_sketch
        from flowsparse.verify import certify
        build_sketch(gen_quasi_bipartite(3, 8, seed=22), 0.45)
        net = gen_quasi_bipartite(4, 20, seed=3)
        rng = random.Random(3)
        demands = [random_demand(rng, net) for _ in range(3)]
        candidates = [ratio_type_sparsifier(net, 0.25),
                      profile_bucket_sparsifier(net, 0.25, demands),
                      sample_sparsifier(net, 4, 1)]
        for cand in candidates:
            certify(net, cand.net, demands, cand.claimed_quality)
        assert _memo_and_pool(net)[0] and lifts == []

    def test_certify_and_the_sample_and_ratio_constructions_never_lift_the_dual(
            self, duals, monkeypatch):
        from flowsparse.merging import ratio_type_sparsifier
        from flowsparse.sampling import sample_sparsifier
        from flowsparse.verify import certify
        lifts = _count_calls(monkeypatch, "_lift_of")
        net = gen_quasi_bipartite(4, 20, seed=3)
        rng = random.Random(3)
        demands = [random_demand(rng, net) for _ in range(3)]
        for cand in (ratio_type_sparsifier(net, 0.25), sample_sparsifier(net, 4, 1)):
            certify(net, cand.net, demands, cand.claimed_quality)
            assert flow._record(cand.net).stars is not None     # the star path solved it
        assert _memo_and_pool(net)[0] and duals == [] and lifts == []

    def test_profile_buckets_take_no_distances(self, duals):
        """The profile buckets read the dual's lengths alone: on the star
        path, whose solves price no paths, the build lifts one dual per
        demand and runs no Dijkstra."""
        from flowsparse.merging import profile_bucket_sparsifier
        net = gen_quasi_bipartite(4, 20, seed=3)
        rng = random.Random(3)
        demands = [random_demand(rng, net) for _ in range(3)]
        profile_bucket_sparsifier(net, 0.25, demands)
        assert flow._record(net).stars is not None
        assert duals == ["lengths"] * len(demands)

    @pytest.mark.parametrize("star_path,pinned", [
        (True, "71ff02678a80f60b2f213749544d9c82c8a5ab0936b268f112cf93922240f68e"),
        (False, "7467c377f70e161c361905d1fe8e2f28500b8a824426147711470747314f1677")])
    def test_distances_are_taken_on_their_first_read(self, star_path, pinned, duals):
        """`.dual` takes no distance; the first read of `dists` takes them
        all, one Dijkstra per distinct source, and keeps them.  They hash
        as pinned from the `.dual` read that took them before, on both
        solve methods, and `dist_map()` holds the same values."""
        rng = random.Random(8)
        digest = hashlib.sha256()
        for i in range(4):
            net = gen_quasi_bipartite(4, 20, seed=i) if star_path else random_connected_net(rng, 12, 4)
            res = concurrent_flow(net, random_demand(rng, net))
            assert (flow._record(net).stars is not None) == star_path
            del duals[:]
            dual = res.dual
            assert duals == ["lengths"]
            dists = dual.dists
            sources = {s for s, _ in net.terminal_pairs()}
            assert duals.count("dijkstra") == len(sources)
            assert dual.dists is dists and dual.dist_map() == dict(dists)
            assert duals.count("dijkstra") == len(sources)
            digest.update(repr(dists).encode())
        assert digest.hexdigest() == pinned

    @pytest.fixture()
    def coverings(self, monkeypatch):
        """The calls of `stars._covering`, which gives the star path's
        reduced lengths; set before the solves, which keep the call."""
        from flowsparse import stars
        real, calls = stars._covering, []

        def counting(table, mu):
            calls.append(mu)
            return real(table, mu)
        monkeypatch.setattr(stars, "_covering", counting)
        return calls

    def test_certify_and_the_sample_and_ratio_constructions_take_no_covering_lengths(
            self, coverings):
        from flowsparse.merging import ratio_type_sparsifier
        from flowsparse.sampling import sample_sparsifier
        from flowsparse.verify import certify
        net = gen_quasi_bipartite(4, 20, seed=3)
        rng = random.Random(3)
        demands = [random_demand(rng, net) for _ in range(3)]
        for cand in (ratio_type_sparsifier(net, 0.25), sample_sparsifier(net, 4, 1)):
            certify(net, cand.net, demands, cand.claimed_quality)
            assert flow._record(cand.net).stars is not None     # the star path solved it
        assert flow._record(net).stars is not None and _memo_and_pool(net)[0]
        assert coverings == []

    def test_covering_lengths_are_taken_once_per_result(self, coverings):
        """On the star path the reduced lengths are taken on the first read
        of `.dual` alone, also across a memo hit; the profile buckets take
        them once per distinct demand."""
        from flowsparse.merging import profile_bucket_sparsifier
        net = gen_quasi_bipartite(4, 20, seed=3)
        rng = random.Random(3)
        demands = [random_demand(rng, net) for _ in range(3)]
        res = concurrent_flow(net, demands[0])
        assert flow._record(net).stars is not None and coverings == []
        first = res.dual
        assert res.dual is first and concurrent_flow(net, demands[0]).dual is first
        assert len(coverings) == 1
        check_certificates(net, demands[0], res)
        coverings.clear()
        profile_bucket_sparsifier(fresh(net), 0.25, demands + demands[::-1])
        assert len(coverings) == len(demands)

    def test_first_dual_reads_of_two_results_run_at_once(self, monkeypatch):
        """Two threads reading `.dual` of two results meet inside
        `stars._covering`."""
        from flowsparse import stars
        rng = random.Random(3)
        results = [concurrent_flow(net, random_demand(rng, net))
                   for net in (gen_quasi_bipartite(4, 20, seed=3),
                               gen_quasi_bipartite(5, 30, seed=2))]
        first_reads_meet(monkeypatch, stars, "_covering", lambda res: res.dual, results)
        assert all(res.dual.lengths for res in results)

    def test_profile_buckets_lift_one_dual_per_distinct_demand(self, duals):
        from flowsparse.merging import profile_bucket_sparsifier
        net = gen_quasi_bipartite(4, 20, seed=3)
        rng = random.Random(3)
        demands = [random_demand(rng, net) for _ in range(3)]
        profile_bucket_sparsifier(net, 0.25, demands + demands[::-1])
        assert duals.count("lengths") == len(demands)

    def test_dual_is_lifted_once_per_result(self, duals):
        net, demands = _pool_demands()
        res = concurrent_flow(net, demands[0])
        assert "lengths" not in duals
        first = res.dual
        assert concurrent_flow(net, demands[0]) is res      # a memo hit
        assert res.dual is first and concurrent_flow(net, demands[0]).dual is first
        assert duals.count("lengths") == 1
        check_certificates(net, demands[0], res)

    def test_flow_is_lifted_once_per_result(self, lifts):
        net, demands = _pool_demands()
        res = concurrent_flow(net, demands[0])
        assert lifts == []
        first = res.flow
        assert concurrent_flow(net, demands[0]) is res      # a memo hit
        assert res.flow is first and concurrent_flow(net, demands[0]).flow is first
        assert lifts == [len(demands[0].pairs())]
        check_certificates(net, demands[0], res)

    def test_memo_keeps_no_network_alive(self):
        """The record, with the memoized results no caller holds, is freed
        with its network; a result a caller holds still lifts its flow and
        its dual."""
        import gc
        import weakref
        net, demands = _pool_demands()
        res = concurrent_flow(net, demands[0])
        refs = [weakref.ref(x) for x in (net, flow._record(net),
                                         concurrent_flow(net, demands[1]))]
        del net
        gc.collect()
        assert [ref() for ref in refs] == [None] * 3
        assert res.flow.arc_flows        # the lifts need no network
        assert res.dual.lengths and res.dual.dists


def _pin_groups():
    """Oracle solves whose every output is pinned bit for bit, by group.

    A group's (net, demand) solves run in order on a network of its own,
    from an empty record, so the later qb demands start from a warm path
    pool."""
    groups = {}
    for seed in (11, 12, 13):
        net = gen_quasi_bipartite(5, 60, seed=seed)
        rng = random.Random(seed)
        groups[f"qb-{seed}"] = [(net, random_demand(rng, net)) for _ in range(4)]
    for k, n, seed in ((3, 8, 1), (3, 12, 2), (4, 16, 3), (4, 20, 4)):
        net = gen_quasi_bipartite(k, n, seed=seed)
        groups[f"small-qb-{k}-{n}"] = [(net, random_demand(random.Random(seed), net))]
    for k, n, seed in ((3, 10, 5), (3, 14, 6), (4, 12, 7), (4, 18, 8)):
        rng = random.Random(seed)
        net = random_connected_net(rng, n, k)
        groups[f"small-connected-{k}-{n}"] = [(net, random_demand(rng, net))]
    return groups


def _fingerprint(res):
    flows = repr((res.flow.arc_flows, res.dual.lengths, res.dual.dists))
    return (res.value.hex(), res.rounds, res.pivots,
            hashlib.sha256(flows.encode()).hexdigest()[:16])


def _pin_fingerprints():
    """Fingerprint every pinned oracle solve in a fresh interpreter
    with one BLAS thread: a multi-threaded matrix-vector product rounds
    differently."""
    tests = Path(__file__).resolve().parent
    env = child_env(**ONE_BLAS_THREAD)
    code = ("import json, test_flow as T\n"
            "out = {}\n"
            "for group, solves in T._pin_groups().items():\n"
            "    out[group] = [T._fingerprint(T.concurrent_flow(*solve))\n"
            "                  for solve in solves]\n"
            "print(json.dumps(out))\n")
    proc = subprocess.run([sys.executable, "-c", code], cwd=tests, env=env,
                          capture_output=True, text=True, check=True)
    return {group: [tuple(row) for row in rows]
            for group, rows in json.loads(proc.stdout).items()}


# (value.hex(), rounds, pivots, sha256 prefix of repr((arc flows, lengths,
# distances))) per solve with one BLAS thread.  Work may be cut from the
# simplex and the pricing only where these stay equal: a different pivot or
# rounding changes them.  The groups solve on the reduced view and return
# lifted certificates.  The qb-* and small-qb-4-* views are star-shaped, so
# the star oracle solves them (rounds are Kelley cuts, pivots the master's);
# the small-qb-3-* and small-connected-* ones, whose views keep the
# terminals alone or adjacent non-terminals, stay on column generation, and
# small-connected-4-12 keeps the bits of the unreduced solve.  Column
# generation adds one shortest path per violated pair and round, on those
# views and on the star oracle's terminal link graph, whose routing the
# qb-* and small-qb-4-* digests pin.
PINNED_SOLVES = {
    'qb-11': [
        ('0x1.0e9375daf6540p+5', 1, 6, '9ad0446b4ff90bd2'),
        ('0x1.93cc52f01ef7bp+4', 4, 15, 'f4c32b550c7d2fce'),
        ('0x1.3de6ec98cf84ap+4', 2, 7, '2ab6a2052a5bfe47'),
        ('0x1.4cdad5112ecbdp+4', 5, 18, '05400ee93837665b'),
    ],
    'qb-12': [
        ('0x1.2bfa1a5faea09p+4', 1, 5, 'd5d545934c43ee43'),
        ('0x1.1450f341c438ap+6', 3, 15, '150533f7527895ab'),
        ('0x1.a02baa4d500dep+4', 2, 13, '1f2965d59a976469'),
        ('0x1.c0f5e8c934da5p+4', 1, 7, 'f048d818002d3442'),
    ],
    'qb-13': [
        ('0x1.c3b29bf50a493p+4', 1, 4, '587cbbb4f2b27ad6'),
        ('0x1.9eb3abbaeb8d7p+4', 1, 5, 'fe462fe153168721'),
        ('0x1.9bc922bef3cccp+4', 1, 10, '07cef5ae9c9dd774'),
        ('0x1.2d653b70f22c4p+5', 5, 15, 'f13b25e523d5c6c5'),
    ],
    'small-connected-3-10': [
        ('0x1.6127870c96f7ep+4', 2, 3, '8fed99d8a20bac9e'),
    ],
    'small-connected-3-14': [
        ('0x1.bb16d124ce8fbp+2', 5, 10, 'd62fdf4f30176bb2'),
    ],
    'small-connected-4-12': [
        ('0x1.eb9efc64055b2p-3', 1, 6, '08d2f344932e900c'),
    ],
    'small-connected-4-18': [
        ('0x1.b3f9d73461425p+0', 2, 7, '7685c1dcfe8d32ef'),
    ],
    'small-qb-3-12': [
        ('0x1.7dd2bd1bd8e9bp+6', 2, 3, 'c5860e6ce4d4f15f'),
    ],
    'small-qb-3-8': [
        ('0x1.de2073ff9228ep+1', 2, 5, '0f5d6eb539a1d620'),
    ],
    'small-qb-4-16': [
        ('0x1.3a6a3589c6b06p+3', 1, 3, 'f9deb72d8d0f6e0f'),
    ],
    'small-qb-4-20': [
        ('0x1.e53592c735f2ap+4', 1, 3, '3653e55a5274a3e0'),
    ],
}

# Each solve's value.hex() as the unreduced oracle returned it, before the
# presolve: frozen, so that every re-recorded pin stays within 1e-9 of it.
UNREDUCED_VALUES = {
    'qb-11': ['0x1.0e9375daf6555p+5', '0x1.93cc52f01ef7ap+4', '0x1.3de6ec98cf848p+4', '0x1.4cdad5112ecbcp+4'],
    'qb-12': ['0x1.2bfa1a5faea07p+4', '0x1.1450f341c4394p+6', '0x1.a02baa4d500dbp+4', '0x1.c0f5e8c934da6p+4'],
    'qb-13': ['0x1.c3b29bf50a492p+4', '0x1.9eb3abbaeb8d6p+4', '0x1.9bc922bef3cc5p+4', '0x1.2d653b70f22c8p+5'],
    'small-connected-3-10': ['0x1.6127870c96f7ep+4'],
    'small-connected-3-14': ['0x1.bb16d124ce8fcp+2'],
    'small-connected-4-12': ['0x1.eb9efc64055b2p-3'],
    'small-connected-4-18': ['0x1.b3f9d73461425p+0'],
    'small-qb-3-12': ['0x1.7dd2bd1bd8e9cp+6'],
    'small-qb-3-8': ['0x1.de2073ff92290p+1'],
    'small-qb-4-16': ['0x1.3a6a3589c6b02p+3'],
    'small-qb-4-20': ['0x1.e53592c735f27p+4'],
}


@pytest.fixture(scope="module")
def pin_fingerprints():
    return _pin_fingerprints()


class TestPinnedOracle:
    @pytest.mark.parametrize("group", sorted(PINNED_SOLVES))
    def test_results_are_bit_identical(self, group, pin_fingerprints):
        assert pin_fingerprints[group] == PINNED_SOLVES[group]

    @pytest.mark.parametrize("group", sorted(PINNED_SOLVES))
    def test_values_match_the_unreduced_solve(self, group, pin_fingerprints):
        new = [float.fromhex(row[0]) for row in pin_fingerprints[group]]
        old = [float.fromhex(h) for h in UNREDUCED_VALUES[group]]
        assert len(new) == len(old)
        for a, b in zip(new, old):
            assert abs(a - b) <= 1e-9 * abs(b)
        if group == "small-connected-4-12":
            assert new == old

    def test_pin_covers_enough_solves(self):
        assert sum(map(len, PINNED_SOLVES.values())) >= 20
        assert PINNED_SOLVES.keys() == _pin_groups().keys() == UNREDUCED_VALUES.keys()

    def test_pivots_sum_the_simplex_calls(self, monkeypatch):
        import flowsparse.lp
        real = flowsparse.lp.simplex_min
        seen = []

        def counting(*args, **kwargs):
            out = real(*args, **kwargs)
            seen.append(out[5])
            return out
        monkeypatch.setattr(flowsparse.lp, "simplex_min", counting)
        net, demands = _pool_demands()
        res = concurrent_flow(net, demands[0])
        assert res.pivots == sum(seen) > 0 and len(seen) == res.rounds
        assert concurrent_flow(net, demands[0]).pivots == res.pivots   # memo hit
        assert len(seen) == res.rounds


def _pair_only(net, s, t):
    """The net with every terminal other than s and t removed."""
    others = net.terminal_set - {s, t}
    return TerminalNetwork.make(
        [v for v in net.vertices if v not in others], [s, t],
        [(u, v, c) for u, v, c in net.edges if u not in others and v not in others],
        allow_disconnected=True)


class TestRestrictedAgainstScipy:
    """The terminal-free (2-hop) concurrent flow of a HiGHS arc-flow LP on
    quasi-bipartite nets with independent terminals, against the closed-form
    2-hop max flows and the oracle's solve and dual on each pair's
    net without the other terminals."""

    @pytest.mark.parametrize("seed", range(100))
    def test_two_hop_and_dual(self, seed):
        rng = random.Random(500 + seed)
        k = 2 + seed % 5
        net = random_quasi_bipartite(rng, k, rng.randint(k + 3, 16))
        d = random_demand(rng, net)
        ref = scipy_lambda(net, d, terminal_free=True)
        flows = {p: (float(sum(per_v.values())),
                     {v: float(c) for v, c in per_v.items()})
                 for p, per_v in two_hop_split(net).items()}
        # a 2-hop flow is a flow of the whole net
        assert ref <= concurrent_flow(net, d).value * (1 + 1e-7) + 1e-9
        if any(flows[p][0] == 0 for p in d.pairs()):
            assert ref == pytest.approx(0, abs=1e-9)
        else:
            # each pair alone routes at most F_st; time-sharing the pairs'
            # max flows routes 1 / sum(d_st / F_st)
            assert ref <= min(d[p] and flows[p][0] / d[p] for p in d.pairs()) * (1 + 1e-7)
            assert ref >= 1 / sum(d[p] / flows[p][0] for p in d.pairs()) * (1 - 1e-7)
        for p in d.pairs():
            s, t = p
            sub = _pair_only(net, s, t)
            value, per_v = flows[p]
            if value == 0:
                with pytest.raises(FlowError):
                    concurrent_flow(sub, {p: 1})
                continue
            res = concurrent_flow(sub, {p: 1})
            assert res.value == pytest.approx(value, rel=1e-7)
            assert res.dual.value == pytest.approx(value, rel=1e-7)
            assert abs(res.dual.value - res.value) <= OPT_TOL * max(1.0, res.value)
            # each middle vertex carries its closed-form share min(c_sv, c_vt)
            loads = check_certificates(sub, {p: 1}, res)
            through = {v: loads.get(_pair(s, v), 0.0) for v in sub.adjacency[s]}
            assert through == pytest.approx({v: per_v.get(v, 0.0) for v in through},
                                            rel=1e-7, abs=1e-9)
            # the dual's distance is the least l_sv + l_vt over common neighbours
            lengths = res.dual.length_map()
            dist = min(lengths[_pair(s, v)] + lengths[_pair(v, t)]
                       for v in per_v)
            assert res.dual.dist_map()[p] == pytest.approx(dist, rel=1e-12)
            assert dist >= 1 - 1e-6


class TestSolutionSerialization:
    def test_unreachable_pair_distance_is_null(self):
        net = TerminalNetwork.make(["a", "b", "c", "v"], ["a", "b", "c"],
                                   [("a", "v", 1), ("v", "b", 1)],
                                   allow_disconnected=True)
        res = concurrent_flow(net, {("a", "b"): 1})
        dists = res.dual.dist_map()
        assert math.isinf(dists[("a", "c")])
        assert dists[("a", "b")] == pytest.approx(1.0)


class TestCuts:
    def test_single_edge_cut(self):
        net = TerminalNetwork.make(["s", "t"], ["s", "t"], [("s", "t", 10)])
        phi, cut = sparsest_cut(net, {("s", "t"): 1})
        assert phi == pytest.approx(10.0)

    def test_star_sparsest(self):
        net = TerminalNetwork.make(
            ["v", "a", "b", "c"], ["a", "b", "c"],
            [("v", "a", 2), ("v", "b", 2), ("v", "c", 2)])
        phi, cut = sparsest_cut(net, {("a", "b"): 1, ("a", "c"): 1, ("b", "c"): 1})
        assert phi == pytest.approx(1.0)
        assert cut.capacity == pytest.approx(2.0)
        assert cut.separated_demand == pytest.approx(2.0)

    def test_flow_leq_cut(self):
        rng = random.Random(71)
        for _ in range(10):
            net = random_connected_net(rng, rng.randint(4, 11), rng.randint(2, 4))
            d = random_demand(rng, net)
            phi, _ = sparsest_cut(net, d)
            lam = concurrent_flow(net, d).value
            assert phi >= lam * (1 - 1e-6)

    def test_size_guard_directs_to_terminal_mode(self):
        # the guard raises before enumerating anything; the brute-force
        # equality runs just past the default bound of 20 vertices, where
        # it enumerates 2^20 subsets (at 25 vertices, 2^24 take seconds
        # and over a GB)
        rng = random.Random(81)
        net = random_connected_net(rng, 25, 3)
        with pytest.raises(FlowError, match="terminal"):
            sparsest_cut(net, random_demand(rng, net))
        net = random_connected_net(rng, 21, 3)
        d = random_demand(rng, net)
        with pytest.raises(FlowError, match="terminal"):
            sparsest_cut(net, d)
        ratio, (A, B) = sparsest_terminal_cut(net, d)
        phi_true, _ = sparsest_cut(net, d, max_vertices=21)
        assert abs(ratio - phi_true) <= 1e-9

    def test_mincut_partition_star(self):
        net = TerminalNetwork.make(
            ["v", "a", "b", "c"], ["a", "b", "c"],
            [("v", "a", 2), ("v", "b", 2), ("v", "c", 2)])
        assert mincut_partition(net, ["a"], ["b", "c"]) == 2

    def test_mincut_partition_validates(self):
        net = TerminalNetwork.make(["s", "t"], ["s", "t"], [("s", "t", 10)])
        assert mincut_partition(net, ["s"], ["t"]) == 10
        with pytest.raises(FlowError):
            mincut_partition(net, ["s", "t"], [])
        with pytest.raises(FlowError):
            mincut_partition(net, ["s"], ["s", "t"])

    def test_mincut_partition_takes_a_str_side_as_one_terminal(self):
        net = TerminalNetwork.make(
            ["v", "t1", "t2", "t3"], ["t1", "t2", "t3"],
            [("v", "t1", 2), ("v", "t2", 3), ("v", "t3", 4), ("t1", "t2", 1)])
        assert mincut_partition(net, "t1", ["t2", "t3"]) == 3
        assert mincut_partition(net, ["t1", "t2"], "t3") == 4
        assert mincut_partition(net, "t2", {"t1", "t3"}) == 4
        with pytest.raises(FlowError, match="bipartition"):
            mincut_partition(net, "t1", "t2")

    @pytest.mark.parametrize("seed", range(30))
    def test_mincut_partition_against_networkx(self, seed):
        rng = random.Random(seed)
        k = 2 + seed % 5
        net = rational_net(rng, rng.randint(k, k + 8), k)
        for A, B in terminal_bipartitions(net.terminals):
            assert mincut_partition(net, A, B) == nx_set_flow(net, A, B)
