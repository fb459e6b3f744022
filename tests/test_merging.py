import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowsparse import (
    DemandVector,
    TerminalNetwork,
    VertexPartition,
    concurrent_flow,
)
from flowsparse.merging import (
    ZERO,
    MergeError,
    _gamma_exponents,
    _round_down_to_gamma,
    profile_bucket_sparsifier,
    ratio_type_sparsifier,
    refine_partitions,
    _pow_floor_exact,
)
from flowsparse.sketch import BudgetExceeded
from flowsparse.verify import disc_demands, random_demands
from flowsparse.generators import gen_quasi_bipartite

from conftest import random_demand


class TestClumpAndRefine:
    def test_refine_basic(self):
        p1 = VertexPartition.of([{"1", "2"}, {"3"}])
        p2 = VertexPartition.of([{"1"}, {"2", "3"}])
        ref = refine_partitions([p1, p2])
        assert sorted(sorted(b) for b in ref.blocks) == [["1"], ["2"], ["3"]]

    def test_refine_idempotent(self):
        p = VertexPartition.of([{"1", "2"}, {"3", "4"}])
        assert set(refine_partitions([p, p]).blocks) == set(p.blocks)

    def test_refine_with_singletons(self):
        p = VertexPartition.of([{"1", "2", "3"}])
        singles = VertexPartition.of([{"1"}, {"2"}, {"3"}])
        ref = refine_partitions([singles, p])
        assert set(ref.blocks) == set(singles.blocks)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.lists(st.integers(0, 3), min_size=6, max_size=6),
                    min_size=1, max_size=4))
    def test_refine_block_count_bound(self, labelings):
        elems = [f"x{i}" for i in range(6)]
        parts = []
        for labels in labelings:
            blocks: dict[int, set] = {}
            for e, l in zip(elems, labels):
                blocks.setdefault(l, set()).add(e)
            parts.append(VertexPartition.of(blocks.values()))
        ref = refine_partitions(parts)
        bound = 1
        for p in parts:
            bound *= len(p.blocks)
        assert len(ref.blocks) <= bound
        # refinement property: same refined block => same block everywhere
        for p in parts:
            owner = {v: i for i, b in enumerate(p.blocks) for v in b}
            for block in ref.blocks:
                assert len({owner[v] for v in block}) == 1


class TestProfileBuckets:
    def test_identical_capacity_rows_always_merge(self):
        net = TerminalNetwork.make(
            ["a", "b", "u", "w"], ["a", "b"],
            [("a", "u", 2), ("u", "b", 3), ("a", "w", 2), ("w", "b", 3)])
        ds = [DemandVector.of({("a", "b"): 1.0})]
        res = profile_bucket_sparsifier(net, 0.1, ds)
        assert len(res.net.vertices) == 3

    def test_single_middle_unchanged(self):
        net = TerminalNetwork.make(["a", "b", "u"], ["a", "b"],
                                   [("a", "u", 2), ("u", "b", 3)])
        ds = [DemandVector.of({("a", "b"): 1.0})]
        res = profile_bucket_sparsifier(net, 0.1, ds)
        assert len(res.net.vertices) == 3

    def test_quality_certified_on_grid(self):
        net = gen_quasi_bipartite(3, 16, seed=21)
        eps = 0.25
        ds = disc_demands(net, eps, 0.1)
        res = profile_bucket_sparsifier(net, eps, ds)
        rep_lower = [concurrent_flow(net, d).value /
                     concurrent_flow(res.net, d).value for d in ds]
        assert max(rep_lower) <= 1 + 1e-9   # merging only helps
        grid = random_demands(net, 25, 4)
        ratios = [concurrent_flow(res.net, d).value /
                  concurrent_flow(net, d).value for d in grid]
        assert max(ratios) <= (1 + 3 * eps) * (1 + 5 * eps)

    def test_default_demand_set_needs_small_eps(self):
        net = gen_quasi_bipartite(3, 10, seed=3)
        with pytest.raises(MergeError):
            profile_bucket_sparsifier(net, 0.25)   # default demands need eps < 1/8

    def test_demand_budget(self):
        net = gen_quasi_bipartite(3, 10, seed=3)
        ds = disc_demands(net, 0.01, 0.01)   # above the 500-demand budget
        assert len(ds) > 500
        with pytest.raises(BudgetExceeded):
            profile_bucket_sparsifier(net, 0.25, ds)

    def test_rejects_non_quasi_bipartite(self):
        net = TerminalNetwork.make(["a", "b", "u", "w"], ["a", "b"],
                                   [("a", "u", 1), ("u", "w", 1), ("w", "b", 1)])
        with pytest.raises(MergeError):
            profile_bucket_sparsifier(net, 0.1, [DemandVector.of({("a", "b"): 1})])

    def test_subdivides_terminal_edges_itself(self):
        net = TerminalNetwork.make(["a", "b", "u"], ["a", "b"],
                                   [("a", "b", 4), ("a", "u", 2), ("u", "b", 3)])
        ds = [DemandVector.of({("a", "b"): 1.0})]
        res = profile_bucket_sparsifier(net, 0.1, ds)
        assert res.net.terminals_independent()


class TestRatioTypes:
    def test_proportional_rows_merge_to_one(self):
        # two middles with exactly proportional capacity rows (powers of 1+eps)
        eps = Fraction(1, 4)
        q = 1 + eps
        net = TerminalNetwork.make(
            ["a", "b", "u", "w"], ["a", "b"],
            [("a", "u", q ** 2), ("u", "b", q), ("a", "w", q ** 5), ("w", "b", q ** 4)])
        res = ratio_type_sparsifier(net, eps)
        assert len(res.net.vertices) == 3

    def test_single_middle_shape_preserved(self):
        net = TerminalNetwork.make(["a", "b", "u"], ["a", "b"],
                                   [("a", "u", 2), ("u", "b", 3)])
        res = ratio_type_sparsifier(net, 0.25)
        assert len(res.net.vertices) == 3

    def test_never_loses_flow(self):
        rng = random.Random(33)
        net = gen_quasi_bipartite(4, 30, seed=14)
        res = ratio_type_sparsifier(net, 0.25)
        for _ in range(10):
            d = random_demand(rng, net)
            lam_g = concurrent_flow(net, d).value
            lam_h = concurrent_flow(res.net, d).value
            assert lam_h >= lam_g * (1 - 1e-9)

    def test_certified_quality_random_instance(self):
        net = gen_quasi_bipartite(4, 60, seed=15)
        eps = 0.25
        res = ratio_type_sparsifier(net, eps)
        grid = random_demands(net, 30, 5)
        ratios = [concurrent_flow(res.net, d).value /
                  concurrent_flow(net, d).value for d in grid]
        assert max(ratios) <= 1 + 5 * eps
        assert min(ratios) >= 1 - 1e-9

    def test_size_bound(self):
        net = gen_quasi_bipartite(4, 80, seed=16)
        eps = 0.25
        res = ratio_type_sparsifier(net, eps)
        k = net.k
        assert len(res.net.vertices) <= 2 ** k * (k * k / eps + 1) ** k + k

    def test_rounding_only_factor(self):
        rng = random.Random(44)
        net = gen_quasi_bipartite(3, 12, seed=17)
        eps = 0.25
        q = 1 + Fraction(eps)     # each capacity rounded down to a power of q
        rounded = TerminalNetwork.make(
            net.vertices, net.terminals,
            [(u, v, q ** _pow_floor_exact(c, q)) for u, v, c in net.edges],
            allow_disconnected=True)
        for _ in range(8):
            d = random_demand(rng, net)
            lam = concurrent_flow(net, d).value
            lam_r = concurrent_flow(rounded, d).value
            assert lam / (1 + eps) - 1e-9 <= lam_r <= lam + 1e-9 * lam

    def test_bucket_grouping_is_equivalence(self):
        # grouping by identical keys is reflexive/symmetric/transitive by
        # construction; check stability: same input twice -> same partition
        net = gen_quasi_bipartite(4, 25, seed=18)
        r1 = ratio_type_sparsifier(net, 0.25)
        r2 = ratio_type_sparsifier(net, 0.25)
        assert r1.net == r2.net


def _scan_gamma_exponents(eps, demand_values):
    """Reference: every exponent in a wide window, tested as the original
    loop tested each one (base**j in [eps*d, d] up to 1e-12 relative)."""
    base = 1.0 + eps
    exps = set()
    for d in demand_values:
        if d <= 0:
            continue
        top = round(math.log(d) / math.log(base))
        for j in range(top - 200, top + 3):
            if eps * d * (1 - 1e-12) <= base ** j <= d * (1 + 1e-12):
                exps.add(j)
    return sorted(exps)


def _scan_round_down(value, eps, exps):
    """Reference: the original linear scan over the sorted exponents."""
    if value <= 0:
        return ZERO
    best = None
    for j in exps:
        if (1.0 + eps) ** j <= value * (1 + 1e-12):
            best = j
        else:
            break
    return ZERO if best is None else best


def _values_near_powers(eps):
    """Exact powers of 1+eps, the floats next to them, and points 1e-13 and
    2e-12 (relative) to either side."""
    out = []
    for j in range(-40, 41, 3):
        p = (1.0 + eps) ** j
        out += [p, math.nextafter(p, math.inf), math.nextafter(p, 0.0),
                p * (1 + 1e-13), p * (1 - 1e-13), p * (1 + 2e-12), p * (1 - 2e-12)]
    return out


class TestGammaGrid:
    @pytest.mark.parametrize("eps", [0.05, 0.1, 0.25, 0.3])
    def test_gamma_exponents_match_the_scan(self, eps):
        values = _values_near_powers(eps)
        for d in values:
            assert _gamma_exponents(eps, [d]) == _scan_gamma_exponents(eps, [d]), d
        ds = values[::5] + [0.0, -1.0]
        assert _gamma_exponents(eps, ds) == _scan_gamma_exponents(eps, ds)

    @pytest.mark.parametrize("eps", [0.05, 0.1, 0.25, 0.3])
    def test_round_down_matches_the_scan(self, eps):
        gapped = list(range(-30, -20)) + list(range(-5, 3)) + list(range(20, 31))
        for exps in (list(range(-45, 46)), gapped, [7], []):
            for v in _values_near_powers(eps) + [0.0, -2.0, 1e-300, 1e300]:
                assert _round_down_to_gamma(v, eps, exps) == _scan_round_down(v, eps, exps), v
