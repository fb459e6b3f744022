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
    MergeError,
    clump,
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
    def test_clump_delegates_to_merge(self):
        net = TerminalNetwork.make(["a", "v1", "v2"], ["a"],
                                   [("a", "v1", 1), ("a", "v2", 2)])
        res = clump(net, VertexPartition.of([{"a"}, {"v1", "v2"}]),
                    claimed_quality=1.5)
        assert len(res.net.vertices) == 2
        assert res.claimed_quality == 1.5

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
        ds = disc_demands(net, 0.25, 0.1)
        with pytest.raises(BudgetExceeded):
            profile_bucket_sparsifier(net, 0.25, ds, dual_budget=2)

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
