import math
import random

import numpy as np
import pytest

from flowsparse import DemandVector, TerminalNetwork
from flowsparse.flow import concurrent_flow
from flowsparse.sketch import (
    BudgetExceeded,
    DemandSketch,
    GridCore,
    HullCore,
    SketchError,
    build_sketch,
    grid_demands,
)

from conftest import random_connected_net, random_demand


def single_edge(cap=10):
    return TerminalNetwork.make(["s", "t"], ["s", "t"], [("s", "t", cap)])


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
        demands = grid_demands(sk, limit=100000)
        assert demands, "dictionary should not be empty on a connected net"
        k = sk.k
        pidx = sk.pair_index()
        sample = random.Random(1).sample(demands, min(25, len(demands)))
        for d in sample:
            lam = concurrent_flow(net, d).value
            assert lam >= 1.0 - 1e-6
            for p, v in d.items():
                L = sk.maxflows[pidx[p]]
                assert sk.eps_internal / k**2 * L * (1 - 1e-9) <= v <= L * (1 + 1e-9)
                j = round(math.log(v) / math.log(sk.base))
                assert v == pytest.approx(sk.base ** j, rel=1e-9)

    def test_storage_bound(self):
        rng = random.Random(5)
        net = random_connected_net(rng, 6, 3)
        sk = build_sketch(net, 0.3)
        assert math.log(max(1, sk.stored_entries)) <= sk.storage_bound_log()

    def test_budget_fallback_to_hull(self, monkeypatch):
        rng = random.Random(6)
        net = random_connected_net(rng, 8, 3)
        monkeypatch.setenv("FLOWSPARSE_BUDGET", "10")   # grid cannot fit
        sk = build_sketch(net, 0.25)
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
