import hashlib
import math
import random
import warnings
from fractions import Fraction

import networkx as nx
import pytest

from flowsparse import TerminalNetwork
from flowsparse.generators import gen_bounded_component, gen_quasi_bipartite
from flowsparse.sampling import (
    SamplingError,
    plan_oversampling,
    sample_sparsifier,
    sampling_plan,
    two_hop_maxflows,
    unit_uniform,
)


class TestTwoHopMaxflows:
    def test_single_middle(self):
        net = TerminalNetwork.make(["s", "v", "t"], ["s", "t"],
                                   [("s", "v", 2), ("v", "t", 5)])
        flows = two_hop_maxflows(net)
        assert flows[("s", "t")][0] == 2

    def test_two_middles_sum(self):
        net = TerminalNetwork.make(
            ["s", "t", "u", "w"], ["s", "t"],
            [("s", "u", 2), ("u", "t", 5), ("s", "w", 3), ("w", "t", 3)])
        fst, per_v = flows = two_hop_maxflows(net)[("s", "t")]
        assert fst == 5
        assert per_v == {"u": 2, "w": 3}

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_networkx_without_other_terminals(self, seed):
        # with independent terminals on a quasi-bipartite net, the s-t paths
        # that avoid every other terminal are exactly the paths s-v-t
        net = gen_quasi_bipartite(4, random.Random(seed).randint(8, 20), seed)
        assert net.is_quasi_bipartite() and net.terminals_independent()
        flows = two_hop_maxflows(net)
        for (s, t), (fst, _) in list(flows.items())[:3]:
            g = nx.Graph()
            g.add_nodes_from((s, t))
            others = net.terminal_set - {s, t}
            g.add_edges_from((u, v, {"capacity": c}) for u, v, c in net.edges
                             if u not in others and v not in others)
            assert nx.maximum_flow_value(g, s, t) == fst

    def test_rejects_non_quasi_bipartite(self):
        net = TerminalNetwork.make(["s", "t", "u", "w"], ["s", "t"],
                                   [("s", "u", 1), ("u", "w", 1), ("w", "t", 1)])
        with pytest.raises(SamplingError):
            two_hop_maxflows(net)


class TestPlan:
    def test_single_middle_ratio_one(self):
        net = TerminalNetwork.make(["s", "v", "t"], ["s", "t"],
                                   [("s", "v", 2), ("v", "t", 5)])
        plan = sampling_plan(net, 0.7, 1)
        (unit,) = plan.units
        assert unit.p_raw == pytest.approx(0.7)
        assert unit.p == pytest.approx(0.7)
        plan_big = sampling_plan(net, 3.0, 1)
        assert plan_big.units[0].p == 1.0

    def test_identical_middles_half_ratio(self):
        net = TerminalNetwork.make(
            ["s", "t", "u", "w"], ["s", "t"],
            [("s", "u", 2), ("u", "t", 2), ("s", "w", 2), ("w", "t", 2)])
        plan = sampling_plan(net, 1.0, 1)
        for unit in plan.units:
            assert unit.p_raw == pytest.approx(0.5)

    def test_probability_sum_bound(self):
        for seed in range(5):
            net = gen_quasi_bipartite(4, 30, seed)
            M = 2.5
            plan = sampling_plan(net, M, 0)
            assert sum(u.p_raw for u in plan.units) <= M * net.k ** 2

    def test_flowless_vertex_dropped_with_warning(self):
        net = TerminalNetwork.make(
            ["s", "t", "u", "w"], ["s", "t"],
            [("s", "u", 2), ("u", "t", 2), ("s", "w", 1)])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            plan = sampling_plan(net, 1.0, 0)
        assert plan.dropped == ("w",)
        assert any("2-hop" in str(w.message) for w in caught)

    def test_rejects_nonpositive_M(self):
        net = TerminalNetwork.make(["s", "v", "t"], ["s", "t"],
                                   [("s", "v", 1), ("v", "t", 1)])
        with pytest.raises(SamplingError):
            sampling_plan(net, 0.0, 1)

    @pytest.mark.parametrize("M", [math.nan, math.inf])
    @pytest.mark.parametrize("w", [1, 2])
    def test_rejects_non_finite_M(self, M, w):
        # a NaN or infinite M kept every vertex and wrote NaN or Infinity
        # into the sample's params
        net = TerminalNetwork.make(["s", "v", "t"], ["s", "t"],
                                   [("s", "v", 1), ("v", "t", 1)])
        with pytest.raises(SamplingError, match="finite"):
            sampling_plan(net, M, 1, w)


class TestSample:
    def test_all_kept_identity(self):
        # every unit kept at p = 1: the network itself, with its flow record,
        # equal to the network the kept vertices and unscaled edges rebuild
        net = gen_quasi_bipartite(4, 25, seed=3)
        res = sample_sparsifier(net, 1e9, 7)
        assert res.net is net
        assert TerminalNetwork.make(net.vertices, net.terminals, list(net.edges),
                                    allow_disconnected=True) == net

    def test_seed_reproducibility(self):
        net = gen_quasi_bipartite(5, 40, seed=4)
        r1 = sample_sparsifier(net, 2.0, 42)
        r2 = sample_sparsifier(net, 2.0, 42)
        assert r1.net == r2.net
        r3 = sample_sparsifier(net, 2.0, 43)
        assert r1.net != r3.net or True   # different seeds may collide rarely

    def test_substreams_insensitive_to_other_vertices(self):
        # dropping one vertex from the instance does not change other draws
        assert unit_uniform(5, "v1") == unit_uniform(5, "v1")
        assert unit_uniform(5, "v1") != unit_uniform(6, "v1")

    def test_unbiased_estimator(self):
        # E[I_v/p_v * F_stv] = F_stv; check the empirical mean over draws
        net = gen_quasi_bipartite(4, 30, seed=5)
        flows = two_hop_maxflows(net)
        plan = sampling_plan(net, 6.0, 0)
        pmap = {u.unit_id: u.p for u in plan.units}
        draws = 3000
        for pair, (fst, per_v) in list(flows.items())[:3]:
            if fst == 0:
                continue
            total = 0.0
            for i in range(draws):
                acc = 0.0
                for v, share in per_v.items():
                    p = pmap.get(v, 0.0)
                    if p > 0 and unit_uniform(i * 7919 + 13, v) < p:
                        acc += float(share) / p
                total += acc
            assert total / draws == pytest.approx(float(fst), rel=0.03)


class TestGrouped:
    def test_w1_reduces_to_vertex_sampling(self):
        # at w = 1 each unit is one vertex v, kept with p_v = min(1, M * max_st
        # F_{st,v} / F_st) as two_hop_maxflows gives them, its edges divided
        # by p_v
        net = gen_quasi_bipartite(4, 30, seed=6)
        M, seed = 1.7, 11
        ratio: dict[str, float] = {}
        for fst, per_v in two_hop_maxflows(net).values():
            for v, share in per_v.items():
                ratio[v] = max(ratio.get(v, 0.0), float(share / fst))
        p = {v: min(1.0, M * r) for v, r in ratio.items()}
        kept = {v for v, pv in p.items() if unit_uniform(seed, v) < pv}
        assert 0 < len(kept) < len(p) and min(p.values()) < 1
        ts = net.terminal_set
        edges = [(a, b, c / Fraction(p[v])) for a, b, c in net.edges
                 for v in [b if a in ts else a] if v in kept]
        expected = TerminalNetwork.make(sorted(ts | kept), net.terminals,
                                        edges, allow_disconnected=True)
        assert sample_sparsifier(net, M, seed).net == expected

    def test_single_component_probability(self):
        net = TerminalNetwork.make(
            ["s", "t", "u", "w"], ["s", "t"],
            [("s", "u", 2), ("u", "w", 2), ("w", "t", 2)])
        plan = sampling_plan(net, 0.4, 1, 2)
        (unit,) = plan.units
        assert unit.p == pytest.approx(0.4)   # only component, ratio 1
        plan2 = sampling_plan(net, 5.0, 1, 2)
        assert plan2.units[0].p == 1.0

    def test_component_cut_value(self):
        # F for a path component s-u-w-t is the bottleneck min cut
        net = TerminalNetwork.make(
            ["s", "t", "u", "w"], ["s", "t"],
            [("s", "u", 5), ("u", "w", 1), ("w", "t", 5)])
        plan = sampling_plan(net, 1.0, 1, 2)
        assert plan.units[0].p_raw == pytest.approx(1.0)  # ratio 1 (only comp)
        net2 = gen_bounded_component(3, 16, 3, seed=7)
        sampling_plan(net2, 1.0, 1, 3)   # must not raise

    def test_size_guard(self):
        net = gen_bounded_component(3, 16, 3, seed=8)
        with pytest.raises(SamplingError):
            sampling_plan(net, 1.0, 1, 1)

    def test_internal_edges_scaled_once(self):
        net = TerminalNetwork.make(
            ["s", "t", "u", "w"], ["s", "t"],
            [("s", "u", 2), ("u", "w", 2), ("w", "t", 2)])
        res = sample_sparsifier(net, 0.4, seed=2, w=2)
        assert len(res.net.vertices) == 4    # seed 2 draws 0.167 < p = 0.4
        factor = Fraction(1) / Fraction(0.4)
        assert res.net.cap("u", "w") == Fraction(2) * factor
        assert res.net.cap("s", "u") == Fraction(2) * factor

    def test_result_fields(self):
        net = gen_bounded_component(4, 24, 3, seed=5)
        res = sample_sparsifier(net, 2, 5, 3)
        assert res.method == "sample" and math.isnan(res.claimed_quality)
        params = res.params_dict()
        assert sorted(params) == ["M", "kept_units", "seed", "units", "w"]
        assert (params["M"], params["seed"], params["w"]) == (2.0, 5, 3)
        assert 0 < params["kept_units"] < params["units"]
        assert res.notes == (
            "component-level importance sampling",
            "internal component edges scaled like terminal-incident ones")
        vertex = sample_sparsifier(gen_quasi_bipartite(4, 24, 5), 2, 5)
        assert sorted(vertex.params_dict()) == ["M", "kept_units", "seed", "units"]
        assert vertex.notes == ("vertex-level importance sampling",)

    def test_grouped_preserves_flow_when_all_kept(self):
        net = gen_bounded_component(4, 20, 3, seed=9)
        res = sample_sparsifier(net, 1e9, 1, 3)
        assert res.net is net


# sha256 of the reprs of sampling_plan(gen_bounded_component(4, 24, w, seed),
# M, seed, w) over seeds 0-7, as given by cutting each (component, pair)
# subnetwork from the whole edge list.
PINNED_GROUPED_PLANS = {
    (1, 0.4): "2db99b83660a9a730b94bea0dbd7c3c70bbd1450db7fe449a4a16620d35a977a",
    (1, 2): "f8606f0bc1601565436f91d17a2aa1f02d51b9b00ff53f8bdba8c2e5ef341fb4",
    (1, 8): "e87e383844d1581627de60201a8b42e81ea29bcabea72be236541ca348a61a2e",
    (3, 0.4): "5728276aced142db6c8e0e596ab105fc5f3832228e1c344ac18c06f2c1f4400f",
    (3, 2): "0486e6b8a1af4542b4d9653c468afdfd4472595fb3f629b727b6ab2945b24a14",
    (3, 8): "ebfe1e637a9670f2d619ba8e901fca451c8b33d22235daf72ce610a436156b65",
}


@pytest.mark.parametrize("w, M", sorted(PINNED_GROUPED_PLANS))
def test_grouped_plans_are_pinned(w, M):
    digest = hashlib.sha256()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for seed in range(8):
            net = gen_bounded_component(4, 24, w, seed)
            digest.update(repr(sampling_plan(net, M, seed, w)).encode())
    assert digest.hexdigest() == PINNED_GROUPED_PLANS[(w, M)]


def _canonical_fields(net: TerminalNetwork) -> str:
    return repr((net.vertices, net.terminals,
                 tuple((a, b, f"{c.numerator}/{c.denominator}")
                       for a, b, c in net.edges)))


# sha256 of the canonical fields (capacities as p/q) of
# sample_sparsifier(gen_bounded_component(4, 24, w, seed), M, seed, w).net
# over seeds 0-7, as given by the component-level sparsifier before vertex
# and component sampling were one function.
PINNED_GROUPED_SAMPLES = {
    (1, 0.4): "eba94925a85c94ab90b6aedf8fc6e2169e3730b348149cd3aba481da550f745b",
    (1, 2): "5fdbe9d372ee9c7849b8ecba775340e0b49abf086c0416a366d0a8e05cc4f64f",
    (3, 0.4): "453e879d3e0105cad84496368e01382b1ae2f8a1ce2a45d2164e01e8e36a9a7b",
    (3, 2): "9386ab9267ec4cb54c068776cd0f8a2840f760939c0312ce49ae8bb24505e21c",
}


@pytest.mark.parametrize("w, M", sorted(PINNED_GROUPED_SAMPLES))
def test_grouped_samples_are_pinned(w, M):
    digest = hashlib.sha256()
    dropped = scaled = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for seed in range(8):
            net = gen_bounded_component(4, 24, w, seed)
            res = sample_sparsifier(net, M, seed, w)
            dropped += len(res.net.vertices) < len(net.vertices)
            scaled += res.net.edges != net.edges
            digest.update(_canonical_fields(res.net).encode())
    assert dropped and scaled       # the pins reach deletion and rescaling
    assert digest.hexdigest() == PINNED_GROUPED_SAMPLES[(w, M)]


def _vertex_pin_net(seed: int) -> TerminalNetwork:
    """gen_quasi_bipartite(4, 24, seed); an odd seed adds an edge between
    each two consecutive terminals and an isolated non-terminal "z"."""
    net = gen_quasi_bipartite(4, 24, seed)
    if seed % 2 == 0:
        return net
    ts = net.terminals
    edges = list(net.edges) + [(a, b, seed) for a, b in zip(ts, ts[1:])]
    return TerminalNetwork.make(net.vertices + ("z",), ts, edges,
                                allow_disconnected=True)


# sha256 of the reprs of sampling_plan(_vertex_pin_net(seed), M, seed) over
# seeds 0-7, as given by the per-vertex planner over two_hop_maxflows.
PINNED_VERTEX_PLANS = {
    0.4: "d2732f51babaa1dc2c45dadf8ec8087b836f22a888527137eccef0fdac83d197",
    2: "77af841d046338dd0762a55c3d5114bf91a951a503e3bed567688b3837d17d26",
    8: "52bc16b4d4eef671740e74ac32e77c01bcafe6ff27d5fccdac28c580ca107cd9",
}


@pytest.mark.parametrize("M", sorted(PINNED_VERTEX_PLANS))
def test_vertex_plans_are_pinned(M):
    digest = hashlib.sha256()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for seed in range(8):
            plan = sampling_plan(_vertex_pin_net(seed), M, seed)
            assert ("z" in plan.dropped) == (seed % 2 == 1)
            digest.update(repr(plan).encode())
    assert sum("2-hop" in str(w.message) for w in caught) == 4
    assert digest.hexdigest() == PINNED_VERTEX_PLANS[M]


class TestChernoffPlanner:
    def test_planner_inversion(self):
        rep = plan_oversampling(0.5, 5, 0.1)
        # the recommended M drives the union-bounded lower-tail failure to
        # exactly the target
        assert rep.predicted_failure_lower == pytest.approx(0.1, rel=1e-6)
        assert rep.eta == pytest.approx(0.5 / 25)
        assert rep.M > 0
        # reported alongside: the asymptotic form at unit constant
        assert rep.asymptotic_reference_M > 0

    def test_planner_monotone_in_target(self):
        strict = plan_oversampling(0.5, 5, 0.01)
        loose = plan_oversampling(0.5, 5, 0.2)
        assert strict.M > loose.M
