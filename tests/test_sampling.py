import hashlib
import math
import random
import warnings
from fractions import Fraction

import networkx as nx
import pytest

from flowsparse import TerminalNetwork
from flowsparse.generators import gen_bounded_component, gen_quasi_bipartite
from flowsparse.network import components
from flowsparse.sampling import (
    SamplingError,
    plan_oversampling,
    sample_sparsifier,
    sampling_plan,
    unit_flows,
    unit_uniform,
)

from conftest import two_hop_split, with_prime_denominators


class TestTwoHopMaxflows:
    """The 2-hop max flows as `unit_flows` gives them: per-unit ints and
    pair totals at the integer view's scale."""

    def test_single_middle(self):
        net = TerminalNetwork.make(["s", "v", "t"], ["s", "t"],
                                   [("s", "v", 2), ("v", "t", 5)])
        scale, _, totals = unit_flows(net)
        assert totals == {("s", "t"): 2 * scale}

    def test_two_middles_sum(self):
        net = TerminalNetwork.make(
            ["s", "t", "u", "w"], ["s", "t"],
            [("s", "u", 2), ("u", "t", 5), ("s", "w", 3), ("w", "t", Fraction(7, 2))])
        scale, units, totals = unit_flows(net)
        assert scale == 2
        assert totals == {("s", "t"): 5 * scale}
        assert units == [(("u",), {("s", "t"): 2 * scale}),
                         (("w",), {("s", "t"): 3 * scale})]

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_networkx_without_other_terminals(self, seed):
        # with independent terminals on a quasi-bipartite net, the s-t paths
        # that avoid every other terminal are exactly the paths s-v-t
        net = gen_quasi_bipartite(4, random.Random(seed).randint(8, 20), seed)
        assert net.is_quasi_bipartite() and net.terminals_independent()
        scale, _, totals = unit_flows(net)
        for s, t in list(totals)[:3]:
            g = nx.Graph()
            g.add_nodes_from((s, t))
            others = net.terminal_set - {s, t}
            g.add_edges_from((u, v, {"capacity": c}) for u, v, c in net.edges
                             if u not in others and v not in others)
            assert nx.maximum_flow_value(g, s, t) == Fraction(totals[(s, t)], scale)

    def test_rejects_non_quasi_bipartite(self):
        # at w = 1 the two adjacent non-terminals are a unit too large
        net = TerminalNetwork.make(["s", "t", "u", "w"], ["s", "t"],
                                   [("s", "u", 1), ("u", "w", 1), ("w", "t", 1)])
        with pytest.raises(SamplingError):
            unit_flows(net)


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
        plan = sampling_plan(net, 6.0, 0)
        pmap = {u.unit_id: u.p for u in plan.units}
        draws = 3000
        for pair, per_v in list(two_hop_split(net).items())[:3]:
            fst = sum(per_v.values())
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
        # F_{st,v} / F_st), F_{st,v} = min(c_sv, c_vt) and F_st their sum,
        # its edges divided by p_v
        net = gen_quasi_bipartite(4, 30, seed=6)
        M, seed = 1.7, 11
        ratio: dict[str, float] = {}
        for per_v in two_hop_split(net).values():
            fst = sum(per_v.values())
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
        assert res.method == "sample" and math.isinf(res.claimed_quality)
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
# seeds 0-7, as given by the per-vertex planner over Fraction 2-hop flows.
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


def _fraction_plan(net, M, w):
    """sampling_plan's fields recomputed on Fractions: per unit its members,
    p_raw as float.hex and best pair, then the dropped vertices.  A unit's
    flow per pair is networkx's max flow over the unit's own edges with
    Fraction capacities, and its best pair the first of the largest shares."""
    pairs = net.terminal_pairs()
    units = []
    for comp in components(net, net.terminal_set):
        assert len(comp) <= w
        g = nx.Graph()
        g.add_edges_from((u, v, {"capacity": c}) for u, v, c in net.edges
                         if u in comp or v in comp)
        flows = {}
        for s, t in pairs:
            if s in g and t in g:
                f = nx.maximum_flow_value(g.subgraph(comp | {s, t}), s, t)
                if f > 0:
                    flows[(s, t)] = f
        units.append((tuple(sorted(comp)), flows))
    totals = {p: sum((f.get(p, 0) for _, f in units), Fraction(0)) for p in pairs}
    planned, dropped, ties = [], [], 0
    for members, flows in units:
        if not flows:
            dropped.extend(members)
            continue
        shares = {p: f / totals[p] for p, f in flows.items()}
        best = max(shares.values())
        pair = next(p for p, share in shares.items() if share == best)
        ties += sum(share == best for share in shares.values()) > 1
        planned.append((members, (M * float(best)).hex(), pair))
    return planned, tuple(dropped), ties


def _plan_fields(net, M, w):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        plan = sampling_plan(net, M, 0, w)
    assert all(u.p == min(1.0, u.p_raw) for u in plan.units)
    return ([(u.members, u.p_raw.hex(), u.best_pair) for u in plan.units],
            plan.dropped)


def _rotated_net(rng, k, w, bases):
    """`bases` random units of at most w vertices, each copied under every
    rotation of the k terminals, so that the pairs of one rotation orbit
    have equal totals; capacities take three values, so shares tie often."""
    caps = [Fraction(1, 3), Fraction(2, 7), Fraction(5, 11)]
    terms = [f"t{i}" for i in range(k)]
    edges = []
    for b in range(bases):
        size = rng.randint(1, w)
        inner = [(i, rng.randrange(i), rng.choice(caps)) for i in range(1, size)]
        anchors = [(rng.randrange(size), a, rng.choice(caps))
                   for a in rng.sample(range(k), rng.randint(2, k))]
        for r in range(k):
            edges += [(f"u{b}_{r}_{i}", f"u{b}_{r}_{j}", c) for i, j, c in inner]
            edges += [(f"u{b}_{r}_{i}", terms[(a + r) % k], c) for i, a, c in anchors]
    inner_vs = sorted({v for e in edges for v in e[:2]} - set(terms))
    return TerminalNetwork.make(terms + inner_vs, terms, edges,
                                allow_disconnected=True)


class TestIntegerPlanner:
    """sampling_plan on ints against the same plan on Fractions, on nets the
    pins do not reach."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("w", [1, 3])
    def test_prime_denominators_match_fractions(self, w, seed):
        rng = random.Random(4500 + seed)
        base = (gen_quasi_bipartite(4, 22, seed) if w == 1
                else gen_bounded_component(4, 24, 3, seed))
        # "z" hangs off one terminal, so it carries no flow and is dropped
        base = TerminalNetwork.make(base.vertices + ("z",), base.terminals,
                                    list(base.edges) + [("z", "t0", 1)])
        net = with_prime_denominators(rng, base)
        assert net.integer_view[0] > 10 ** 17
        for M in (8, 11662.687043232918):
            planned, dropped, _ = _fraction_plan(net, M, w)
            assert dropped == ("z",)
            assert _plan_fields(net, M, w) == (planned, dropped)

    @pytest.mark.parametrize("w", [1, 3])
    def test_tied_shares_go_to_the_first_pair(self, w):
        net = _rotated_net(random.Random(45 + w), 4, w, 12)
        for M in (0.4, 8):
            planned, dropped, ties = _fraction_plan(net, M, w)
            assert ties > 0
            assert _plan_fields(net, M, w) == (planned, dropped)


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
