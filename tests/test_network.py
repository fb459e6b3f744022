import math
import pickle
import random
from collections.abc import Mapping
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowsparse import (
    DemandVector,
    NetworkError,
    TerminalNetwork,
    merge_vertices,
    phi_merge,
)
from flowsparse.flow import concurrent_flow, max_flow
from flowsparse.network import _pair, components, terminal_bipartitions

from conftest import random_connected_net, random_demand


def net_of(vertices, terminals, edges, **kw):
    return TerminalNetwork.make(vertices, terminals, edges, **kw)


# the two ways to build a network; make also checks connectivity
BUILDERS = {
    "constructor": TerminalNetwork,
    "make": lambda v, t, e: TerminalNetwork.make(v, t, e, allow_disconnected=True),
}

INVALID = {
    "self-loop": (["a", "b"], ["a"], [("a", "b", 1), ("a", "a", 1)]),
    "single-vertex-self-loop": (["a"], ["a"], [("a", "a", 1)]),
    "negative-capacity": (["a", "b"], ["a"], [("a", "b", -1)]),
    "negative-fraction": (["a", "b"], ["a"], [("a", "b", Fraction(-1, 3))]),
    "negative-float": (["a", "b"], ["a"], [("a", "b", -0.5)]),
    "negative-string": (["a", "b"], ["a"], [("a", "b", "-2/7")]),
    "duplicate-vertex": (["a", "b", "a"], ["a"], [("a", "b", 1)]),
    "duplicate-terminal": (["a", "b"], ["a", "a"], [("a", "b", 1)]),
    "unknown-terminal": (["a", "b"], ["z"], [("a", "b", 1)]),
    "unknown-endpoint": (["a", "b"], ["a"], [("a", "z", 1)]),
}


class TestConstruction:
    def test_parallel_edges_summed(self):
        net = net_of(["s", "t"], ["s", "t"], [("s", "t", 3), ("s", "t", 4)])
        assert net.edges == (("s", "t", Fraction(7)),)

    def test_parallel_and_repeated_edges_sum_exactly(self):
        third = Fraction(1, 3)
        net = TerminalNetwork(["a", "b", "c"], ["a", "c"],
                              [("a", "b", third), ("b", "a", "1/6"), ("a", "b", third),
                               ("b", "c", 0.25), ("c", "b", 2), ("c", "b", 0)])
        assert net.edges == (("a", "b", Fraction(5, 6)), ("b", "c", Fraction(9, 4)))
        assert all(type(c) is Fraction for _, _, c in net.edges)

    @pytest.mark.parametrize("cap", [Fraction(22, 7), 3, "5/2", 0.75])
    def test_single_edge_keeps_its_capacity(self, cap):
        net = TerminalNetwork(["a", "b"], ["a", "b"], [("b", "a", cap)])
        (_, _, got), = net.edges
        assert type(got) is Fraction and got == Fraction(cap)
        if isinstance(cap, Fraction):
            assert got is cap

    def test_zero_capacity_edge_removed(self):
        net = net_of(["s", "t", "u"], ["s", "t"],
                     [("s", "t", 5), ("s", "u", 0)], allow_disconnected=True)
        assert all(c > 0 for _, _, c in net.edges)
        assert net.cap("s", "u") == 0

    @pytest.mark.parametrize("builder", sorted(BUILDERS))
    @pytest.mark.parametrize("zero", [0, -0.0, Fraction(0)], ids=repr)
    def test_zero_capacities_dropped_in_every_form(self, builder, zero):
        net = BUILDERS[builder](["a", "b", "c"], ["a", "b"],
                                [("a", "b", 2), ("b", "c", zero), ("c", "b", zero)])
        assert net.edges == (("a", "b", Fraction(2)),)

    def test_canonical_form_is_a_fixed_point(self):
        net = net_of(["a", "b", "c"], ["a", "b"],
                     [("a", "b", 2), ("b", "c", 3), ("a", "c", 1)])
        assert TerminalNetwork(net.vertices, net.terminals, net.edges) == net

    @pytest.mark.parametrize("builder", sorted(BUILDERS))
    def test_builds_the_canonical_form(self, builder):
        net = BUILDERS[builder](
            ["v", "t", "z", "s"], ["t", "s"],
            [("v", "s", 1), ("t", "v", "3/2"), ("s", "v", 0.5), ("z", "s", 0),
             ("t", "s", 2), ("v", "t", Fraction(1, 2)), ("v", "z", 0)])
        assert net.vertices == ("s", "t", "v", "z")
        assert net.terminals == ("t", "s")
        assert net.edges == (("s", "t", Fraction(2)), ("s", "v", Fraction(3, 2)),
                             ("t", "v", Fraction(2)))
        assert all(type(c) is Fraction for _, _, c in net.edges)
        other = next(b for name, b in BUILDERS.items() if name != builder)
        assert net == other(net.vertices[::-1], net.terminals, net.edges[::-1])

    @pytest.mark.parametrize("builder", sorted(BUILDERS))
    @pytest.mark.parametrize("case", sorted(INVALID))
    def test_invalid_input_raises(self, builder, case):
        match = "negative capacity" if case.startswith("negative") else None
        with pytest.raises(NetworkError, match=match):
            BUILDERS[builder](*INVALID[case])

    def test_rejects_negative_capacity(self):
        with pytest.raises(NetworkError):
            net_of(["a", "b"], ["a"], [("a", "b", -1)])

    def test_rejects_unknown_terminal(self):
        with pytest.raises(NetworkError):
            net_of(["a", "b"], ["z"], [("a", "b", 1)])

    def test_rejects_disconnected_by_default(self):
        with pytest.raises(NetworkError):
            net_of(["a", "b", "c", "d"], ["a", "c"],
                   [("a", "b", 1), ("c", "d", 1)])
        net = net_of(["a", "b", "c", "d"], ["a", "c"],
                     [("a", "b", 1), ("c", "d", 1)], allow_disconnected=True)
        assert not net.is_connected()

    def test_rational_capacity_string(self):
        net = net_of(["a", "b"], ["a", "b"], [("a", "b", "7/3")])
        assert net.cap("a", "b") == Fraction(7, 3)

    def test_canonical_form_preserves_lambda(self):
        net = TerminalNetwork(
            vertices=("s", "t", "v"), terminals=("s", "t"),
            edges=(("s", "v", Fraction(1)), ("s", "v", Fraction(2)),
                   ("t", "v", Fraction(4)), ("s", "t", Fraction(0))))
        assert net.edges == (("s", "v", 3), ("t", "v", 4))
        d = {("s", "t"): 1.0}
        assert concurrent_flow(net, d).value == pytest.approx(3.0)

    @pytest.mark.parametrize("cap", [float("inf"), float("-inf"), float("nan"),
                                     1e400, "inf", "abc", None])
    def test_rejects_non_finite_capacity(self, cap):
        with pytest.raises(NetworkError, match="not a finite number"):
            net_of(["a", "b"], ["a", "b"], [("a", "b", cap)])


class TestCacheKey:
    def test_equal_networks_have_equal_keys(self):
        edges = [("s", "v", Fraction(1, 3)), ("v", "t", 2)]
        a = net_of(["s", "v", "t"], ["s", "t"], edges)
        b = net_of(["t", "v", "s"], ["s", "t"], list(reversed(edges)))
        c = net_of(["s", "v", "t"], ["s", "t"], [("s", "v", 1), ("v", "t", 2)])
        assert a.cache_key == b.cache_key and hash(a.cache_key) == hash(b.cache_key)
        assert a.cache_key != c.cache_key
        assert a.cache_key != a.cache_key.parts
        assert a.cache_key is a.cache_key      # computed once per network

    def test_unpickled_key_is_hashed_again(self):
        key = net_of(["s", "v", "t"], ["s", "t"],
                     [("s", "v", 1), ("v", "t", 2)]).cache_key
        stale = pickle.loads(pickle.dumps(key))
        stale._hash += 1                        # as if hashed in another process
        again = pickle.loads(pickle.dumps(stale))
        assert again == key and hash(again) == hash(key.parts)


class TestIntegerView:
    def test_scale_is_lcm_of_denominators(self):
        net = net_of(["s", "v", "t"], ["s", "t"],
                     [("s", "v", "1/3"), ("v", "t", "2/7"), ("s", "t", "1/2")])
        scale, index, arcs = net.integer_view
        assert scale == 42
        assert index == {"s": 0, "t": 1, "v": 2}
        assert arcs == [{2: 14, 1: 21}, {0: 21, 2: 12}, {0: 14, 1: 12}]

    def test_integer_capacities_have_scale_one(self):
        net = net_of(["a", "b"], ["a", "b"], [("a", "b", 5)])
        assert net.integer_view == (1, {"a": 0, "b": 1}, [{1: 5}, {0: 5}])

    def test_raw_net_sums_parallel_edges(self):
        raw = TerminalNetwork(vertices=("a", "s", "t"), terminals=("s", "t"),
                              edges=(("s", "a", 3), ("a", "t", 2), ("s", "a", 1),
                                     ("t", "a", 4), ("t", "s", 0.5)))
        made = net_of(raw.vertices, raw.terminals, raw.edges)
        assert raw.integer_view == made.integer_view
        assert raw.integer_view[0] == 2

    def test_cached_per_network(self):
        net = net_of(["a", "b"], ["a", "b"], [("a", "b", "3/4")])
        assert net.integer_view is net.integer_view

    def test_scales_are_pinned(self):
        # (integer_view, cut_view) scales of rational nets with parallel
        # edges; seed 2's degree-3 elimination doubles the cut view's scale
        scales = [(n.integer_view[0], n.cut_view[0])
                  for n in map(rational_multinet, range(6))]
        assert scales == [(180, 180), (660, 660), (13860, 27720), (1320, 1320),
                          (24, 24), (60, 60)]


def rational_multinet(seed):
    """A random spanning tree with rational capacities, chords, and three
    of its edges repeated end to end."""
    rng = random.Random(7000 + seed)
    n = rng.randint(6, 12)
    vs = [f"v{i}" for i in range(n)]
    edges = [(vs[i], vs[rng.randrange(i)], Fraction(rng.randint(1, 20), rng.randint(1, 12)))
             for i in range(1, n)]
    edges += [(vs[i], vs[j], rng.randint(1, 9))
              for i, j in (rng.sample(range(n), 2) for _ in range(n // 2))]
    edges += [(v, u, Fraction(1, rng.randint(1, 6))) for u, v, _ in rng.sample(edges, 3)]
    return TerminalNetwork.make(vs, vs[:rng.randint(2, 5)], edges)


class TestMerge:
    def test_star_merge(self):
        net = net_of(["a", "v1", "v2"], ["a"], [("a", "v1", 1), ("a", "v2", 2)])
        merged = merge_vertices(net, [{"a"}, {"v1", "v2"}])
        assert len(merged.vertices) == 2
        (u, v, c), = merged.edges
        assert c == Fraction(3)

    def test_singleton_partition_is_identity(self):
        rng = random.Random(0)
        net = random_connected_net(rng, 8, 3)
        assert merge_vertices(net, [[v] for v in net.vertices]) == net

    def test_rejects_block_with_two_terminals(self):
        net = net_of(["a", "b", "v"], ["a", "b"], [("a", "v", 1), ("v", "b", 1)])
        with pytest.raises(NetworkError):
            merge_vertices(net, [{"a", "b"}, {"v"}])

    @pytest.mark.parametrize("blocks, message", [
        ([{"a"}, {"b"}, {"v"}, set()], "empty partition block"),
        ([{"a"}, {"b", "v"}, {"v"}], "partition blocks overlap"),
        ([{"a"}, {"b"}], "partition does not cover the vertex set"),
        ([{"a"}, {"b"}, {"v", "x"}], "partition does not cover the vertex set"),
    ], ids=["empty", "overlap", "short", "extra-vertex"])
    def test_rejects_invalid_blocks(self, blocks, message):
        net = net_of(["a", "b", "v"], ["a", "b"], [("a", "v", 1), ("v", "b", 1)])
        with pytest.raises(NetworkError, match=message):
            merge_vertices(net, blocks)

    def test_merge_only_helps(self):
        rng = random.Random(3)
        for _ in range(5):
            net = random_connected_net(rng, 9, 3)
            non_terms = [v for v in net.vertices if v not in net.terminal_set]
            rng.shuffle(non_terms)
            cut = max(1, len(non_terms) // 2)
            blocks = [{t} for t in net.terminals]
            blocks.append(set(non_terms[:cut]))
            blocks.extend({v} for v in non_terms[cut:])
            merged = merge_vertices(net, blocks)
            for _ in range(5):
                d = random_demand(rng, net)
                before = concurrent_flow(net, d).value
                after = concurrent_flow(merged, d).value
                assert after >= before * (1 - 1e-9)

    def test_identical_middles_merge_preserves_lambda(self):
        # two identical non-terminals in a quasi-bipartite net
        net = net_of(["a", "b", "u", "w"], ["a", "b"],
                     [("a", "u", 2), ("u", "b", 3), ("a", "w", 2), ("w", "b", 3)])
        merged = merge_vertices(net, [{"a"}, {"b"}, {"u", "w"}])
        rng = random.Random(1)
        for _ in range(8):
            d = {("a", "b"): rng.uniform(0.2, 4.0)}
            assert concurrent_flow(net, d).value == pytest.approx(
                concurrent_flow(merged, d).value, rel=1e-9)


class TestPhiMerge:
    def test_series_bottleneck(self):
        g1 = net_of(["s", "x"], ["s", "x"], [("s", "x", 3)])
        g2 = net_of(["x2", "t"], ["x2", "t"], [("x2", "t", 5)])
        glued = phi_merge(g1, g2, {"x": "x2"})
        assert concurrent_flow(glued, {("s", "t"): 1}).value == pytest.approx(3.0)

    def test_parallel_pair_normalized(self):
        g1 = net_of(["s", "t"], ["s", "t"], [("s", "t", 3)])
        g2 = net_of(["s2", "t2"], ["s2", "t2"], [("s2", "t2", 5)])
        glued = phi_merge(g1, g2, {"s": "s2", "t": "t2"})
        assert glued.edges == (("s", "t", Fraction(8)),)

    def test_terminal_count_arithmetic(self):
        g1 = net_of(["a", "b", "c", "m"], ["a", "b", "c"],
                    [("a", "m", 1), ("b", "m", 1), ("c", "m", 1)])
        g2 = net_of(["d", "e", "f", "m2"], ["d", "e", "f"],
                    [("d", "m2", 1), ("e", "m2", 1), ("f", "m2", 1)])
        glued = phi_merge(g1, g2, {"a": "d"})
        assert len(glued.terminals) == 3 + 3 - 1

    def test_symmetry_up_to_renaming(self):
        g1 = net_of(["a", "b", "m"], ["a", "b"], [("a", "m", 2), ("m", "b", 3)])
        g2 = net_of(["c", "d", "w"], ["c", "d"], [("c", "w", 5), ("w", "d", 1)])
        left = phi_merge(g1, g2, {"a": "c"})
        right = phi_merge(g2, g1, {"c": "a"})
        # identified vertex is named by the first argument; compare flows
        assert sorted(float(c) for _, _, c in left.edges) == \
            sorted(float(c) for _, _, c in right.edges)
        d_left = {("b", "d"): 1.0}
        assert concurrent_flow(left, d_left).value == pytest.approx(
            concurrent_flow(right, d_left).value, rel=1e-9)

    def test_rejects_non_terminal_and_duplicates(self):
        g1 = net_of(["a", "b", "m"], ["a", "b"], [("a", "m", 2), ("m", "b", 3)])
        g2 = net_of(["c", "d", "w"], ["c", "d"], [("c", "w", 5), ("w", "d", 1)])
        with pytest.raises(NetworkError):
            phi_merge(g1, g2, {"m": "c"})
        with pytest.raises(NetworkError):
            phi_merge(g1, g2, {"a": "w"})
        with pytest.raises(NetworkError):
            phi_merge(g1, g2, {})


class TestComponents:
    def test_quasi_bipartite_singletons(self):
        net = net_of(["t0", "t1", "v0", "v1", "v2", "v3"], ["t0", "t1"],
                     [("t0", f"v{i}", 1) for i in range(4)] +
                     [(f"v{i}", "t1", 1) for i in range(4)])
        comps = components(net, net.terminal_set)
        assert len(comps) == 4 and all(len(c) == 1 for c in comps)
        assert net.is_quasi_bipartite()

    def test_nontrivial_component(self):
        net = net_of(["s", "t", "u", "v"], ["s", "t"],
                     [("s", "u", 1), ("u", "v", 1), ("v", "t", 1)])
        comps = components(net, net.terminal_set)
        assert comps == [frozenset({"u", "v"})]
        assert not net.is_quasi_bipartite()

    def test_all_terminals(self):
        net = net_of(["s", "t"], ["s", "t"], [("s", "t", 1)])
        assert components(net, net.terminal_set) == []

    def test_components_sorted_by_smallest_vertex(self):
        net = net_of(["a", "b", "c", "d", "e"], ["a"],
                     [("e", "b", 1), ("c", "d", 1)], allow_disconnected=True)
        assert components(net) == [frozenset("a"), frozenset("be"), frozenset("cd")]
        assert not net.is_connected()

    def test_components_skip_removed(self):
        net = net_of(["a", "b", "c", "d"], ["a", "d"],
                     [("a", "b", 1), ("b", "c", 1), ("c", "d", 1)])
        assert components(net) == [frozenset("abcd")]
        assert components(net, {"b"}) == [frozenset("a"), frozenset("cd")]
        assert components(net, net.vertices) == []
        assert components(net, net.terminal_set) == [frozenset("bc")]


class TestTerminalBipartitions:
    def test_count_and_order(self):
        assert list(terminal_bipartitions(("a", "b", "c"))) == [
            (("a",), ("b", "c")), (("a", "b"), ("c",)), (("a", "c"), ("b",))]
        for k in range(2, 7):
            terms = tuple(f"t{i}" for i in range(k))
            splits = list(terminal_bipartitions(terms))
            assert len(splits) == 2 ** (k - 1) - 1
            assert len({frozenset(A) for A, _ in splits}) == len(splits)
            for A, B in splits:
                assert A[0] == "t0" and B and sorted(A + B) == list(terms)

    def test_single_terminal_has_none(self):
        assert list(terminal_bipartitions(("a",))) == []


class TestDemandVector:
    def test_absent_key_is_zero(self):
        d = DemandVector.of({("a", "b"): 1.5})
        assert d[("b", "a")] == 1.5
        assert d[("a", "c")] == 0.0

    def test_rejects_negative(self):
        with pytest.raises(NetworkError):
            DemandVector.of({("a", "b"): -1})

    @pytest.mark.parametrize("val", [float("nan"), float("inf"), 1e400, "nan"])
    def test_rejects_non_finite(self, val):
        with pytest.raises(NetworkError, match="not a finite number"):
            DemandVector.of({("a", "b"): val})

    def test_rejects_loop_pair(self):
        with pytest.raises(NetworkError):
            DemandVector.of({("a", "a"): 1})

    @given(st.floats(min_value=0.01, max_value=100.0))
    def test_scaling(self, alpha):
        d = DemandVector.of({("a", "b"): 2.0, ("b", "c"): 1.0})
        assert d.scaled(alpha)[("a", "b")] == pytest.approx(2.0 * alpha)

    def test_of_matches_the_two_pass_loop(self):
        """`of` in one pass gives what its earlier loop gave, a copy of which
        is `_demand_of_before`: the same entries, bit for bit, or the same
        error.  Seeded mappings and item lists mix int and str names, both
        orientations of a pair, repeated pairs and zero entries; each error
        (identical endpoints, a value that is not finite, a negative one) is
        met among them."""
        rng = random.Random(51)
        names = [0, 1, 2, 10, "0", "1", "a", "b", "B"]
        kinds = ("identical endpoints", "not a finite number", "negative demand")
        errors = set()
        for trial in range(600):
            items = []
            for _ in range(rng.randint(0, 8)):
                s, t = rng.sample(names, 2)
                value = rng.choice([0, 0.0, 1, rng.uniform(0, 5), rng.uniform(0, 1e-300),
                                    3, "2.5", rng.uniform(1, 2)])
                items.append(((s, t), value))
                if rng.random() < 0.3:
                    items.append(((t, s), rng.uniform(0, 2)))
            if trial % 20 == 0:
                bad = rng.choice([(("a", "a"), 1.0), ((2, 2), 1.0), (("a", "b"), math.nan),
                                  (("a", 1), math.inf), ((0, "b"), -1e-9), (("b", "a"), -2)])
                items.insert(rng.randrange(len(items) + 1), bad)
            for given_as in (items, dict(items)):
                try:
                    want = _demand_of_before(given_as)
                except NetworkError as exc:
                    with pytest.raises(NetworkError) as got:
                        DemandVector.of(given_as)
                    assert str(got.value) == str(exc)
                    errors.update(kind for kind in kinds if kind in str(exc))
                    continue
                got = DemandVector.of(given_as)
                assert [(p, v.hex()) for p, v in got.entries] == \
                    [(p, v.hex()) for p, v in want.entries]
        assert errors == set(kinds)


def _demand_of_before(mapping):
    """`DemandVector.of` as it was before it took one pass."""
    items = mapping.items() if isinstance(mapping, Mapping) else mapping
    acc = {}
    for pair, val in items:
        s, t = pair
        if s == t:
            raise NetworkError(f"demand on identical endpoints {s!r}")
        val = float(val)
        if not math.isfinite(val):
            raise NetworkError(f"demand on {pair} is not a finite number")
        if val < 0:
            raise NetworkError(f"negative demand on {pair}")
        key = _pair(str(s), str(t))
        acc[key] = acc.get(key, 0.0) + val
    return DemandVector(tuple(sorted((k, v) for k, v in acc.items() if v > 0)))


def test_surgeries_preserve_flow_relations_on_100_demands():
    """Each surgery's stated relation to the flow value, over a pooled set of
    100 random demands across small random networks."""
    rng = random.Random(77)
    checked = 0
    while checked < 100:
        net = random_connected_net(rng, rng.randint(5, 12), rng.randint(2, 4))
        # rebuilding from shuffled parts: the same network
        assert TerminalNetwork(net.vertices[::-1], net.terminals,
                               net.edges[::-1]) == net
        non_terms = [v for v in net.vertices if v not in net.terminal_set]
        merged = None
        if len(non_terms) >= 2:
            blocks = [{t} for t in net.terminals]
            blocks.append(set(non_terms[:2]))
            blocks.extend({v} for v in non_terms[2:])
            merged = merge_vertices(net, blocks)
        for _ in range(4):
            d = random_demand(rng, net)
            lam = concurrent_flow(net, d).value
            # merging: never less
            if merged is not None:
                assert concurrent_flow(merged, d).value >= lam * (1 - 1e-6)
            checked += 1
            if checked >= 100:
                break


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_partition_refinement_properties(data):
    """Blocks from a labelling of the non-terminals merge to one vertex per
    block, named by its smallest member, beside the untouched terminals."""
    n = data.draw(st.integers(3, 8))
    net = random_connected_net(random.Random(n), n + 2, 2)
    non_terms = [v for v in net.vertices if v not in net.terminal_set]
    labels = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    blocks: dict[int, set] = {}
    for v, l in zip(non_terms, labels):
        blocks.setdefault(l, set()).add(v)
    merged = merge_vertices(net, [{t} for t in net.terminals] + list(blocks.values()))
    assert set(merged.vertices) == set(net.terminals) | {min(b) for b in blocks.values()}
    assert merged.terminals == net.terminals
