import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowsparse import TerminalNetwork, concurrent_flow
from flowsparse.flow import FlowError
from flowsparse.splice import (
    FlowDecomposition,
    FlowPath,
    compose,
    splice,
    unsplice_route,
)


def path(verts, amount):
    return FlowPath(vertices=tuple(verts), amount=Fraction(amount))


class TestSplice:
    def test_terminal_free_unchanged(self):
        dec = FlowDecomposition((FlowPath(("a", "v", "b"), Fraction(2)),))
        res = splice(dec, ["a", "b"])
        assert res.decomposition == dec
        assert res.log == ()

    def test_single_split(self):
        dec = FlowDecomposition((path(("s", "t", "u"), 2),))
        res = splice(dec, ["s", "t", "u"])
        assert len(res.decomposition.paths) == 2
        got = sorted((p.vertices, float(p.amount)) for p in res.decomposition.paths)
        assert got == [(("s", "t"), 2.0), (("t", "u"), 2.0)]
        assert len(res.log) == 1
        assert res.log[0].at == "t"

    def test_cuts_in_path_order(self):
        dec = FlowDecomposition((path(("a", "x", "b", "c", "y", "d"), 3),
                                 path(("d", "c"), 1)))
        res = splice(dec, ["a", "b", "c", "d"])
        assert [p.vertices for p in res.decomposition.paths] == [
            ("a", "x", "b"), ("b", "c"), ("c", "y", "d"), ("d", "c")]
        assert [(r.parent_pair, r.at, r.left_pair, r.right_pair, r.amount)
                for r in res.log] == [
            (("a", "d"), "b", ("a", "b"), ("b", "d"), 3),
            (("b", "d"), "c", ("b", "c"), ("c", "d"), 3)]

    def test_loads_preserved_exactly(self):
        rng = random.Random(23)
        for _ in range(30):
            n_terms = rng.randint(2, 4)
            terms = [f"t{i}" for i in range(n_terms)]
            others = [f"v{i}" for i in range(rng.randint(1, 4))]
            verts = terms + others
            paths = []
            for _ in range(rng.randint(1, 6)):
                k = rng.randint(2, min(5, len(verts)))
                walk = rng.sample(verts, k)
                # endpoints must be terminals
                walk[0] = rng.choice(terms)
                walk[-1] = rng.choice([t for t in terms if t != walk[0]])
                if len(set(walk)) != len(walk):
                    continue
                paths.append(path(tuple(walk), Fraction(rng.randint(1, 9), rng.randint(1, 7))))
            if not paths:
                continue
            dec = FlowDecomposition(tuple(paths))
            res = splice(dec, terms)
            assert res.decomposition.edge_loads() == dec.edge_loads()
            assert res.decomposition.internal_terminal_occurrences(terms) == 0

    def test_demand_transformation(self):
        dec = FlowDecomposition((path(("a", "x", "b", "c"), 3),))
        res = splice(dec, ["a", "b", "c"])
        d = res.decomposition.induced_demand()
        assert d[("a", "b")] == 3
        assert d[("b", "c")] == 3


class TestUnsplice:
    def test_no_splits_identity(self):
        net = TerminalNetwork.make(["a", "v", "b"], ["a", "b"],
                                   [("a", "v", 5), ("v", "b", 5)])
        dec = FlowDecomposition((path(("a", "v", "b"), 2),))
        res = splice(dec, ["a", "b"])
        out = unsplice_route(net, {("a", "b"): 2}, res.decomposition, res)
        assert out.induced_demand() == {("a", "b"): Fraction(2)}

    def test_path_example(self):
        net = TerminalNetwork.make(["s", "t", "u"], ["s", "t", "u"],
                                   [("s", "t", 2), ("t", "u", 2)])
        dec = FlowDecomposition((path(("s", "t", "u"), 2),))
        res = splice(dec, ["s", "t", "u"])
        out = unsplice_route(net, {("s", "u"): 2}, res.decomposition, res)
        assert out.induced_demand() == {("s", "u"): Fraction(2)}
        out.check_capacities(net)


class TestCompose:
    def test_quality_max(self):
        g1 = TerminalNetwork.make(["a", "b"], ["a", "b"], [("a", "b", 1)])
        g2 = TerminalNetwork.make(["c", "d"], ["c", "d"], [("c", "d", 1)])
        _, q = compose(g1, g2, {"b": "c"}, 1.0, 1.0)
        assert q == 1.0
        _, q = compose(g1, g2, {"b": "c"}, 1.0, 2.0)
        assert q == 2.0
        with pytest.raises(FlowError):
            compose(g1, g2, {"b": "c"}, 0.5, 1.0)

    def test_series_composition_flow_agrees(self):
        rng = random.Random(31)
        for _ in range(5):
            c1 = Fraction(rng.randint(1, 9))
            c2 = Fraction(rng.randint(1, 9))
            g1 = TerminalNetwork.make(["a", "m"], ["a", "m"], [("a", "m", c1)])
            g2 = TerminalNetwork.make(["m2", "b"], ["m2", "b"], [("m2", "b", c2)])
            whole, q = compose(g1, g2, {"m": "m2"}, 1.0, 1.0)
            assert q == 1.0
            for _ in range(4):
                val = rng.uniform(0.3, 3.0)
                assert concurrent_flow(whole, {("a", "b"): val}).value == pytest.approx(
                    float(min(c1, c2)) / val, rel=1e-9)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_splice_load_preservation_property(data):
    terms = ["p", "q", "r"]
    mids = ["x", "y"]
    n_paths = data.draw(st.integers(1, 4))
    paths = []
    for i in range(n_paths):
        size = data.draw(st.integers(2, 5))
        pool = terms + mids
        walk = data.draw(st.permutations(pool))[:size]
        walk = list(walk)
        walk[0] = data.draw(st.sampled_from(terms))
        rest = [t for t in terms if t != walk[0]]
        walk[-1] = data.draw(st.sampled_from(rest))
        if len(set(walk)) != len(walk):
            continue
        num = data.draw(st.integers(1, 20))
        den = data.draw(st.integers(1, 9))
        paths.append(FlowPath(tuple(walk), Fraction(num, den)))
    if not paths:
        return
    dec = FlowDecomposition(tuple(paths))
    res = splice(dec, terms)
    assert res.decomposition.edge_loads() == dec.edge_loads()
    assert res.decomposition.internal_terminal_occurrences(terms) == 0
    # total demand mass is preserved or grows by exactly one path amount per split
    assert len(res.decomposition.paths) == len(dec.paths) + len(res.log)
