import hashlib
import math
import random
from fractions import Fraction

import pytest

from flowsparse import (
    TerminalNetwork,
    certify_cuts,
    concurrent_flow,
)
from flowsparse import network, structured
from flowsparse.flow import mincut_partition
from flowsparse.generators import gen_series_parallel, gen_treewidth
from flowsparse.network import terminal_bipartitions
from flowsparse.structured import (
    SpLeaf,
    SpParallel,
    SpSeries,
    SpTree,
    StructureError,
    TreeDecomposition,
    balanced_terminal_separator,
    identity_leaf,
    mimick_small,
    sp_recognize,
    sp_sparsifier,
    sp_tree_realizes,
    treewidth_sparsifier,
)

from conftest import fresh, random_connected_net, random_demand, rational_net


class TestMimick:
    def test_k2_single_edge(self):
        net = TerminalNetwork.make(["s", "t", "v"], ["s", "t"],
                                   [("s", "v", 3), ("v", "t", 4)])
        res = mimick_small(net)
        assert res.net.edges == (("s", "t", Fraction(3)),)

    def test_k3_star(self):
        net = TerminalNetwork.make(
            ["v", "a", "b", "c"], ["a", "b", "c"],
            [("v", "a", 2), ("v", "b", 3), ("v", "c", 4)])
        res = mimick_small(net)
        assert len(res.net.vertices) <= 4
        assert certify_cuts(net, res.net).all_exact

    @pytest.mark.parametrize("seed", range(8))
    def test_k4_random_exact(self, seed):
        rng = random.Random(400 + seed)
        net = random_connected_net(rng, rng.randint(6, 15), 4)
        res = mimick_small(net)
        assert len(res.net.vertices) <= 5
        assert certify_cuts(net, res.net).all_exact
        for _ in range(4):
            d = random_demand(rng, net)
            lg = concurrent_flow(net, d).value
            lh = concurrent_flow(res.net, d).value
            assert lh == pytest.approx(lg, rel=1e-6)

    def test_cut_targets_read_the_table_whole(self, monkeypatch):
        # at k >= 3 the targets come from the cut table, at k = 2 from the
        # one cut alone; either way they are the cut per bipartition, as
        # ints at the network's cut scale
        for seed in range(30):
            rng = random.Random(8200 + seed)
            k = 2 + seed % 3
            net = rational_net(rng, rng.randint(k + 1, k + 8), k, shift=61 if seed >= 15 else 0)
            scale, targets = structured._cut_targets(net)
            assert ("bipartition_cuts" in net.__dict__) is (net.k > 2)
            fit = mimick_small(net).net
            with monkeypatch.context() as patch:
                patch.setattr(network, "_CUT_TABLE_MAX_ENTRIES", 0)
                alone = fresh(net)
                assert structured._cut_targets(alone) == (scale, targets)
                assert alone.k == 2 or alone.bipartition_cuts is None
                assert mimick_small(alone).net == fit
                assert targets == [((A, B), mincut_partition(alone, A, B) * scale)
                                   for A, B in terminal_bipartitions(net.terminals)]
            assert scale == net.cut_view[0]
            assert all(type(cut) is int for _, cut in targets)

    def test_k5_rejected(self):
        rng = random.Random(1)
        net = random_connected_net(rng, 9, 5)
        with pytest.raises(StructureError):
            mimick_small(net)


# Seeds of random_connected_net(rng, rng.randint(6, 10), 4) whose cut values
# no clique fits, so mimick_small adds the star, with the edges
# ("u-v:capacity") the exact-LP pattern search returned before the closed
# form replaced it.  The closed form must return the same fits.
STAR_CLIQUE_FITS = {
    0: ("_aux-v0:1/2 _aux-v1:1/2 _aux-v2:1/2 _aux-v3:1/2 v0-v1:9 "
        "v0-v2:7/2 v1-v2:18 v1-v3:29/2"),
    15: ("_aux-v0:4 _aux-v1:4 _aux-v2:4 _aux-v3:4 v0-v1:9 v0-v2:3 "
         "v0-v3:3 v1-v3:12 v2-v3:6"),
    53: ("_aux-v0:2 _aux-v1:2 _aux-v2:2 _aux-v3:2 v0-v1:8 v0-v2:3 "
         "v1-v2:22 v1-v3:8 v2-v3:2"),
    65: ("_aux-v0:3/2 _aux-v1:3/2 _aux-v2:3/2 _aux-v3:3/2 v0-v1:5 "
         "v0-v2:9 v0-v3:1/2 v1-v3:19/2 v2-v3:21/2"),
    79: ("_aux-v0:2 _aux-v1:2 _aux-v2:2 _aux-v3:2 v0-v1:8 v0-v2:27/2 "
         "v0-v3:23/2 v2-v3:1/2"),
    83: ("_aux-v0:1 _aux-v1:1 _aux-v2:1 _aux-v3:1 v0-v1:2 v0-v2:15 "
         "v0-v3:1 v1-v2:4 v2-v3:13"),
    94: ("_aux-v0:1 _aux-v1:1 _aux-v2:1 _aux-v3:1 v0-v1:6 v0-v2:4 "
         "v0-v3:4 v1-v2:7 v1-v3:1 v2-v3:2"),
    109: ("_aux-v0:4 _aux-v1:4 _aux-v2:4 _aux-v3:4 v0-v1:13 v0-v3:6 "
          "v1-v2:9"),
    116: ("_aux-v0:9/2 _aux-v1:9/2 _aux-v2:9/2 _aux-v3:9/2 v0-v1:11/2 "
          "v0-v2:11 v1-v2:3/2 v1-v3:39/2"),
    132: ("_aux-v0:2 _aux-v1:2 _aux-v2:2 _aux-v3:2 v0-v1:12 v0-v2:10 "
          "v0-v3:5 v1-v2:3 v1-v3:8"),
    151: ("_aux-v0:3/2 _aux-v1:3/2 _aux-v2:3/2 _aux-v3:3/2 v0-v1:6 "
          "v0-v2:2 v0-v3:5/2 v1-v2:12 v1-v3:1/2 v2-v3:15/2"),
    157: ("_aux-v0:3/2 _aux-v1:3/2 _aux-v2:3/2 _aux-v3:3/2 v0-v1:12 "
          "v0-v2:1 v0-v3:15/2 v1-v2:4 v1-v3:1/2 v2-v3:3/2"),
    159: ("_aux-v0:1 _aux-v1:1 _aux-v2:1 _aux-v3:1 v0-v1:8 v0-v2:19/2 "
          "v0-v3:31/2 v2-v3:13/2"),
    172: ("_aux-v0:1 _aux-v1:1 _aux-v2:1 _aux-v3:1 v0-v1:11 v0-v2:5/2 "
          "v0-v3:5/2 v1-v2:8 v2-v3:11/2"),
    195: ("_aux-v0:3/2 _aux-v1:3/2 _aux-v2:3/2 _aux-v3:3/2 v0-v1:5/2 "
          "v0-v2:4 v1-v2:19/2 v1-v3:5/2"),
    211: ("_aux-v0:6 _aux-v1:6 _aux-v2:6 _aux-v3:6 v0-v1:4 v0-v2:17/2 "
          "v0-v3:1/2 v1-v3:7 v2-v3:39/2"),
    225: ("_aux-v0:1/2 _aux-v1:1/2 _aux-v2:1/2 _aux-v3:1/2 v0-v1:29/2 "
          "v0-v2:4 v1-v2:3/2 v1-v3:11/2"),
    262: ("_aux-v0:1 _aux-v1:1 _aux-v2:1 _aux-v3:1 v0-v1:23/2 "
          "v0-v3:21/2 v1-v2:6 v1-v3:11/2"),
    264: ("_aux-v0:1 _aux-v1:1 _aux-v2:1 _aux-v3:1 v0-v1:9 v0-v2:25 "
          "v0-v3:10 v1-v3:9 v2-v3:1"),
    297: ("_aux-v0:1/2 _aux-v1:1/2 _aux-v2:1/2 _aux-v3:1/2 v0-v1:7 "
          "v0-v2:6 v0-v3:17/2 v1-v3:3/2 v2-v3:9/2"),
    320: ("_aux-v0:1 _aux-v1:1 _aux-v2:1 _aux-v3:1 v0-v1:11 v0-v3:8 "
          "v1-v2:2 v1-v3:9"),
    330: ("_aux-v0:3 _aux-v1:3 _aux-v2:3 _aux-v3:3 v0-v1:2 v0-v2:1/2 "
          "v0-v3:21/2 v1-v2:9 v2-v3:9/2"),
    340: ("_aux-v0:1 _aux-v1:1 _aux-v2:1 _aux-v3:1 v0-v1:12 v0-v2:10 "
          "v1-v2:1 v1-v3:4 v2-v3:2"),
    355: ("_aux-v0:1 _aux-v1:1 _aux-v2:1 _aux-v3:1 v0-v1:10 v0-v2:5 "
          "v0-v3:15 v1-v2:22 v1-v3:6 v2-v3:1"),
}


@pytest.mark.parametrize("seed", sorted(STAR_CLIQUE_FITS))
def test_star_clique_fits_are_pinned(seed):
    rng = random.Random(seed)
    net = random_connected_net(rng, rng.randint(6, 10), 4)
    res = mimick_small(net)
    assert res.params_dict()["aux"] == 1
    got = " ".join(f"{u}-{v}:{c}" for u, v, c in res.net.edges)
    assert got == STAR_CLIQUE_FITS[seed]


def test_two_hub_star_fit():
    # two hubs x, y: no clique on a, b, c, d has these cuts
    net = TerminalNetwork.make(
        ["x", "y", "a", "b", "c", "d"], ["a", "b", "c", "d"],
        [("x", "a", 3), ("x", "b", 2), ("x", "y", 4), ("y", "c", 3),
         ("y", "d", 2), ("a", "c", 1)])
    res = mimick_small(net)
    got = " ".join(f"{u}-{v}:{c}" for u, v, c in res.net.edges)
    assert got == "_aux-a:3/2 _aux-b:3/2 _aux-c:3/2 _aux-d:3/2 a-b:1/2 a-c:2 c-d:1/2"
    assert certify_cuts(net, res.net).all_exact


def tree_plus_chords(rng):
    """A random tree on 8-16 vertices plus up to n chords, with capacities
    p/q for p up to 10^6 and q up to 1000, and 4 random terminals."""
    n = rng.randint(8, 16)
    vs = [f"v{i}" for i in range(n)]

    def cap():
        return Fraction(rng.randint(1, 10 ** 6), rng.randint(1, 1000))
    edges = [(vs[i], vs[rng.randrange(i)], cap()) for i in range(1, n)]
    edges += [(*rng.sample(vs, 2), cap()) for _ in range(rng.randint(0, n))]
    return TerminalNetwork.make(vs, rng.sample(vs, 4), edges)


K4_FAMILIES = {
    "connected": lambda rng: random_connected_net(rng, rng.randint(8, 16), 4),
    "tree-chords": tree_plus_chords,
}


@pytest.mark.parametrize("family", sorted(K4_FAMILIES))
def test_k4_closed_form_is_cut_exact(family):
    # the uniform star's c >= 0 and every clique capacity >= 0 hold for
    # real min cuts, so the closed form never raises on a network; at least
    # one net in ten must need the star, or the star goes untested
    stars = 0
    for seed in range(1000):
        net = K4_FAMILIES[family](random.Random(seed))
        res = mimick_small(net)
        assert certify_cuts(net, res.net).all_exact, seed
        stars += res.params_dict()["aux"]
    assert stars >= 100


def clique_targets(terminals, cut):
    """(scale, targets) as `_cut_targets` returns them, the cut of each split
    (A, B) given by `cut` on the side A, as ints at the least common
    denominator of the cuts."""
    cuts = {A: Fraction(c) for A, c in cut.items()}
    scale = math.lcm(*(c.denominator for c in cuts.values()))
    return scale, [((A, B), int(cuts[A] * scale)) for A, B in terminal_bipartitions(terminals)]


def fit_clique(terminals, targets):
    return structured._fit_clique_star(terminals, *targets)


class TestCliqueFit:
    def test_k2_is_the_cut(self):
        fit = fit_clique(("a", "b"), clique_targets(("a", "b"), {("a",): "7/3"}))
        assert fit.edges == (("a", "b", Fraction(7, 3)),)

    def test_k3_halves_the_singleton_sums(self):
        # x_ab = (3 + 5 - 6) / 2, x_ac = (3 + 6 - 5) / 2, x_bc = (5 + 6 - 3) / 2
        cut = {("a",): 3, ("a", "b"): 6, ("a", "c"): 5}
        fit = fit_clique(("a", "b", "c"), clique_targets(("a", "b", "c"), cut))
        assert fit.edges == (("a", "b", 1), ("a", "c", 2), ("b", "c", 4))
        # f_c above f_a + f_b is no min-cut function: x_ab < 0
        cut = {("a",): 1, ("a", "b"): 5, ("a", "c"): 1}
        with pytest.raises(StructureError, match="not a terminal min-cut function"):
            fit_clique(("a", "b", "c"), clique_targets(("a", "b", "c"), cut))

    def test_k4_inconsistent_pair_splits(self):
        # the pair splits sum to P = 13, the singletons to S = 12; every
        # clique has both sums 2 * sum(x), so the star takes c = 1/2
        terms = ("a", "b", "c", "d")
        cut = {("a",): 3, ("a", "b"): 4, ("a", "c"): 4, ("a", "d"): 5,
               ("a", "b", "c"): 3, ("a", "b", "d"): 3, ("a", "c", "d"): 3}
        fit = fit_clique(terms, clique_targets(terms, cut))
        got = " ".join(f"{u}-{v}:{c}" for u, v, c in fit.edges)
        assert got == ("_aux-a:1/2 _aux-b:1/2 _aux-c:1/2 _aux-d:1/2 a-b:1 a-c:1 "
                       "a-d:1/2 b-c:1/2 b-d:1 c-d:1")
        # P = S: the clique alone, all six capacities 1
        cut[("a", "d")] = 4
        fit = fit_clique(terms, clique_targets(terms, cut))
        assert [c for _, _, c in fit.edges] == [1] * 6
        # P = 11 < S = 12 would need c = -1/2, though every x_ij >= 0
        cut[("a", "d")] = 3
        with pytest.raises(StructureError, match="not a terminal min-cut function"):
            fit_clique(terms, clique_targets(terms, cut))

    def test_k4_star_is_no_clique(self):
        # singleton cuts 1 and pair splits 2 sum to 4 and 6: no clique
        # capacity is positive, and the star has c = 1
        net = TerminalNetwork.make(["v", "a", "b", "c", "d"], ["a", "b", "c", "d"],
                                   [("v", t, 1) for t in "abcd"])
        got = " ".join(f"{u}-{v}:{c}" for u, v, c in mimick_small(net).net.edges)
        assert got == "_aux-a:1 _aux-b:1 _aux-c:1 _aux-d:1"


# sha256 prefix of the (k, repr(mimick_small(net).net.edges)) list below,
# recorded while the clique fit still ran Gaussian elimination
MIMICK_PIN = "bf01a25e8dccc6f8"


def test_mimick_outputs_are_pinned(monkeypatch):
    outs = []
    real = structured.mimick_small

    def recorded(net):
        res = real(net)
        outs.append((net.k, repr(res.net.edges)))
        return res
    monkeypatch.setattr(structured, "mimick_small", recorded)
    for seed in range(60):
        rng = random.Random(5000 + seed)
        for k in (2, 3, 4):
            recorded(random_connected_net(rng, rng.randint(k + 1, k + 8), k))
    direct = len(outs)
    for seed in range(60):      # the leaves the series-parallel recursion fits
        rng = random.Random(6000 + seed)
        net, tree = gen_series_parallel(rng.randint(10, 30), rng.randint(3, 8), seed)
        sp_sparsifier(net, tree)
    assert direct == 180 and len(outs) >= 300
    assert {k for k, _ in outs[direct:]} == {2, 3, 4}
    digest = hashlib.sha256(repr(outs).encode()).hexdigest()[:16]
    assert digest == MIMICK_PIN


class TestSpRecognize:
    def test_single_edge(self):
        net = TerminalNetwork.make(["s", "t"], ["s", "t"], [("s", "t", 2)])
        tree = sp_recognize(net)
        assert isinstance(tree.root, SpLeaf)

    def test_parallel_paths(self):
        net = TerminalNetwork.make(
            ["s", "t", "m"], ["s", "t"],
            [("s", "m", 1), ("m", "t", 1), ("s", "t", 2)])
        tree = sp_recognize(net)
        assert isinstance(tree.root, SpParallel)
        assert sp_tree_realizes(tree, net)

    def test_k4_not_sp(self):
        vs = ["a", "b", "c", "d"]
        edges = [(u, v, 1) for i, u in enumerate(vs) for v in vs[i + 1:]]
        net = TerminalNetwork.make(vs, ["a", "b"], edges)
        with pytest.raises(StructureError, match="not series-parallel"):
            sp_recognize(net)

    @pytest.mark.parametrize("seed", range(6))
    def test_generated_instances_recognized(self, seed):
        net, tree = gen_series_parallel(rng_leaves(seed), 4, seed)
        assert sp_tree_realizes(tree, net)
        rec = sp_recognize(net)
        assert sp_tree_realizes(rec, net)

    def test_json_roundtrip(self):
        _, tree = gen_series_parallel(10, 3, 5)
        doc = tree.to_json_dict()
        back = SpTree.from_json_dict(doc)
        assert back == tree

    def test_recognized_trees_are_pinned(self):
        for family, nets in _recognition_families().items():
            outs, portals = [], {"raise": 0, 2: 0, 1: 0, 0: 0}
            for net in nets:
                try:
                    tree = sp_recognize(net)
                except StructureError as exc:
                    outs.append(repr(exc))
                    portals["raise"] += 1
                    continue
                outs.append(repr(tree))
                portals[sum(p in net.terminal_set for p in tree.portals)] += 1
            digest = hashlib.sha256(repr(outs).encode()).hexdigest()[:16]
            assert (len(nets), digest, portals) == PINNED_RECOGNIZED[family]


def rng_leaves(seed):
    return random.Random(seed).randint(4, 24)


def _recognition_families():
    """40 seeded series-parallel nets as generated, with one chord added
    (some stop being series-parallel), and with 2-4 interior vertices as
    the terminals instead (so non-terminal portal pairs get tried)."""
    fams = {"as-is": [], "chord": [], "moved": []}
    for seed in range(40):
        rng = random.Random(7000 + seed)
        net, _ = gen_series_parallel(rng.randint(4, 24), rng.randint(2, 5), seed)
        fams["as-is"].append(net)
        adj = net.adjacency
        free = [(u, v) for i, u in enumerate(net.vertices)
                for v in net.vertices[i + 1:] if v not in adj[u]]
        if free:
            a, b = rng.choice(free)
            fams["chord"].append(TerminalNetwork.make(
                net.vertices, net.terminals, net.edges + ((a, b, 1),)))
        inner = [x for x in net.vertices if x not in ("s", "t")]
        if len(inner) >= 2:
            terms = rng.sample(inner, min(len(inner), rng.randint(2, 4)))
            fams["moved"].append(TerminalNetwork.make(net.vertices, terms,
                                                      net.edges))
    return fams


# (nets, sha256 prefix of the repr of each sp_recognize tree or
# StructureError, outcome counts: raised, or how many of the tree's two
# portals are terminals), recorded while recognition rescanned every item
# after each merge
PINNED_RECOGNIZED = {
    "as-is": (40, "bcdfc7e12aed62a6", {"raise": 0, 2: 40, 1: 0, 0: 0}),
    "chord": (38, "477d8aea63789920", {"raise": 12, 2: 25, 1: 1, 0: 0}),
    "moved": (38, "1a5a19c5a3c4fc5b", {"raise": 0, 2: 13, 1: 11, 0: 14}),
}


class TestSpSparsifier:
    def test_series_chain_collapses(self):
        verts = [f"v{i}" for i in range(11)]
        edges = [(verts[i], verts[i + 1], i + 1) for i in range(10)]
        net = TerminalNetwork.make(verts, [verts[0], verts[-1]], edges)
        res = sp_sparsifier(net)
        assert res.claimed_quality == 1.0
        assert len(res.net.vertices) == 2
        assert res.net.edges[0][2] == Fraction(1)   # bottleneck

    def test_parallel_bundle_sums(self):
        net = TerminalNetwork.make(
            ["s", "t", "a", "b", "c", "d", "e"], ["s", "t"],
            [("s", x, 1) for x in "abcde"] + [(x, "t", 1) for x in "abcde"])
        res = sp_sparsifier(net)
        assert len(res.net.vertices) <= 3

    @pytest.mark.parametrize("seed", range(5))
    def test_random_sp_exact(self, seed):
        rng = random.Random(900 + seed)
        net, tree = gen_series_parallel(rng.randint(8, 30), rng.randint(2, 5),
                                        777 + seed)
        res = sp_sparsifier(net, tree)
        k_all = len(res.net.terminals)
        assert len(res.net.vertices) <= 11 * (2 * k_all - 1) + 2
        base = TerminalNetwork.make(net.vertices, res.net.terminals, net.edges)
        assert certify_cuts(base, res.net).all_exact
        for _ in range(6):
            d = random_demand(rng, base)
            lg = concurrent_flow(base, d).value
            lh = concurrent_flow(res.net, d).value
            assert lh == pytest.approx(lg, rel=1e-6)

    def test_rejects_wrong_tree(self):
        net1, tree1 = gen_series_parallel(8, 3, 1)
        net2, _ = gen_series_parallel(8, 3, 2)
        with pytest.raises(StructureError):
            sp_sparsifier(net2, tree1)

    @pytest.mark.parametrize("seed", range(6))
    def test_output_stays_series_parallel(self, seed):
        # not guaranteed by the generic mimicking fit, but holds on these
        # seeded instances; pinned as a regression
        net, tree = gen_series_parallel(18, 5, seed)
        res = sp_sparsifier(net, tree)
        sp_recognize(res.net)


class TestTreewidth:
    def test_decomposition_validation(self):
        net, tdec = gen_treewidth(4, 14, 2, seed=3)
        tdec.validate_for(net)
        broken = TreeDecomposition(bags=tdec.bags[:1], edges=())
        with pytest.raises(StructureError):
            broken.validate_for(net)

    def test_separator_balance(self):
        net, tdec = gen_treewidth(9, 24, 2, seed=4)
        X = balanced_terminal_separator(net, tdec)
        assert len(X) <= tdec.width + 1
        outside = set(net.terminals) - X
        from flowsparse.network import components
        for comp in components(net, X):
            assert len(comp & set(net.terminals)) <= (2 / 3) * len(outside) + 1e-9

    def test_base_case_uses_leaf_builder(self):
        net, tdec = gen_treewidth(4, 12, 2, seed=5)
        res = treewidth_sparsifier(net, tdec, "identity")
        assert dict(res.params)["depth"] == 0
        assert res.net == identity_leaf(net).net

    def test_recursion_exact_with_identity_leaves(self):
        rng = random.Random(6)
        net, tdec = gen_treewidth(10, 30, 1, seed=6)
        res = treewidth_sparsifier(net, tdec, "identity", leaf_threshold=8)
        assert dict(res.params)["depth"] >= 1
        assert res.claimed_quality == 1.0
        for _ in range(5):
            d = random_demand(rng, net)
            lg = concurrent_flow(net, d).value
            lh = concurrent_flow(res.net, d).value
            assert lh == pytest.approx(lg, rel=1e-6)

    @pytest.mark.parametrize("threshold", [None, 8])
    def test_identity_output_is_the_network(self, threshold):
        # an output equal to net is net itself, so solves hit net's memo
        rng = random.Random(11)
        net, tdec = gen_treewidth(10, 30, 1, seed=6)
        d = random_demand(rng, net)
        first = concurrent_flow(net, d)
        res = treewidth_sparsifier(net, tdec, "identity", leaf_threshold=threshold)
        assert dict(res.params)["depth"] == (0 if threshold is None else 1)
        assert res.net is net
        assert concurrent_flow(res.net, d) is first

    def test_depth_bound(self):
        net, tdec = gen_treewidth(14, 40, 1, seed=7)
        res = treewidth_sparsifier(net, tdec, "identity")
        depth = dict(res.params)["depth"]
        assert depth <= math.log(net.k) / math.log(6 / 5)

    def test_quality_bookkeeping_max(self, monkeypatch):
        net, tdec = gen_treewidth(10, 30, 1, seed=8)

        def q2_leaf(n):
            from flowsparse.results import SparsifierResult
            return SparsifierResult.of(n, "q2", 2.0)

        monkeypatch.setitem(structured.LEAF_BUILDERS, "q2", q2_leaf)
        res = treewidth_sparsifier(net, tdec, "q2", leaf_threshold=8)
        assert res.claimed_quality == 2.0

    def test_mimick_leaf_builder(self):
        net, tdec = gen_treewidth(4, 12, 1, seed=9)
        res = treewidth_sparsifier(net, tdec, "mimick")
        assert certify_cuts(net, res.net).all_exact


def _structured_cases():
    """{case: thunk returning a SparsifierResult}: the SP recursion on given
    and on recognised trees, and the treewidth recursion under both leaf
    builders at the default leaf threshold and at 4(w+1)."""
    cases = {}
    for seed in range(20):
        rng = random.Random(7000 + seed)
        net, tree = gen_series_parallel(rng.randint(8, 30), 2 + seed % 5, seed)
        cases[f"sp-tree-{seed}"] = lambda net=net, tree=tree: sp_sparsifier(net, tree)
        if seed < 5:
            cases[f"sp-recognized-{seed}"] = lambda net=net: sp_sparsifier(net)
    # at k = 9 only w = 1 with threshold 8 recurses; k = 16 recurses at w = 2
    for k, n, w in ((9, 30, 1), (9, 30, 2), (16, 40, 2)):
        for seed in range(3):
            net, tdec = gen_treewidth(k, n, w, seed=seed)
            for leaf in ("identity", "mimick"):
                for threshold in (None, 4 * (w + 1)):
                    cases[f"tw-{k}-{w}-{seed}-{leaf}-{threshold or 'default'}"] = (
                        lambda net=net, tdec=tdec, leaf=leaf, threshold=threshold:
                        treewidth_sparsifier(net, tdec, leaf, leaf_threshold=threshold))
    return cases


def _structured_fingerprint(res):
    """sha256 prefix of repr((vertices, terminals, edges, claimed quality,
    params)); these constructions are exact arithmetic, so no child process
    is needed to fix their bits."""
    h = res.net
    text = repr((h.vertices, h.terminals, h.edges, res.claimed_quality, res.params))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.fixture(scope="module")
def structured_fingerprints():
    return {case: _structured_fingerprint(build())
            for case, build in _structured_cases().items()}


# A change that keeps the structured constructions' outputs keeps these equal.
PINNED_STRUCTURED = {
    'sp-tree-0': '39ca975d282fe8c0',
    'sp-recognized-0': '9fc165b40a801451',
    'sp-tree-1': '242e3074f70f6d0d',
    'sp-recognized-1': '68a0f79bb46a032d',
    'sp-tree-2': '89d242fc5efc3294',
    'sp-recognized-2': 'bb56f0c38aa5f757',
    'sp-tree-3': '1477f15e94e5ca20',
    'sp-recognized-3': 'ab5de0bb2433eb26',
    'sp-tree-4': '8796ad0872d340ad',
    'sp-recognized-4': 'd6d44f4261f23508',
    'sp-tree-5': 'd9089c74857e5dc6',
    'sp-tree-6': '10c793078c9b4d28',
    'sp-tree-7': '27ad0c05c550de7c',
    'sp-tree-8': '619dca070e34a17d',
    'sp-tree-9': 'a26b0e52fea67819',
    'sp-tree-10': '04b61ecfb9452da7',
    'sp-tree-11': 'dc140978fb8085de',
    'sp-tree-12': '6df355380feec945',
    'sp-tree-13': 'f51dc9027fdab0b6',
    'sp-tree-14': 'baeb153f05084387',
    'sp-tree-15': 'f25f8429a2a7a599',
    'sp-tree-16': 'd945c2f7c02607af',
    'sp-tree-17': '2d8de377dcd9e962',
    'sp-tree-18': '03a85af75fb0a3e8',
    'sp-tree-19': '65956d7a3b227ba3',
    'tw-9-1-0-identity-default': '29e3cf6847f68a69',
    'tw-9-1-0-identity-8': 'cdf35a8dcfd99920',
    'tw-9-1-0-mimick-default': '29e3cf6847f68a69',
    'tw-9-1-0-mimick-8': 'bd52aa59328a9771',
    'tw-9-1-1-identity-default': '1b11e5e49ed36635',
    'tw-9-1-1-identity-8': '649c0795bbae3034',
    'tw-9-1-1-mimick-default': '1b11e5e49ed36635',
    'tw-9-1-1-mimick-8': 'b64d889d50419021',
    'tw-9-1-2-identity-default': '462da23421e6b634',
    'tw-9-1-2-identity-8': 'cbd6cb71be59cf79',
    'tw-9-1-2-mimick-default': '462da23421e6b634',
    'tw-9-1-2-mimick-8': 'dc894730b66bb417',
    'tw-9-2-0-identity-default': '510fb81b34792f03',
    'tw-9-2-0-identity-12': '510fb81b34792f03',
    'tw-9-2-0-mimick-default': '510fb81b34792f03',
    'tw-9-2-0-mimick-12': '510fb81b34792f03',
    'tw-9-2-1-identity-default': '7d6cfb6889dc105c',
    'tw-9-2-1-identity-12': '7d6cfb6889dc105c',
    'tw-9-2-1-mimick-default': '7d6cfb6889dc105c',
    'tw-9-2-1-mimick-12': '7d6cfb6889dc105c',
    'tw-9-2-2-identity-default': 'ad39d39e899bbf62',
    'tw-9-2-2-identity-12': 'ad39d39e899bbf62',
    'tw-9-2-2-mimick-default': 'ad39d39e899bbf62',
    'tw-9-2-2-mimick-12': 'ad39d39e899bbf62',
    'tw-16-2-0-identity-default': 'a0da53b7c83c667f',
    'tw-16-2-0-identity-12': '51e816b1a4bfc76c',
    'tw-16-2-0-mimick-default': 'a0da53b7c83c667f',
    'tw-16-2-0-mimick-12': 'f15bd64fb370ba3e',
    'tw-16-2-1-identity-default': 'ac022925e08cb2f1',
    'tw-16-2-1-identity-12': 'e50db3cbb7ebb4e1',
    'tw-16-2-1-mimick-default': 'ac022925e08cb2f1',
    'tw-16-2-1-mimick-12': 'b86ab97f8ab3bb2e',
    'tw-16-2-2-identity-default': 'b291fbd97384e7a9',
    'tw-16-2-2-identity-12': '9ec76906bdc59ffe',
    'tw-16-2-2-mimick-default': 'b291fbd97384e7a9',
    'tw-16-2-2-mimick-12': 'a490b6bd3605e08d',
}


class TestPinnedStructured:
    @pytest.mark.parametrize("case", sorted(PINNED_STRUCTURED))
    def test_outputs_are_bit_identical(self, case, structured_fingerprints):
        assert structured_fingerprints[case] == PINNED_STRUCTURED[case]

    def test_pin_covers_every_case(self, structured_fingerprints):
        assert structured_fingerprints.keys() == PINNED_STRUCTURED.keys()
