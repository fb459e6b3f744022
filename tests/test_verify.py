import hashlib
import json
import math
import random
import sys
from fractions import Fraction

import pytest

from flowsparse import DemandVector, TerminalNetwork, concurrent_flow, sample_sparsifier
from flowsparse import network
from flowsparse.flow import mincut_partition
from flowsparse.generators import gen_quasi_bipartite, gen_series_parallel
from flowsparse.structured import mimick_small
from flowsparse.network import terminal_bipartitions
from flowsparse.verify import (
    CutRecord,
    CutReport,
    VerifyError,
    basis_demands,
    certify,
    certify_cuts,
    demand_grid,
    disc_demands,
    random_demands,
)

from conftest import fresh, random_connected_net, random_demand, rational_net


# (demand count per net, sha256 prefix of repr of their entries) for
# test_disc_order_is_pinned
DISC_PIN = ([31, 32], "b2fc99a7988d1282")


def star():
    return TerminalNetwork.make(
        ["v", "a", "b", "c"], ["a", "b", "c"],
        [("v", "a", 2), ("v", "b", 2), ("v", "c", 2)])


def doubled(net):
    return TerminalNetwork.make(net.vertices, net.terminals,
                                [(u, v, c * 2) for u, v, c in net.edges])


class TestDemandGrids:
    def test_basis_count(self):
        assert len(basis_demands(star())) == 3

    def test_random_empty(self):
        assert random_demands(star(), 0, 1) == []

    def test_random_deterministic_and_feasible(self, monkeypatch):
        # drawn without an LP: certify's ratios do not depend on scale
        import flowsparse.lp

        def tripwire(*args, **kwargs):
            raise AssertionError("simplex_min ran while drawing demands")
        monkeypatch.setattr(flowsparse.lp, "simplex_min", tripwire)
        a = random_demands(star(), 5, 7)
        b = random_demands(star(), 5, 7)
        assert a == b
        assert all(not d.is_zero and d.restricted_to(star().terminals) for d in a)

    def test_disc_single_edge(self):
        net = TerminalNetwork.make(["s", "t"], ["s", "t"], [("s", "t", 10)])
        ds = disc_demands(net, 0.5, 0.1)
        vals = sorted(d[("s", "t")] for d in ds)
        assert all(abs(v - 1.5 ** round(__import__("math").log(v, 1.5))) < 1e-9
                   for v in vals)
        assert min(vals) >= 1.0 - 1e-9 and max(vals) <= 10 + 1e-9

    def test_disc_order_is_pinned(self):
        """Pairs in sorted order, each pair's powers largest first."""
        nets = [gen_quasi_bipartite(3, 8, seed=5),
                gen_series_parallel(10, 3, 6)[0]]
        got = []
        for net in nets:
            ds = disc_demands(net, 0.25, 0.1)
            keys = [(d.pairs()[0], -d[d.pairs()[0]]) for d in ds]
            assert keys == sorted(keys) and len(set(keys)) == len(keys)
            got.append([d.entries for d in ds])
        assert [len(g) for g in got] == DISC_PIN[0]
        assert hashlib.sha256(repr(got).encode()).hexdigest()[:16] == DISC_PIN[1]

    @pytest.mark.parametrize("eps", [0.05, 0.1, 0.25])
    def test_disc_keeps_the_power_just_above_f(self, eps):
        """F a hair (1e-13 relative) below a power of 1+eps still lists
        that power, as every other grid test allows 1e-12 of float dust."""
        for j in (-3, 0, 4):
            f = (1 + eps) ** j * (1 - 1e-13)
            net = TerminalNetwork.make(["s", "t"], ["s", "t"],
                                       [("s", "t", Fraction(f))])
            ds = disc_demands(net, eps, 0.5)
            assert ds[0][("s", "t")] == (1 + eps) ** j

    def test_spec_string_dispatch(self):
        assert len(demand_grid(star(), "basis")) == 3
        assert len(demand_grid(star(), "random:4:1")) == 4
        assert demand_grid(star(), "disc:0.5:0.1")
        with pytest.raises(VerifyError):
            demand_grid(star(), "bogus")


class TestCertify:
    def test_identity_is_exactly_one(self):
        net = star()
        rep = certify(net, net, basis_demands(net), claimed_q=1.0)
        assert rep.lower == 1.0
        assert rep.upper == 1.0
        assert rep.verdict

    def test_doubled_capacities(self):
        net = star()
        rep = certify(net, doubled(net), basis_demands(net), claimed_q=2.0)
        assert rep.upper == pytest.approx(2.0, rel=1e-9)
        assert rep.verdict
        rep_tight = certify(net, doubled(net), basis_demands(net), claimed_q=1.5)
        assert not rep_tight.verdict

    def test_symmetry_swaps_roles(self):
        rng = random.Random(2)
        g = random_connected_net(rng, 8, 3)
        gp = doubled(g)
        ds = random_demands(g, 5, 3)
        fwd = certify(g, gp, ds, claimed_q=2.0)
        rev = certify(gp, g, ds, claimed_q=2.0)
        assert fwd.lower == pytest.approx(rev.upper, rel=1e-9)
        assert fwd.upper == pytest.approx(rev.lower, rel=1e-9)

    def test_merge_based_lower_is_one(self):
        rng = random.Random(3)
        net = random_connected_net(rng, 9, 4)
        res = mimick_small(net)
        rep = certify(net, res.net, random_demands(net, 8, 5), claimed_q=1.0)
        assert rep.lower <= 1 + 1e-6
        assert rep.verdict

    def test_terminal_mismatch(self):
        g = star()
        other = TerminalNetwork.make(["v", "a", "b", "z"], ["a", "b", "z"],
                                     [("v", "a", 2), ("v", "b", 2), ("v", "z", 2)])
        with pytest.raises(VerifyError):
            certify(g, other, basis_demands(g), 1.0)

    def test_nan_claim_raises(self):
        # a NaN claim failed every comparison, so it read as a failed verdict
        net = star()
        with pytest.raises(VerifyError, match="NaN"):
            certify(net, net, basis_demands(net), float("nan"))

    def test_disconnected_candidate_is_a_failed_verdict(self):
        g = gen_quasi_bipartite(5, 60, seed=1)
        gp = sample_sparsifier(g, 0.5, 0).net
        assert not gp.is_connected()
        rep = certify(g, gp, demand_grid(g, "random:5:1"), 1.5)
        assert rep.lower == math.inf and not rep.verdict
        assert all(r.lam_candidate == 0.0 for r in rep.records)
        doc = json.loads(json.dumps(rep.to_json_dict(), allow_nan=False))
        assert doc["lower"] is None and doc["verdict"] == "fail"

    def test_split_pair_only_zeroes_its_demand(self):
        g = star()
        gp = TerminalNetwork.make(g.vertices, g.terminals,
                                  [("v", "a", 2), ("v", "b", 2)],
                                  allow_disconnected=True)
        ab, ac = DemandVector.of({("a", "b"): 1.0}), DemandVector.of({("a", "c"): 1.0})
        rep = certify(g, gp, [ab, ac], 1.0)
        assert [r.lam_candidate for r in rep.records] == [2.0, 0.0]
        assert rep.upper == 1.0 and rep.lower == math.inf and not rep.verdict

    def test_candidate_components_are_labelled_once(self):
        g = gen_quasi_bipartite(5, 60, seed=1)
        gp = sample_sparsifier(g, 0.5, 0).net
        labelled = []

        def profile(frame, event, arg):
            # a call of `components` under any name it was imported as
            if event == "call" and frame.f_code is network.components.__code__:
                labelled.append(frame.f_locals["net"])
        sys.setprofile(profile)
        try:
            for d in demand_grid(g, "random:8:1"):
                certify(g, gp, [d], math.inf)
        finally:
            sys.setprofile(None)
        assert sum(net is gp for net in labelled) <= 1

    def test_report_serializes(self):
        net = star()
        rep = certify(net, net, basis_demands(net), 1.0)
        doc = rep.to_json_dict()
        assert doc["verdict"] == "pass"
        assert doc["witness_set_only"] is True


class TestCertifyCuts:
    def test_identity_all_one(self):
        net = star()
        rep = certify_cuts(net, net)
        assert rep.all_exact and rep.beta == 1.0

    def test_doubled_ratio_two(self):
        net = star()
        rep = certify_cuts(net, doubled(net))
        assert not rep.all_exact
        assert rep.beta == pytest.approx(2.0)

    def test_mimick_exact(self):
        rng = random.Random(5)
        net = random_connected_net(rng, 10, 4)
        res = mimick_small(net)
        rep = certify_cuts(net, res.net)
        assert rep.all_exact

    def test_cut_the_base_lacks_gives_infinite_beta(self):
        g = TerminalNetwork.make(["a", "b", "c"], ["a", "b", "c"], [("a", "b", 1)],
                                 allow_disconnected=True)
        gp = TerminalNetwork.make(g.vertices, g.terminals,
                                  [("a", "b", 1), ("b", "c", 1)])
        rep = certify_cuts(g, gp)
        assert rep.beta == math.inf and not rep.all_exact
        doc = json.loads(json.dumps(rep.to_json_dict(), allow_nan=False))
        assert doc["beta"] is None

    def test_budget_guard(self):
        rng = random.Random(6)
        net = random_connected_net(rng, 20, 17)   # above the 16-terminal budget
        with pytest.raises(VerifyError):
            certify_cuts(net, net)


def certify_cuts_per_split(g, gp):
    """`certify_cuts` as one `mincut_partition` per bipartition and network,
    compared as Fractions."""
    records, beta, all_exact = [], Fraction(0), True
    for A, B in terminal_bipartitions(g.terminals):
        base, cand = mincut_partition(g, A, B), mincut_partition(gp, A, B)
        records.append(CutRecord(side_a=A, cut_base=base, cut_candidate=cand))
        all_exact = all_exact and base == cand
        if base > 0:
            beta = max(beta, cand / base)
        elif cand > 0:
            beta = math.inf
    return CutReport(beta=float(beta), all_exact=all_exact, records=lambda: tuple(records))


def cut_certificate_cases():
    """(g, gp) pairs on 30 seeded nets with k = 2-5, every third with
    capacities past 2^61: gp is g, its mimicking network (k <= 4) or g with
    one capacity raised and one lowered, each also with its terminals
    shuffled; and two bases that leave a bipartition uncut, which gp cuts."""
    cases = []
    for seed in range(30):
        rng = random.Random(8100 + seed)
        k = 2 + seed % 4
        g = rational_net(rng, rng.randint(k + 1, k + 8), k, shift=61 if seed % 3 == 2 else 0)
        edges = list(g.edges)
        for i, factor in zip(rng.sample(range(len(edges)), 2), (Fraction(3, 2), Fraction(1, 2))):
            u, v, c = edges[i]
            edges[i] = (u, v, c * factor)
        gps = [g, TerminalNetwork.make(g.vertices, g.terminals, edges)]
        if g.k <= 4:
            gps.append(mimick_small(g).net)
        for gp in gps:
            order = list(gp.terminals)
            rng.shuffle(order)
            cases += [(g, gp), (g, TerminalNetwork.make(gp.vertices, order, gp.edges))]
    g = TerminalNetwork.make(["a", "b", "c", "d"], ["a", "b", "c", "d"],
                             [("a", "b", 1), ("c", "d", "2/3")], allow_disconnected=True)
    gp = TerminalNetwork.make(g.vertices, ["d", "b", "c", "a"],
                              [("a", "b", 1), ("b", "c", "1/5"), ("c", "d", "2/3")])
    cases.append((g, gp))
    g = TerminalNetwork.make(["a", "b", "c"], ["a", "b", "c"], [("a", "b", 1)],
                             allow_disconnected=True)
    cases.append((g, TerminalNetwork.make(g.vertices, ["c", "a", "b"],
                                          [("a", "b", 1), ("a", "c", 4)])))
    return cases


class TestCertifyCutsTable:
    """`certify_cuts` reads the cut tables whole at k >= 3 (the candidate's
    when its terminals are in the base's order); its report equals the one
    built from a cut per bipartition in every case."""

    @pytest.fixture(scope="class")
    def cases(self):
        return cut_certificate_cases()

    def test_cases_cover_every_path(self, cases):
        assert len({g for g, _ in cases}) >= 30
        assert {g.k for g, _ in cases} == {2, 3, 4, 5}
        assert any(gp.terminals != g.terminals for g, gp in cases if g.k == 2)
        assert sum(gp.terminals != g.terminals for g, gp in cases if g.k > 2) >= 30
        assert any(max(g.bipartition_cuts) >= 2 ** 63 for g, _ in cases if g.k > 2)
        reps = [certify_cuts(g, gp) for g, gp in cases]
        assert sum(r.all_exact for r in reps) >= 30
        assert sum(math.isinf(r.beta) for r in reps) == 2

    def test_table_read_equals_a_cut_per_bipartition(self, cases, monkeypatch):
        with monkeypatch.context() as patch:
            # no table anywhere: each cut by its own flow
            patch.setattr(network, "_CUT_TABLE_MAX_ENTRIES", 0)
            want = [certify_cuts_per_split(fresh(g), fresh(gp)).to_json_dict()
                    for g, gp in cases]
            assert [certify_cuts(fresh(g), fresh(gp)).to_json_dict()
                    for g, gp in cases] == want
        for (g, gp), rep in zip(cases, want):
            g, gp = fresh(g), fresh(gp)
            got = certify_cuts(g, gp)
            assert got.to_json_dict() == rep
            assert all(type(c) is Fraction for r in got.records
                       for c in (r.cut_base, r.cut_candidate))
            if g.k == 2:    # one bipartition: no table is built
                assert "bipartition_cuts" not in g.__dict__
                assert "bipartition_cuts" not in gp.__dict__
            else:
                assert g.__dict__["bipartition_cuts"] is not None
                assert gp.__dict__["bipartition_cuts"] is not None

    def test_one_table_not_taken(self, cases, monkeypatch):
        for g, gp in cases:
            if g.k == 2:
                continue
            want = certify_cuts(fresh(g), fresh(gp)).to_json_dict()
            for side in (0, 1):
                pair = [fresh(g), fresh(gp)]
                assert pair[side].bipartition_cuts is not None
                with monkeypatch.context() as patch:
                    patch.setattr(network, "_CUT_TABLE_MAX_ENTRIES", 0)
                    assert certify_cuts(*pair).to_json_dict() == want
                assert pair[1 - side].bipartition_cuts is None

    def test_records_are_built_on_first_read(self, cases, monkeypatch):
        made = []
        init = CutRecord.__init__

        def counted(self, *args, **kwargs):
            made.append(self)
            init(self, *args, **kwargs)
        monkeypatch.setattr(CutRecord, "__init__", counted)
        for g, gp in cases:
            want = certify_cuts_per_split(fresh(g), fresh(gp))
            made.clear()
            got = certify_cuts(fresh(g), fresh(gp))
            assert not made and (got.beta, got.all_exact) == (want.beta, want.all_exact)
            assert got.records == want.records
            assert len(made) == len(want.records)
            assert got.records is got.records and len(made) == len(want.records)
            assert got.to_json_dict() == want.to_json_dict()
