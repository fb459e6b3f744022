import hashlib
import json
import math
import random
from fractions import Fraction

import pytest

from flowsparse import DemandVector, TerminalNetwork, concurrent_flow, sample_sparsifier
from flowsparse.generators import gen_quasi_bipartite, gen_series_parallel
from flowsparse.structured import mimick_small
from flowsparse.verify import (
    VerifyError,
    basis_demands,
    certify,
    certify_cuts,
    demand_grid,
    disc_demands,
    random_demands,
)

from conftest import random_connected_net, random_demand


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

    def test_random_deterministic_and_feasible(self):
        a = random_demands(star(), 5, 7)
        b = random_demands(star(), 5, 7)
        assert a == b
        for d in a:
            assert concurrent_flow(star(), d).value == pytest.approx(1.0, rel=1e-6)

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

    def test_disconnected_candidate_is_a_failed_verdict(self):
        g = gen_quasi_bipartite(5, 60, seed=1)
        gp = sample_sparsifier(g, 0.5, 0).net
        assert not gp.is_connected()
        rep = certify(g, gp, "random:5:1", 1.5)
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
