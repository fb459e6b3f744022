import hashlib
import json
import math
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from flowsparse import (
    DemandVector,
    TerminalNetwork,
    concurrent_flow,
)
from flowsparse.merging import (
    ZERO,
    MergeError,
    _gamma_exponents,
    _round_down_to_gamma,
    profile_bucket_sparsifier,
    ratio_type_sparsifier,
    _pow_floor_exact,
)
from flowsparse.sampling import grouped_sample_sparsifier, sample_sparsifier
from flowsparse.sketch import BudgetExceeded
from flowsparse.verify import certify, disc_demands, random_demands
from flowsparse.generators import gen_quasi_bipartite

from conftest import ONE_BLAS_THREAD, child_env, random_demand


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

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_default_demand_set_certifies_at_k2(self, seed):
        # at k = 2 the sketch's grid dictionary fits the dual-solve budget
        net = gen_quasi_bipartite(2, 12, seed)
        res = profile_bucket_sparsifier(net, 0.1)
        assert 0 < res.params_dict()["demands"] <= 500
        rep = certify(net, res.net, disc_demands(net, 0.1, 0.1),
                      res.claimed_quality)
        assert rep.verdict, (rep.lower, rep.upper)

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
        # the terminal edge is taken as it is, so no vertex is added
        net = TerminalNetwork.make(["a", "b", "u"], ["a", "b"],
                                   [("a", "b", 4), ("a", "u", 2), ("u", "b", 3)])
        ds = [DemandVector.of({("a", "b"): 1.0})]
        res = profile_bucket_sparsifier(net, 0.1, ds)
        assert len(res.net.vertices) <= len(net.vertices)
        assert res.net.cap("a", "b") == 4


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



def with_terminal_edges(seed):
    """`gen_quasi_bipartite(5, 40, 100 + seed)` plus 4 to 8 edges between
    distinct terminal pairs."""
    net = gen_quasi_bipartite(5, 40, 100 + seed)
    rng = random.Random(seed)
    pairs = rng.sample(net.terminal_pairs(), rng.randint(4, 8))
    extra = [(s, t, Fraction(rng.randint(100, 1000), 100)) for s, t in pairs]
    return TerminalNetwork.make(net.vertices, net.terminals, list(net.edges) + extra)


PASS_THROUGH = {
    "sample": lambda net, ds: sample_sparsifier(net, 8, 1),
    "sample-grouped": lambda net, ds: grouped_sample_sparsifier(net, 1, 8, 1),
    "ratio": lambda net, ds: ratio_type_sparsifier(net, Fraction(1, 4)),
    "clump": lambda net, ds: profile_bucket_sparsifier(net, 0.25, ds),
}


@pytest.mark.parametrize("method", sorted(PASS_THROUGH))
@pytest.mark.parametrize("seed", range(4))
def test_terminal_edges_pass_through(method, seed):
    """Quasi-bipartite constructions take terminal-terminal edges as they
    are: each survives exactly (ratio types round it up by at most 1 + eps),
    the output is no larger than the input, and merging loses no flow."""
    net = with_terminal_edges(seed)
    ts = net.terminal_set
    assert net.is_quasi_bipartite() and not net.terminals_independent()
    ds = random_demands(net, 6, seed)
    res = PASS_THROUGH[method](net, ds)
    assert len(res.net.vertices) <= len(net.vertices)
    for s, t, c in net.edges:
        if s in ts and t in ts:
            if method == "ratio":
                assert c <= res.net.cap(s, t) <= c * Fraction(5, 4)
            else:
                assert res.net.cap(s, t) == c
    if method in ("ratio", "clump"):
        assert certify(net, res.net, ds, claimed_q=2.0).lower <= 1 + 1e-6


def _merge_cases():
    """{case: (net, epsilon, demand set or None for the default set)}."""
    cases = {}
    # at k = 2 the ratio types merge 40 vertices to 15-17
    for k, n, seed in ((5, 60, 11), (5, 60, 12), (5, 60, 13), (2, 40, 1), (2, 40, 2)):
        net = gen_quasi_bipartite(k, n, seed=seed)
        rng = random.Random(seed)
        cases[f"qb-{k}-{n}-{seed}"] = (net, 0.25,
                                       [random_demand(rng, net) for _ in range(8)])
    # every rounded length of the nets above is ZERO, so they merge by
    # neighbour set; with the capacities divided by 100 the demands' keys
    # differ: 28-32 vertices under one demand, 35 under all eight
    g = gen_quasi_bipartite(5, 60, seed=11)
    net = TerminalNetwork.make(g.vertices, g.terminals,
                               [(u, v, c / 100) for u, v, c in g.edges])
    rng = random.Random(11)
    cases["qb-5-60-11-cap100"] = (net, 0.25, [random_demand(rng, net) for _ in range(8)])
    cases["default-2-12"] = (gen_quasi_bipartite(2, 12, seed=1), 0.1, None)
    return cases


def _merge_fingerprints():
    """(vertex count, sha256 prefix of repr((vertices, terminals, edges,
    params))) per case and construction, each case on its own network
    objects, so from a cold flow record."""
    out = {}
    for case, (net, eps, demands) in _merge_cases().items():
        for name, res in (("ratio", ratio_type_sparsifier(net, eps)),
                          ("profile", profile_bucket_sparsifier(net, eps, demands))):
            h = res.net
            text = repr((h.vertices, h.terminals, h.edges, res.params))
            out[f"{case}-{name}"] = [len(h.vertices),
                                     hashlib.sha256(text.encode()).hexdigest()[:16]]
    return out


@pytest.fixture(scope="module")
def merge_fingerprints():
    """The fingerprints from a fresh interpreter with one BLAS thread, where
    the oracle's duals, and so the profile keys, have fixed bits."""
    tests = Path(__file__).resolve().parent
    code = "import json, test_merging as T\nprint(json.dumps(T._merge_fingerprints()))\n"
    proc = subprocess.run([sys.executable, "-c", code], cwd=tests,
                          env=child_env(**ONE_BLAS_THREAD),
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


# A change that keeps the merge constructions' outputs keeps these equal.
PINNED_MERGES = {
    'qb-5-60-11-ratio': [60, '678326885222e2bb'],
    'qb-5-60-11-profile': [26, 'a6802af3ed5f6532'],
    'qb-5-60-12-ratio': [60, '4733b953d5954596'],
    'qb-5-60-12-profile': [27, '4f16eba89594e185'],
    'qb-5-60-13-ratio': [58, '3be68044741b3c41'],
    'qb-5-60-13-profile': [27, '63d1eac67e0db762'],
    'qb-2-40-1-ratio': [17, '366f6f4c09a70d24'],
    'qb-2-40-1-profile': [3, '8362b909a2d9f8e4'],
    'qb-2-40-2-ratio': [15, '47a4b4972d5d41ff'],
    'qb-2-40-2-profile': [3, 'ff47ea52a35c37d0'],
    'qb-5-60-11-cap100-ratio': [58, '70b38cd07c6bee1e'],
    'qb-5-60-11-cap100-profile': [35, 'd3bd3279562d6839'],
    'default-2-12-ratio': [11, '54fd0909b40b8edc'],
    'default-2-12-profile': [3, '804830e3812f1820'],
}


class TestPinnedMerges:
    @pytest.mark.parametrize("case", sorted(PINNED_MERGES))
    def test_outputs_are_bit_identical(self, case, merge_fingerprints):
        assert merge_fingerprints[case] == PINNED_MERGES[case]

    def test_pin_covers_every_case(self, merge_fingerprints):
        assert merge_fingerprints.keys() == PINNED_MERGES.keys()
        default = _merge_cases()["default-2-12"][0]
        assert merge_fingerprints["default-2-12-profile"][0] < len(default.vertices)


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
