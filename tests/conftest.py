import heapq
import itertools
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from flowsparse import DemandVector, TerminalNetwork
from flowsparse.flow import FlowError


def pytest_terminal_summary(terminalreporter):
    """Surface one line per acceptance criterion in the run summary."""
    try:
        from test_acceptance import RESULT_LINES
    except ImportError:
        return
    if RESULT_LINES:
        terminalreporter.section("acceptance criteria")
        for line in RESULT_LINES:
            terminalreporter.write_line(line)


def child_env(**extra) -> dict:
    """Environment for a child interpreter that imports this flowsparse and
    the test modules, whether or not PYTHONPATH names them."""
    import flowsparse
    path = [str(Path(flowsparse.__file__).resolve().parent.parent),
            str(Path(__file__).resolve().parent)]
    path += [p for p in [os.environ.get("PYTHONPATH")] if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path), **extra)


ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"}


def skew_duality_gap(monkeypatch):
    """Make every float simplex report an objective 1% off its duals."""
    import flowsparse.lp
    real = flowsparse.lp.simplex_min

    def skewed(*args, **kwargs):
        x, value, y, basis, Binv, it = real(*args, **kwargs)
        return x, value - 0.01 * max(1.0, abs(value)), y, basis, Binv, it
    monkeypatch.setattr(flowsparse.lp, "simplex_min", skewed)


def _shortest(net: TerminalNetwork, lengths: dict, source: str) -> dict:
    """Dijkstra from `source` over `net.adjacency`; an edge missing from
    `lengths` has length 0."""
    dist = {source: 0.0}
    heap = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v in net.adjacency[u]:
            nd = d + lengths.get((u, v) if u <= v else (v, u), 0.0)
            if nd < dist.get(v, np.inf):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def check_certificates(net: TerminalNetwork, demand, res, tol: float = 1e-6) -> dict:
    """Check a concurrent-flow result's certificates on the network itself,
    apart from the oracle's own code, and return the primal's edge loads.

    The primal `res.flow` must conserve each pair's flow, send value * d_p
    from s and load no edge past its capacity.  The dual `res.dual` must
    report no pair distance above the shortest path under its lengths, and
    sum(d_p * dist_p) >= 1.  By weak duality the value is then at most
    sum(c * l) / sum(d_p * dist_l(p)), which must lie within tol of it.
    """
    if not isinstance(demand, DemandVector):
        demand = DemandVector.of(demand)
    lam = res.value
    loads: dict = {}
    for (s, t), arcs in res.flow.arc_flows:
        balance: dict = {}
        for (u, v), f in arcs:
            e = (u, v) if u <= v else (v, u)
            loads[e] = loads.get(e, 0.0) + f
            balance[u] = balance.get(u, 0.0) + f
            balance[v] = balance.get(v, 0.0) - f
        for v, bal in balance.items():
            assert v in (s, t) or abs(bal) <= tol * max(1.0, lam), \
                f"conservation violated at {v} for {(s, t)}"
        want = lam * demand[(s, t)]
        assert abs(balance.get(s, 0.0) - want) <= tol * max(1.0, want), \
            f"routed amount mismatch for {(s, t)}"
    for e, load in loads.items():
        cap = float(net.cap(*e))
        assert load <= cap + tol * max(1.0, cap), f"capacity violated on {e}"
    lengths = res.dual.length_map()
    trees: dict = {}
    routed = reported = 0.0
    for (s, t), d in res.dual.dists:
        if s not in trees:
            trees[s] = _shortest(net, lengths, s)
        dist, want = trees[s].get(t, np.inf), demand[(s, t)]
        assert d <= dist + tol, f"distance above shortest path for {(s, t)}"
        if want:        # an undemanded pair may be out of reach
            routed += want * dist
            reported += want * d
    assert reported >= 1.0 - tol, "dual demand constraint violated"
    cost = sum(float(net.cap(*e)) * l for e, l in lengths.items())
    assert abs(cost / routed - lam) <= tol * max(1.0, lam), "weak-duality bound off the value"
    return loads


def random_connected_net(rng: random.Random, n: int, k: int,
                         cap_lo: int = 1, cap_hi: int = 10,
                         extra_edges: int | None = None) -> TerminalNetwork:
    """Random connected net: a spanning tree plus a few chords."""
    vs = [f"v{i}" for i in range(n)]
    edges = []
    for i in range(1, n):
        j = rng.randrange(i)
        edges.append((vs[i], vs[j], rng.randint(cap_lo, cap_hi)))
    if extra_edges is None:
        extra_edges = rng.randint(0, n)
    for _ in range(extra_edges):
        i, j = rng.sample(range(n), 2)
        edges.append((vs[i], vs[j], rng.randint(cap_lo, cap_hi)))
    return TerminalNetwork.make(vs, vs[:k], edges)


def rational_net(rng: random.Random, n: int, k: int, shift: int = 0) -> TerminalNetwork:
    """Random connected net whose capacities are Fraction(a, b) * 2^shift."""
    net = random_connected_net(rng, n, k)
    return TerminalNetwork.make(
        net.vertices, net.terminals,
        [(u, v, Fraction(rng.randint(1, 30) << shift, rng.randint(1, 7)))
         for u, v, _ in net.edges])


def fresh(net: TerminalNetwork) -> TerminalNetwork:
    """An equal network object, with no cached view, table or flow record."""
    return TerminalNetwork(net.vertices, net.terminals, net.edges)


def random_quasi_bipartite(rng: random.Random, k: int, n: int,
                           cap_lo: int = 1, cap_hi: int = 10) -> TerminalNetwork:
    """Random connected quasi-bipartite net with independent terminals."""
    terms = [f"t{i}" for i in range(k)]
    mids = [f"v{i}" for i in range(n - k)]
    edges = []
    for i, v in enumerate(mids):
        deg = rng.randint(2, min(4, k))
        for t in rng.sample(terms, deg):
            edges.append((v, t, rng.randint(cap_lo * 100, cap_hi * 100) / 100))
    net = TerminalNetwork.make(terms + mids, terms, edges, allow_disconnected=True)
    # stitch terminal components together through extra middles
    while not net.is_connected():
        comps = _terminal_components(net)
        hub = f"v{len(mids)}"
        mids.append(hub)
        edges.append((hub, min(comps[0]), cap_hi))
        edges.append((hub, min(comps[1]), cap_hi))
        net = TerminalNetwork.make(terms + mids, terms, edges, allow_disconnected=True)
    return net


PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def with_prime_denominators(rng: random.Random, net: TerminalNetwork) -> TerminalNetwork:
    """`net` with its capacities replaced by Fraction(a, p) in lowest terms,
    the primes p up to 50 dealt to the edges in a shuffled cycle, so that
    the integer view's scale is a product of many distinct primes (about
    6e17 once every prime is dealt)."""
    primes = rng.sample(PRIMES, len(PRIMES))
    edges = []
    for i, (u, v, _) in enumerate(net.edges):
        p = primes[i % len(primes)]
        edges.append((u, v, Fraction(p * rng.randint(0, 3) + rng.randint(1, p - 1), p)))
    return TerminalNetwork.make(net.vertices, net.terminals, edges)


def two_hop_split(net: TerminalNetwork) -> dict:
    """Per terminal pair (s, t), {v: min(c_sv, c_vt)} over the non-terminals
    v joined to both, in s's adjacency order: the split of the pair's 2-hop
    max flow over its middle vertices, as Fractions."""
    ts = net.terminal_set
    return {(s, t): {v: min(c, net.cap(v, t)) for v, c in net.adjacency[s].items()
                     if v not in ts and net.cap(v, t) > 0}
            for s, t in net.terminal_pairs()}


def _terminal_components(net):
    comps = []
    seen = set()
    for v in net.vertices:
        if v in seen:
            continue
        comp = {v}
        stack = [v]
        seen.add(v)
        while stack:
            u = stack.pop()
            for w in net.adjacency[u]:
                if w not in seen:
                    seen.add(w)
                    comp.add(w)
                    stack.append(w)
        cterms = comp & net.terminal_set
        if cterms:
            comps.append(cterms)
    return comps


def random_demand(rng: random.Random, net: TerminalNetwork,
                  density: float = 0.8, lo: float = 0.1, hi: float = 3.0) -> DemandVector:
    dd = {}
    for s, t in itertools.combinations(net.terminals, 2):
        if rng.random() < density:
            dd[(s, t)] = rng.uniform(lo, hi)
    if not dd:
        dd[(net.terminals[0], net.terminals[1])] = 1.0
    return DemandVector.of(dd)


@dataclass(frozen=True)
class Cut:
    side: frozenset[str]
    capacity: float
    separated_demand: float
    sparsity: float


def sparsest_cut(net: TerminalNetwork, demand, *,
                 max_vertices: int = 20) -> tuple[float, Cut]:
    """Exact sparsest cut by enumerating all vertex subsets: the brute-force
    reference for `sparsest_terminal_cut` and the flow-cut gap."""
    if not isinstance(demand, DemandVector):
        demand = DemandVector.of(demand)
    if demand.is_zero:
        raise FlowError("zero demand")
    n = len(net.vertices)
    if n > max_vertices:
        raise FlowError(
            f"{n} vertices exceeds the brute-force bound {max_vertices}; "
            "use sparsest_terminal_cut, which is exact over terminal bipartitions")
    vidx = {v: i for i, v in enumerate(net.vertices)}
    count = 1 << (n - 1)
    masks = (np.arange(count, dtype=np.int64) << 1) | 1   # vertex 0 pinned inside
    caps = np.zeros(count)
    for u, v, c in net.edges:
        side_u = (masks >> vidx[u]) & 1
        side_v = (masks >> vidx[v]) & 1
        caps += float(c) * (side_u != side_v)
    dem = np.zeros(count)
    for (s, t), val in demand.items():
        side_s = (masks >> vidx[s]) & 1
        side_t = (masks >> vidx[t]) & 1
        dem += val * (side_s != side_t)
    sparsity = np.full(count, np.inf)
    pos = dem > 0
    sparsity[pos] = caps[pos] / dem[pos]
    best = int(np.argmin(sparsity))
    mask = int(masks[best])
    side = frozenset(v for v, i in vidx.items() if (mask >> i) & 1)
    cut = Cut(side=side, capacity=float(caps[best]),
              separated_demand=float(dem[best]), sparsity=float(sparsity[best]))
    return float(sparsity[best]), cut
