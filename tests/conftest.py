import itertools
import os
import random
from dataclasses import dataclass
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
