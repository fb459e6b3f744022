"""Deterministic instance generators for the graph families under study."""

from __future__ import annotations

import random
from fractions import Fraction

from .network import TerminalNetwork, components
from .structured import (
    SpLeaf,
    SpParallel,
    SpSeries,
    SpTree,
    TreeDecomposition,
    sp_realize,
)


class GeneratorError(ValueError):
    pass


def _rand_cap(rng: random.Random, lo: int = 1, hi: int = 10) -> Fraction:
    return Fraction(rng.randint(lo * 100, hi * 100), 100)


def gen_quasi_bipartite(k: int, n: int, seed: int, *,
                        cap_lo: int = 1, cap_hi: int = 10) -> TerminalNetwork:
    """Connected quasi-bipartite net: k terminals, n-k independent middles,
    each attached to 2..min(4,k) random terminals."""
    if k < 2 or n <= k:
        raise GeneratorError("need k >= 2 and n > k")
    rng = random.Random(seed)
    terms = [f"t{i}" for i in range(k)]
    mids = [f"v{i}" for i in range(n - k)]
    edges = []
    for v in mids:
        deg = rng.randint(2, min(4, k))
        for t in rng.sample(terms, deg):
            edges.append((v, t, _rand_cap(rng, cap_lo, cap_hi)))
    # deterministically stitch terminal components together; every middle
    # touches a terminal, so a disconnected net has two or more of them
    # (kept without a driver: no seeded net needs it, but user seeds may)
    while True:
        net = TerminalNetwork.make(terms + mids, terms, edges,
                                   allow_disconnected=True)
        if net.is_connected():
            return net
        comp_reps = _component_terminals(net)
        hub = f"v{len(mids)}"
        mids.append(hub)
        edges.append((hub, comp_reps[0], _rand_cap(rng, cap_lo, cap_hi)))
        edges.append((hub, comp_reps[1], _rand_cap(rng, cap_lo, cap_hi)))


def _component_terminals(net: TerminalNetwork) -> list[str]:
    """The first terminal, in terminal order, of each component holding one."""
    component_of = {v: i for i, comp in enumerate(components(net)) for v in comp}
    reps: dict[int, str] = {}
    for t in net.terminals:
        reps.setdefault(component_of[t], t)
    return list(reps.values())


def gen_series_parallel(leaves: int, k: int, seed: int, *,
                        cap_lo: int = 1, cap_hi: int = 10):
    """Random series-parallel net with the given leaf count; terminals are
    the two portals plus k-2 random internal vertices.
    Returns (net, SpTree)."""
    if leaves < 1 or k < 2:
        raise GeneratorError("need leaves >= 1 and k >= 2")
    rng = random.Random(seed)
    counter = [0]

    def fresh() -> str:
        counter[0] += 1
        return f"x{counter[0]}"

    def build(u: str, v: str, n: int):
        if n == 1:
            return SpLeaf(u=u, v=v, cap=_rand_cap(rng, cap_lo, cap_hi))
        n1 = rng.randint(1, n - 1)
        if rng.random() < 0.5:
            m = fresh()
            return SpSeries(left=build(u, m, n1), right=build(m, v, n - n1),
                            middle=m, u=u, v=v)
        return SpParallel(left=build(u, v, n1), right=build(u, v, n - n1),
                          u=u, v=v)

    root = build("s", "t", leaves)
    tree = SpTree(root=root)
    # realize once to learn the vertex set, then pick internal terminals
    shell = sp_realize(root, ["s", "t"])
    internal = [x for x in shell.vertices if x not in ("s", "t")]
    rng.shuffle(internal)
    terms = ["s", "t"] + sorted(internal[:max(0, k - 2)])
    net = TerminalNetwork.make(shell.vertices, terms,
                               [(u, v, c) for u, v, c in shell.edges],
                               allow_disconnected=True)
    return net, tree


def gen_bounded_component(k: int, n: int, w: int, seed: int, *,
                          cap_lo: int = 1, cap_hi: int = 10) -> TerminalNetwork:
    """Net whose non-terminal components have at most w vertices each."""
    if k < 2 or w < 1 or n <= k:
        raise GeneratorError("need k >= 2, w >= 1, n > k")
    rng = random.Random(seed)
    terms = [f"t{i}" for i in range(k)]
    vertices = list(terms)
    edges = []
    idx = 0
    while len(vertices) < n:
        size = rng.randint(1, min(w, n - len(vertices)))
        comp = [f"c{idx}_{i}" for i in range(size)]
        idx += 1
        vertices.extend(comp)
        for i in range(1, size):
            j = rng.randrange(i)
            edges.append((comp[i], comp[j], _rand_cap(rng, cap_lo, cap_hi)))
        # attach the component to >= 2 terminals (or all of them for k=2)
        anchors = rng.sample(terms, min(k, rng.randint(2, min(4, k))))
        for t in anchors:
            edges.append((rng.choice(comp), t, _rand_cap(rng, cap_lo, cap_hi)))
    net = TerminalNetwork.make(vertices, terms, edges, allow_disconnected=True)
    if not net.is_connected():
        # anchor terminals pairwise through the first component (kept without
        # a driver: no seeded net needs it, but user seeds may)
        first = [v for v in vertices if v.startswith("c0_")][0]
        for t in terms:
            if not net.adjacency[t]:
                edges.append((first, t, _rand_cap(rng, cap_lo, cap_hi)))
        net = TerminalNetwork.make(vertices, terms, edges,
                                   allow_disconnected=True)
        if not net.is_connected():
            for t in terms[1:]:
                edges.append((first, t, _rand_cap(rng, cap_lo, cap_hi)))
            net = TerminalNetwork.make(vertices, terms, edges)
    return net


def gen_treewidth(k: int, n: int, w: int, seed: int, *,
                  cap_lo: int = 1, cap_hi: int = 10):
    """Partial w-tree plus its (width-w) tree decomposition, built
    constructively, with k random terminals.  Returns (net, tdec)."""
    if k < 2 or w < 1 or n < max(k, w + 1):
        raise GeneratorError("need k >= 2, w >= 1, n >= max(k, w+1)")
    rng = random.Random(seed)
    verts = [f"v{i}" for i in range(n)]
    edges = []
    bags: list[frozenset] = []
    bag_edges: list[tuple[int, int]] = []
    base = verts[:w + 1]
    for i in range(len(base)):
        for j in range(i + 1, len(base)):
            edges.append((base[i], base[j], _rand_cap(rng, cap_lo, cap_hi)))
    bags.append(frozenset(base))
    cliques = [tuple(base)]
    for v in verts[w + 1:]:
        host_idx = rng.randrange(len(cliques))
        host = cliques[host_idx]
        sub = tuple(sorted(rng.sample(host, min(w, len(host)))))
        for u in sub:
            edges.append((v, u, _rand_cap(rng, cap_lo, cap_hi)))
        bags.append(frozenset(sub + (v,)))
        bag_edges.append((host_idx, len(bags) - 1))
        cliques.append(sub + (v,))
    terms = sorted(rng.sample(verts, k))
    net = TerminalNetwork.make(verts, terms, edges)
    tdec = TreeDecomposition(bags=tuple(bags), edges=tuple(bag_edges))
    return net, tdec
