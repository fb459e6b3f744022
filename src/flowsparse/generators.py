"""Deterministic instance generators for the graph families under study."""

from __future__ import annotations

import random
from fractions import Fraction

from .network import TerminalNetwork
from .structured import (
    SpLeaf,
    SpParallel,
    SpSeries,
    SpTree,
    TreeDecomposition,
    sp_realize,
    sp_vertices,
)


class GeneratorError(ValueError):
    pass


def _rand_cap(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(100, 1000), 100)


def gen_quasi_bipartite(k: int, n: int, seed: int) -> TerminalNetwork:
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
            edges.append((v, t, _rand_cap(rng)))
    return _joined(terms + mids, terms, edges, rng, "v")


def _joined(vertices: list[str], terms: list[str], edges: list, rng: random.Random,
            prefix: str) -> TerminalNetwork:
    """The drawn network, joined up: while it is disconnected, a new hub
    named `prefix` plus the non-terminal count joins the first terminal to
    the first terminal outside its component.  Every component of a draw
    holds a terminal; a hub is a one-vertex component on two terminals.
    (The loop body has no driver: no seeded net needs it, but user seeds may.)"""
    while True:
        net = TerminalNetwork.make(vertices, terms, edges, allow_disconnected=True)
        if net.is_connected():
            return net
        comp = net.component_of
        other = next(t for t in terms if comp[t] != comp[terms[0]])
        hub = f"{prefix}{len(vertices) - len(terms)}"
        vertices.append(hub)
        edges += [(hub, terms[0], _rand_cap(rng)), (hub, other, _rand_cap(rng))]


def gen_series_parallel(leaves: int, k: int, seed: int):
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
            return SpLeaf(u=u, v=v, cap=_rand_cap(rng))
        n1 = rng.randint(1, n - 1)
        if rng.random() < 0.5:
            m = fresh()
            return SpSeries(left=build(u, m, n1), right=build(m, v, n - n1),
                            middle=m, u=u, v=v)
        return SpParallel(left=build(u, v, n1), right=build(u, v, n - n1),
                          u=u, v=v)

    root = build("s", "t", leaves)
    internal = [x for x in sorted(sp_vertices(root)) if x not in ("s", "t")]
    rng.shuffle(internal)
    terms = ["s", "t"] + sorted(internal[:max(0, k - 2)])
    return sp_realize(root, terms), SpTree(root=root)


def gen_bounded_component(k: int, n: int, w: int, seed: int) -> TerminalNetwork:
    """Net whose non-terminal components have at most w vertices each; a
    disconnected draw gains hubs h<n-k>, h<n-k+1>, ... (`_joined`)."""
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
            edges.append((comp[i], comp[j], _rand_cap(rng)))
        # attach the component to >= 2 terminals (or all of them for k=2)
        anchors = rng.sample(terms, min(k, rng.randint(2, min(4, k))))
        for t in anchors:
            edges.append((rng.choice(comp), t, _rand_cap(rng)))
    return _joined(vertices, terms, edges, rng, "h")


def gen_treewidth(k: int, n: int, w: int, seed: int):
    """Partial w-tree plus its (width-w) tree decomposition, built
    constructively, with k random terminals.  Returns (net, tdec)."""
    if k < 2 or w < 1 or n < max(k, w + 1):
        raise GeneratorError("need k >= 2, w >= 1, n >= max(k, w+1)")
    rng = random.Random(seed)
    verts = [f"v{i}" for i in range(n)]
    edges = []
    bag_edges: list[tuple[int, int]] = []
    base = verts[:w + 1]
    for i in range(len(base)):
        for j in range(i + 1, len(base)):
            edges.append((base[i], base[j], _rand_cap(rng)))
    cliques = [tuple(base)]
    for v in verts[w + 1:]:
        host_idx = rng.randrange(len(cliques))
        host = cliques[host_idx]
        sub = tuple(sorted(rng.sample(host, min(w, len(host)))))
        for u in sub:
            edges.append((v, u, _rand_cap(rng)))
        bag_edges.append((host_idx, len(cliques)))
        cliques.append(sub + (v,))
    terms = sorted(rng.sample(verts, k))
    net = TerminalNetwork.make(verts, terms, edges)
    tdec = TreeDecomposition(bags=tuple(frozenset(c) for c in cliques),
                             edges=tuple(bag_edges))
    return net, tdec
