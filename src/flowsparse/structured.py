"""Structured sparsifiers: the exact small-terminal mimicking base case,
series-parallel recursion, and the treewidth recursion.

The mimicking construction is a closed form in the input's terminal-
bipartition min cuts, in rational arithmetic: a clique on the terminals and,
at k = 4, a uniform star through one auxiliary vertex (`_fit_clique_star`
gives the algebra and why every capacity is nonnegative).  It reproduces
every bipartition cut, and for up to four terminals the flow-cut gap is one,
so it is flow-exact: quality 1, proven.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .flow import mincut_partition
from .network import (
    TerminalNetwork,
    components,
    terminal_bipartitions,
)
from .results import SparsifierResult
from .splice import compose


class StructureError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Mimicking networks for k <= 4
# ---------------------------------------------------------------------------

def _cut_targets(net):
    return [((A, B), mincut_partition(net, A, B)) for A, B in
            terminal_bipartitions(net.terminals)]


def mimick_small(net: TerminalNetwork) -> SparsifierResult:
    """Exact mimicking network on at most k+1 vertices for k <= 4.

    All 2^(k-1)-1 terminal-bipartition min cuts are reproduced exactly in
    rational arithmetic, so the quality 1 is proven: for k <= 4 the flow-cut
    gap is one, and cut-exact implies flow-exact.
    """
    k = net.k
    if k > 4:
        raise StructureError("mimicking base case needs k <= 4")
    terminals = net.terminals
    if k <= 1:
        out = TerminalNetwork.make(terminals, terminals, [],
                                   allow_disconnected=True)
        return SparsifierResult.of(out, "mimick-small", 1.0, params={"k": k})
    out = _fit_clique_star(terminals, _cut_targets(net))
    return SparsifierResult.of(out, "mimick-small", 1.0,
                               params={"k": k, "aux": len(out.vertices) - k})


def _fit_clique_star(terminals, targets):
    """The clique on the terminals plus, at k = 4, a uniform star through one
    auxiliary vertex, whose bipartition cuts are the targets.

    With f(X) the target cut of terminal side X (0 for the whole set), the
    clique gets x_ij = (f({i}) + f({j}) - f({i, j})) / 2, so x = f at k = 2;
    at k <= 3 these are the only equations.  At k = 4 let S be the sum of the
    4 singleton cuts and P the sum of the 3 pair-split cuts, and join every
    terminal to the auxiliary vertex with c = (P - S) / 2.  The star cuts a
    singleton in c and a pair split in 2c.  Summing x_tj over j != t gives
    (3 f({t}) + (S - f({t})) - P) / 2 = f({t}) - c, so every singleton cut
    is f({t}).  The pair split ij|kl cuts x_ik + x_il + x_jk + x_jl, the two
    singleton sums of i and j less 2 x_ij, that is f({i, j}) - 2c, and the
    star adds 2c.

    Every x_ij >= 0 because terminal min-cut functions are submodular.  And
    c >= 0: take min cuts X1, X2, X3 of ab|cd, ac|bd and ad|bc, each holding
    a.  U_a = X1 & X2 & X3, U_b = X1 - (X2 | X3), U_c = X2 - (X1 | X3) and
    U_d = X3 - (X1 | X2) each hold only the terminal they are named after,
    so S is at most the sum of their cut capacities.  Any two of them differ
    in two of X1, X2, X3, so an edge crosses at most as many of their cuts
    as of X1, X2, X3, and that sum is at most P.  Targets that are no
    min-cut function can break either bound, and raise.
    """
    f = {frozenset(side): val for sides, val in targets for side in sides}
    pairs = [tuple(sorted(p)) for p in itertools.combinations(terminals, 2)]
    caps = [(f[frozenset([i])] + f[frozenset([j])] - f.get(frozenset([i, j]), 0)) / 2
            for i, j in pairs]
    star = 0
    if len(terminals) == 4:
        star = (sum(val for (A, _), val in targets if len(A) == 2)
                - sum(f[frozenset([t])] for t in terminals)) / 2
    if min(caps + [star]) < 0:
        raise StructureError("mimicking fit failed: the cut values are not "
                             "a terminal min-cut function")
    edges = [(u, v, c) for (u, v), c in zip(pairs, caps)]
    verts = list(terminals)
    if star > 0:
        aux = "_aux"
        while aux in terminals:
            aux += "x"
        edges += [(t, aux, star) for t in terminals]
        verts.append(aux)
    return TerminalNetwork.make(verts, terminals, edges, allow_disconnected=True)


# ---------------------------------------------------------------------------
# Series-parallel decomposition trees
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpLeaf:
    u: str
    v: str
    cap: Fraction


@dataclass(frozen=True)
class SpSeries:
    left: "SpNode"
    right: "SpNode"
    middle: str
    u: str
    v: str


@dataclass(frozen=True)
class SpParallel:
    left: "SpNode"
    right: "SpNode"
    u: str
    v: str


SpNode = SpLeaf | SpSeries | SpParallel


def sp_portals(node: SpNode) -> tuple[str, str]:
    return node.u, node.v


@dataclass(frozen=True)
class SpTree:
    root: SpNode

    @property
    def portals(self) -> tuple[str, str]:
        return sp_portals(self.root)

    def leaves(self) -> int:
        def count(n):
            if isinstance(n, SpLeaf):
                return 1
            return count(n.left) + count(n.right)
        return count(self.root)

    def to_json_dict(self) -> dict:
        def enc(n):
            if isinstance(n, SpLeaf):
                return {"type": "leaf", "u": n.u, "v": n.v, "cap": str(n.cap)}
            kind = "series" if isinstance(n, SpSeries) else "parallel"
            d = {"type": kind, "u": n.u, "v": n.v,
                 "left": enc(n.left), "right": enc(n.right)}
            if kind == "series":
                d["middle"] = n.middle
            return d
        return {"portals": list(self.portals), "root": enc(self.root)}

    @staticmethod
    def from_json_dict(d: dict) -> "SpTree":
        def dec(nd):
            kind = nd["type"]
            if kind == "leaf":
                return SpLeaf(u=nd["u"], v=nd["v"], cap=Fraction(nd["cap"]))
            if kind not in ("series", "parallel"):
                raise StructureError(f"malformed SP-tree JSON: node type {kind!r}")
            left, right = dec(nd["left"]), dec(nd["right"])
            if kind == "series":
                return SpSeries(left=left, right=right, middle=nd["middle"],
                                u=nd["u"], v=nd["v"])
            return SpParallel(left=left, right=right, u=nd["u"], v=nd["v"])
        try:
            return SpTree(root=dec(d["root"]))
        except (KeyError, TypeError, AttributeError) as exc:
            raise StructureError(f"malformed SP-tree JSON: {exc!r}") from exc


def sp_vertices(node: SpNode) -> set[str]:
    if isinstance(node, SpLeaf):
        return {node.u, node.v}
    return sp_vertices(node.left) | sp_vertices(node.right)


def sp_edges(node: SpNode, skip: SpNode | None = None) -> list:
    if node is skip:
        return []
    if isinstance(node, SpLeaf):
        return [(node.u, node.v, node.cap)]
    return sp_edges(node.left, skip) + sp_edges(node.right, skip)


def sp_realize(node: SpNode, terminals, *, skip: SpNode | None = None,
               extra_vertices=()) -> TerminalNetwork:
    edges = sp_edges(node, skip)
    verts = set()
    for u, v, _ in edges:
        verts.add(u)
        verts.add(v)
    verts |= set(extra_vertices)
    terms = [t for t in terminals if t in verts]
    return TerminalNetwork.make(sorted(verts), terms, edges,
                                allow_disconnected=True)


def sp_validate(node: SpNode) -> None:
    """Check the composition rules: series children share exactly the middle,
    parallel children share both portals."""
    if isinstance(node, SpLeaf):
        if node.u == node.v:
            raise StructureError("leaf with identical endpoints")
        return
    lu, lv = sp_portals(node.left)
    ru, rv = sp_portals(node.right)
    if isinstance(node, SpSeries):
        if {node.u, node.middle} != {lu, lv} or {node.middle, node.v} != {ru, rv}:
            raise StructureError("series children portals inconsistent")
    else:
        if {node.u, node.v} != {lu, lv} or {node.u, node.v} != {ru, rv}:
            raise StructureError("parallel children portals inconsistent")
    sp_validate(node.left)
    sp_validate(node.right)


def sp_recognize(net: TerminalNetwork, s: str | None = None,
                 t: str | None = None) -> SpTree:
    """Recognise an s-t series-parallel network by repeated parallel merges
    and degree-2 series contractions, logging the operations as a tree.

    Without given portals, candidate pairs are tried (terminal pairs first);
    raises "not series-parallel" when no pair works (e.g. K4).
    """
    if s is not None and t is not None:
        tree = _sp_reduce(net, s, t)
        if tree is None:
            raise StructureError(f"not series-parallel between {s} and {t}")
        return tree
    cands = list(itertools.combinations(net.terminals, 2))
    rest = [v for v in net.vertices if v not in net.terminal_set]
    cands += [(a, b) for a in net.terminals for b in rest]
    cands += list(itertools.combinations(rest, 2))
    for a, b in cands:
        tree = _sp_reduce(net, a, b)
        if tree is not None:
            return tree
    raise StructureError("not series-parallel")


def _sp_reduce(net: TerminalNetwork, s: str, t: str) -> SpTree | None:
    items: list[tuple[str, str, SpNode]] = [
        (u, v, SpLeaf(u=u, v=v, cap=c)) for u, v, c in net.edges]
    if not items:
        return None
    while len(items) > 1:
        progress = False
        # parallel merges
        groups: dict[frozenset, list[int]] = {}
        for i, (u, v, _) in enumerate(items):
            groups.setdefault(frozenset((u, v)), []).append(i)
        for key, idxs in sorted(groups.items(), key=lambda kv: sorted(kv[0])):
            if len(idxs) >= 2:
                i, j = idxs[0], idxs[1]
                u, v, n1 = items[i]
                _, _, n2 = items[j]
                merged = (u, v, SpParallel(left=n1, right=n2, u=u, v=v))
                items = [it for x, it in enumerate(items) if x not in (i, j)]
                items.append(merged)
                progress = True
                break
        if progress:
            continue
        # series contractions at non-portal degree-2 vertices
        degree: dict[str, list[int]] = {}
        for i, (u, v, _) in enumerate(items):
            degree.setdefault(u, []).append(i)
            degree.setdefault(v, []).append(i)
        for x in sorted(degree):
            if x in (s, t) or len(degree[x]) != 2:
                continue
            i, j = degree[x]
            u1, v1, n1 = items[i]
            u2, v2, n2 = items[j]
            a = u1 if v1 == x else v1
            b = u2 if v2 == x else v2
            if a == b:
                continue   # becomes a parallel pair instead
            merged = (a, b, SpSeries(left=n1, right=n2, middle=x, u=a, v=b))
            items = [it for y, it in enumerate(items) if y not in (i, j)]
            items.append(merged)
            progress = True
            break
        if not progress:
            return None
    u, v, node = items[0]
    if {u, v} != {s, t}:
        return None
    return SpTree(root=node)


def sp_tree_realizes(tree: SpTree, net: TerminalNetwork) -> bool:
    realized = sp_realize(tree.root, net.terminals)
    return realized.vertices == net.vertices and realized.edges == net.edges


# ---------------------------------------------------------------------------
# Exact series-parallel sparsifier
# ---------------------------------------------------------------------------

def sp_sparsifier(net: TerminalNetwork, tree: SpTree | None = None) -> SparsifierResult:
    """Exact (quality 1) sparsifier with O(k) vertices for series-parallel
    networks; the tree's portals are promoted to terminals.

    Recursion: descend to the deepest subtree still containing every internal
    terminal, mimick the 4-terminal remainder around it, recurse on its
    children (promoting portals and series middles to terminals), and glue
    everything back with the composition lemma.
    """
    if tree is None:
        tree = sp_recognize(net)
    sp_validate(tree.root)
    if not sp_tree_realizes(tree, net):
        raise StructureError("decomposition tree does not realize the network")
    s, t = tree.portals
    terms: set[str] = set(net.terminals) | {s, t}
    built = _sp_build(tree.root, frozenset(terms))
    # intermediate portals/middles promoted during the recursion are demoted
    # again: a sparsifier for a superset of terminals is one for the subset
    ordered = list(net.terminals)
    ordered += [x for x in (s, t) if x not in ordered]
    missing = [x for x in ordered if x not in set(built.vertices)]
    if missing:
        raise StructureError(f"terminals {missing} lost during recursion")
    out = TerminalNetwork.make(built.vertices, ordered, built.edges,
                               allow_disconnected=True)
    return SparsifierResult.of(out, "series-parallel", 1.0,
                               params={"leaves": tree.leaves(),
                                       "terminals": len(ordered)})


def _children(node: SpNode):
    if isinstance(node, SpLeaf):
        return []
    return [node.left, node.right]


def _sp_build(node: SpNode, terms: frozenset[str], depth: int = 0) -> TerminalNetwork:
    """An exact sparsifier of `node`'s realization for the terminals `terms`:
    mimicking networks glued with `compose`, all of quality 1."""
    if depth > 10000:
        raise StructureError("series-parallel recursion failed to shrink")
    s, t = sp_portals(node)
    inside = (terms & sp_vertices(node)) - {s, t}
    if len(inside) <= 2:
        piece = sp_realize(node, sorted(inside | {s, t}))
        return mimick_small(piece).net

    cur = node
    while True:
        nxt = [c for c in _children(cur) if inside <= sp_vertices(c)]
        if not nxt:
            break
        cur = nxt[0]
    s2, t2 = sp_portals(cur)

    # a series node's children meet in its middle vertex, which must stay
    # a terminal on both sides; parallel children meet in their portals
    new_terms = terms | {s2, t2}
    if isinstance(cur, SpSeries):
        new_terms |= {cur.middle}
    h1 = _sp_build(cur.left, new_terms, depth + 1)
    h2 = _sp_build(cur.right, new_terms, depth + 1)
    shared = sorted(h1.terminal_set & h2.terminal_set)
    inner, _ = compose(h1, h2, {x: x for x in shared}, 1.0, 1.0)

    if cur is node:
        return inner

    rest_terms = sorted({s, t, s2, t2})
    rest = sp_realize(node, rest_terms, skip=cur, extra_vertices=(s2, t2, s, t))
    rest_net = mimick_small(rest).net
    shared = sorted(rest_net.terminal_set & inner.terminal_set)
    glued, _ = compose(rest_net, inner, {x: x for x in shared}, 1.0, 1.0)
    return glued


# ---------------------------------------------------------------------------
# Tree decompositions and the treewidth recursion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TreeDecomposition:
    bags: tuple[frozenset[str], ...]
    edges: tuple[tuple[int, int], ...]

    @property
    def width(self) -> int:
        return max((len(b) for b in self.bags), default=1) - 1

    def validate_for(self, net: TerminalNetwork) -> None:
        covered = set().union(*self.bags) if self.bags else set()
        if not set(net.vertices) <= covered:
            raise StructureError("tree decomposition misses vertices")
        for u, v, _ in net.edges:
            if not any(u in b and v in b for b in self.bags):
                raise StructureError(f"edge {u}-{v} not covered by any bag")
        # occurrences of each vertex must form a subtree
        adj: dict[int, list[int]] = {i: [] for i in range(len(self.bags))}
        for i, j in self.edges:
            if i not in adj or j not in adj:
                raise StructureError(f"malformed tree decomposition: edge "
                                     f"{i}-{j} names a bag it does not have")
            adj[i].append(j)
            adj[j].append(i)
        for x in net.vertices:
            occ = [i for i, b in enumerate(self.bags) if x in b]
            if not occ:
                raise StructureError(f"vertex {x} in no bag")
            seen = {occ[0]}
            stack = [occ[0]]
            occ_set = set(occ)
            while stack:
                i = stack.pop()
                for j in adj[i]:
                    if j in occ_set and j not in seen:
                        seen.add(j)
                        stack.append(j)
            if seen != occ_set:
                raise StructureError(f"occurrences of {x} are disconnected")

    def restrict(self, keep) -> "TreeDecomposition":
        keep = set(keep)
        return TreeDecomposition(
            bags=tuple(frozenset(b & keep) for b in self.bags),
            edges=self.edges)

    def to_json_dict(self) -> dict:
        return {"bags": [sorted(b) for b in self.bags],
                "edges": [list(e) for e in self.edges]}

    @staticmethod
    def from_json_dict(d: dict) -> "TreeDecomposition":
        try:
            return TreeDecomposition(
                bags=tuple(frozenset(b) for b in d["bags"]),
                edges=tuple((int(i), int(j)) for i, j in d["edges"]))
        except (KeyError, TypeError, AttributeError) as exc:
            raise StructureError(f"malformed tree decomposition JSON: {exc!r}") from exc


def balanced_terminal_separator(net: TerminalNetwork, tdec: TreeDecomposition,
                                terminals=None) -> frozenset[str]:
    """A bag X such that every component of G - X holds at most 2/3 of the
    terminals outside X.  Verified by direct component counting, not assumed."""
    terms = set(terminals if terminals is not None else net.terminals)
    best = None
    for bag in sorted(tdec.bags, key=sorted):
        if not bag:
            continue
        outside = terms - bag
        limit = Fraction(2, 3) * len(outside)
        ok = True
        for comp in components(net, bag):
            if len(comp & terms) > limit:
                ok = False
                break
        if ok:
            best = frozenset(bag)
            break
    if best is None:
        raise StructureError("no bag is a balanced terminal separator "
                             "(invalid tree decomposition?)")
    return best


def identity_leaf(net: TerminalNetwork) -> SparsifierResult:
    return SparsifierResult.of(net, "identity-leaf", 1.0)


def mimick_leaf(net: TerminalNetwork) -> SparsifierResult:
    if net.k <= 4:
        return mimick_small(net)
    return identity_leaf(net)


LEAF_BUILDERS = {"identity": identity_leaf, "mimick": mimick_leaf}


def treewidth_sparsifier(net: TerminalNetwork, tdec: TreeDecomposition,
                         leaf_builder="identity",
                         leaf_threshold: int | None = None) -> SparsifierResult:
    """Recursive sparsifier for bounded-treewidth networks: split at a
    balanced bag separator, recurse on each component plus the separator
    (promoted to terminals), and glue with the composition lemma.

    The default leaf threshold 6*(w+1) guarantees the terminal count shrinks
    geometrically; a smaller threshold (>= w+2) exercises deeper recursion
    and stays correct because the separator condition and the shrink are
    verified at runtime.  The quality is the worst leaf quality.
    """
    if isinstance(leaf_builder, str):
        try:
            leaf_builder = LEAF_BUILDERS[leaf_builder]
        except KeyError:
            raise StructureError(f"unknown leaf builder {leaf_builder!r}")
    tdec.validate_for(net)
    w = tdec.width
    if leaf_threshold is None:
        leaf_threshold = 6 * (w + 1)
    if leaf_threshold < 4 * (w + 1):
        raise StructureError("leaf threshold below 4*(w+1) cannot guarantee "
                             "a shrinking terminal count")
    built, quality, depth = _tw_build(net, tdec, w, leaf_builder, 0,
                                      leaf_threshold)
    # separator vertices promoted during the recursion are demoted again
    missing = [x for x in net.terminals if x not in set(built.vertices)]
    if missing:
        raise StructureError(f"terminals {missing} lost during recursion")
    out = TerminalNetwork.make(built.vertices, net.terminals, built.edges,
                               allow_disconnected=True)
    return SparsifierResult.of(out, "treewidth", quality,
                               params={"width": w, "depth": depth})


def _tw_build(net, tdec, w, leaf_builder, depth, leaf_threshold):
    if net.k <= leaf_threshold:
        res = leaf_builder(net)
        return res.net, res.claimed_quality, depth
    X = balanced_terminal_separator(net, tdec)
    comps = components(net, X)
    if not comps:
        res = leaf_builder(net)
        return res.net, res.claimed_quality, depth
    pieces = []
    for n, comp in enumerate(comps):
        # the separator's own edges go to the first piece only
        keep = comp | X
        edges = [(u, v, c) for u, v, c in net.edges if u in keep and v in keep
                 and (n == 0 or u in comp or v in comp)]
        sub = TerminalNetwork.make(keep, sorted((net.terminal_set & comp) | X),
                                   edges, allow_disconnected=True)
        if sub.k >= net.k:
            raise StructureError("treewidth recursion failed to shrink the "
                                 "terminal count")
        piece, q, d = _tw_build(sub, tdec.restrict(keep), w, leaf_builder,
                                depth + 1, leaf_threshold)
        pieces.append((piece, q, d))
    acc, q_acc, d_max = pieces[0]
    for piece, q, d in pieces[1:]:
        shared = set(acc.terminal_set) & set(piece.terminal_set)
        acc, q_acc = compose(acc, piece, {x: x for x in sorted(shared)},
                             q_acc, q)
        d_max = max(d_max, d)
    return acc, q_acc, d_max
