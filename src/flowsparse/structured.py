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

import heapq
import itertools
from dataclasses import dataclass
from fractions import Fraction

from .flow import mincut_partition
from .network import TerminalNetwork, _as_capacity, _pair, components, terminal_bipartitions
from .results import SparsifierResult
from .splice import compose


class StructureError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Mimicking networks for k <= 4
# ---------------------------------------------------------------------------

def _cut_targets(net):
    """(scale, targets): each terminal bipartition with its min cut as an int
    at the cut scale, read from `bipartition_cuts` at k >= 3 where taken."""
    splits = list(terminal_bipartitions(net.terminals))
    scale = net.cut_view[0]
    cuts = net.bipartition_cuts if net.k > 2 else None
    if cuts is None:
        cuts = [int(mincut_partition(net, A, B) * scale) for A, B in splits]
    return scale, list(zip(splits, cuts))


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
    if k <= 1:   # within the k <= 4 contract: no cut to fit, and no driver passes one
        out = TerminalNetwork.make(terminals, terminals, [],
                                   allow_disconnected=True)
        return SparsifierResult.of(out, "mimick-small", 1.0, params={"k": k})
    out = _fit_clique_star(terminals, *_cut_targets(net))
    return SparsifierResult.of(out, "mimick-small", 1.0,
                               params={"k": k, "aux": len(out.vertices) - k})


def _fit_clique_star(terminals, scale, targets):
    """The clique on the terminals plus, at k = 4, a uniform star through one
    auxiliary vertex, whose bipartition cuts are the targets: ints at
    `scale`, fitted as ints over 2 * scale, one `Fraction` per output edge.

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
    pairs = [_pair(*p) for p in itertools.combinations(terminals, 2)]
    caps = [f[frozenset([i])] + f[frozenset([j])] - f.get(frozenset([i, j]), 0)
            for i, j in pairs]
    star = 0
    if len(terminals) == 4:
        star = (sum(val for (A, _), val in targets if len(A) == 2)
                - sum(f[frozenset([t])] for t in terminals))
    if min(caps + [star]) < 0:
        raise StructureError("mimicking fit failed: the cut values are not "
                             "a terminal min-cut function")
    edges = [(u, v, Fraction(c, 2 * scale)) for (u, v), c in zip(pairs, caps)]
    verts = list(terminals)
    if star > 0:
        aux = "_aux"
        while aux in terminals:
            aux += "x"
        edges += [(t, aux, Fraction(star, 2 * scale)) for t in terminals]
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


@dataclass(frozen=True)
class SpTree:
    root: SpNode

    @property
    def portals(self) -> tuple[str, str]:
        return self.root.u, self.root.v

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
            kind, u, v = nd["type"], nd["u"], nd["v"]
            for key in ("u", "v", "middle")[:3 if kind == "series" else 2]:
                if not isinstance(nd[key], str):
                    raise StructureError(f"malformed SP-tree JSON: {key!r} is not a string")
            if kind == "leaf":
                return SpLeaf(u=u, v=v, cap=_as_capacity(nd["cap"], u, v))
            if kind not in ("series", "parallel"):
                raise StructureError(f"malformed SP-tree JSON: node type {kind!r}")
            left, right = dec(nd["left"]), dec(nd["right"])
            if kind == "series":
                return SpSeries(left=left, right=right, middle=nd["middle"], u=u, v=v)
            return SpParallel(left=left, right=right, u=u, v=v)
        try:
            return SpTree(root=dec(d["root"]))
        except StructureError:
            raise
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
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
    lu, lv = node.left.u, node.left.v
    ru, rv = node.right.u, node.right.v
    if isinstance(node, SpSeries):
        if {node.u, node.middle} != {lu, lv} or {node.middle, node.v} != {ru, rv}:
            raise StructureError("series children portals inconsistent")
    else:
        if {node.u, node.v} != {lu, lv} or {node.u, node.v} != {ru, rv}:
            raise StructureError("parallel children portals inconsistent")
    sp_validate(node.left)
    sp_validate(node.right)


def sp_recognize(net: TerminalNetwork) -> SpTree:
    """Recognise an s-t series-parallel network by series contractions and
    the parallel merges they create, logging the operations as a tree.

    Candidate portal pairs are tried terminal pairs first, then a terminal
    with a non-terminal, then two non-terminals, one pass each; raises "not
    series-parallel" when no pair works (e.g. K4).
    """
    rest = [v for v in net.vertices if v not in net.terminal_set]
    for a, b in itertools.chain(itertools.combinations(net.terminals, 2),
                                itertools.product(net.terminals, rest),
                                itertools.combinations(rest, 2)):
        tree = _sp_reduce(net, a, b)
        if tree is not None:
            return tree
    raise StructureError("not series-parallel")


def _sp_reduce(net: TerminalNetwork, s: str, t: str) -> SpTree | None:
    """One worklist pass: series-contract the least-named non-portal vertex
    of degree 2 until none is left, merging the new item at once in parallel
    with the one already on its pair, if any (the older item is `left` and
    gives the orientation).  A canonical network has one edge per pair, so
    no other parallel pair arises.  The tree, if the pass ends in one item
    on {s, t}; else None."""
    items: dict[int, tuple[str, str, SpNode]] = {}
    nbrs: dict[str, dict[str, int]] = {x: {} for x in net.vertices}
    ids = itertools.count()

    def add(u, v, node):
        i = next(ids)
        items[i] = (u, v, node)
        nbrs[u][v] = nbrs[v][u] = i

    for u, v, c in net.edges:
        add(u, v, SpLeaf(u=u, v=v, cap=c))
    heap = [x for x, nb in nbrs.items() if len(nb) == 2 and x not in (s, t)]
    heapq.heapify(heap)
    while heap:
        x = heapq.heappop(heap)
        if len(nbrs[x]) != 2:
            continue
        (a, i), (b, j) = sorted(nbrs.pop(x).items(), key=lambda kv: kv[1])
        del nbrs[a][x], nbrs[b][x]
        node = SpSeries(left=items.pop(i)[2], right=items.pop(j)[2],
                        middle=x, u=a, v=b)
        if b in nbrs[a]:
            a, b, older = items.pop(nbrs[a][b])
            node = SpParallel(left=older, right=node, u=a, v=b)
            for y in (a, b):
                if len(nbrs[y]) == 2 and y not in (s, t):
                    heapq.heappush(heap, y)
        add(a, b, node)
    if len(items) != 1:
        return None
    (u, v, node), = items.values()
    return SpTree(root=node) if {u, v} == {s, t} else None


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
    everything back with the composition lemma.  Every step recurses on the
    tree, so a tree deeper than the interpreter's recursion limit raises.
    """
    if tree is None:
        tree = sp_recognize(net)
    try:
        sp_validate(tree.root)
        if not sp_tree_realizes(tree, net):
            raise StructureError("decomposition tree does not realize the network")
        built = _sp_build(tree.root, frozenset(net.terminals) | set(tree.portals))
        leaves = tree.leaves()
    except RecursionError:
        raise StructureError("series-parallel tree is deeper than the recursion "
                             "limit allows") from None
    # intermediate portals/middles promoted during the recursion are demoted
    # again: a sparsifier for a superset of terminals is one for the subset
    ordered = list(net.terminals)
    ordered += [x for x in tree.portals if x not in ordered]
    out = TerminalNetwork.make(built.vertices, ordered, built.edges,
                               allow_disconnected=True)
    return SparsifierResult.of(out, "series-parallel", 1.0,
                               params={"leaves": leaves,
                                       "terminals": len(ordered)})


def _sp_build(node: SpNode, terms: frozenset[str]) -> TerminalNetwork:
    """An exact sparsifier of `node`'s realization for the terminals `terms`:
    mimicking networks glued with `compose`, all of quality 1."""
    s, t = node.u, node.v
    inside = (terms & sp_vertices(node)) - {s, t}
    if len(inside) <= 2:
        piece = sp_realize(node, sorted(inside | {s, t}))
        return mimick_small(piece).net

    # no leaf holds the three or more vertices of `inside`
    cur = node
    while nxt := [c for c in (cur.left, cur.right) if inside <= sp_vertices(c)]:
        cur = nxt[0]
    s2, t2 = cur.u, cur.v

    # a series node's children meet in its middle vertex, which must stay
    # a terminal on both sides; parallel children meet in their portals
    new_terms = terms | {s2, t2}
    if isinstance(cur, SpSeries):
        new_terms |= {cur.middle}
    h1 = _sp_build(cur.left, new_terms)
    h2 = _sp_build(cur.right, new_terms)
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
            if not all(type(b) is list and all(type(x) is str for x in b) for b in d["bags"]):
                raise TypeError("a bag is not a list of vertex names")
            return TreeDecomposition(
                bags=tuple(frozenset(b) for b in d["bags"]),
                edges=tuple((int(i), int(j)) for i, j in d["edges"]))
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise StructureError(f"malformed tree decomposition JSON: {exc!r}") from exc


def balanced_terminal_separator(net: TerminalNetwork,
                                tdec: TreeDecomposition) -> frozenset[str]:
    """A bag X such that every component of G - X holds at most 2/3 of the
    terminals outside X.  Verified by direct component counting, not assumed."""
    terms = net.terminal_set
    for bag in sorted(tdec.bags, key=sorted):
        limit = Fraction(2, 3) * len(terms - bag)
        if bag and all(len(comp & terms) <= limit for comp in components(net, bag)):
            return frozenset(bag)
    raise StructureError("no bag is a balanced terminal separator "
                         "(invalid tree decomposition?)")


def identity_leaf(net: TerminalNetwork) -> SparsifierResult:
    return SparsifierResult.of(net, "identity-leaf", 1.0)


def mimick_leaf(net: TerminalNetwork) -> SparsifierResult:
    if net.k <= 4:
        return mimick_small(net)
    return identity_leaf(net)


LEAF_BUILDERS = {"identity": identity_leaf, "mimick": mimick_leaf}


def treewidth_sparsifier(net: TerminalNetwork, tdec: TreeDecomposition,
                         leaf_builder: str = "identity",
                         leaf_threshold: int | None = None) -> SparsifierResult:
    """Recursive sparsifier for bounded-treewidth networks: split at a
    balanced bag separator, recurse on each component plus the separator
    (promoted to terminals), and glue with the composition lemma.

    The default leaf threshold 6*(w+1) guarantees the terminal count shrinks
    geometrically; a smaller threshold (>= w+2) exercises deeper recursion
    and stays correct because the separator condition and the shrink are
    verified at runtime.  The quality is the worst leaf quality.
    `leaf_builder` names an entry of LEAF_BUILDERS.
    """
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
    # separator vertices promoted during the recursion are demoted again;
    # an output equal to `net` is `net` itself, with its cached views and
    # flow record
    out = TerminalNetwork.make(built.vertices, net.terminals, built.edges,
                               allow_disconnected=True)
    if out == net:
        out = net
    return SparsifierResult.of(out, "treewidth", quality,
                               params={"width": w, "depth": depth})


def _tw_build(net, tdec, w, leaf_builder, depth, leaf_threshold):
    if net.k <= leaf_threshold:
        res = leaf_builder(net)
        return res.net, res.claimed_quality, depth
    # X has at most w + 1 < k vertices, so some terminal lies outside it
    X = balanced_terminal_separator(net, tdec)
    pieces = []
    for n, comp in enumerate(components(net, X)):
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
