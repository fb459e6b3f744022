"""Terminal networks and the structural surgeries everything else builds on.

A terminal network is an undirected, edge-capacitated graph with a
distinguished ordered subset of terminal vertices.  Every network is in
canonical form however it is built (see `TerminalNetwork`), so code reading
one never re-sums, re-parses or filters its edges.  Capacities are exact
rationals (`Fraction`); LP-facing code converts to float at the boundary,
through `to_float`.  All types are immutable values; every operation returns
a new network.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

import numpy as np

Edge = tuple[str, str, Fraction]
_ZERO = Fraction(0)    # one shared default: building a Fraction is not cheap
# `bipartition_cuts` bounds: entries of any one matrix it builds, and the
# view's total integer capacity below which it sums in int64, not Python ints
_CUT_TABLE_MAX_ENTRIES = 1 << 20
_CUT_TABLE_MAX_CAPACITY = 1 << 61


class NetworkError(ValueError):
    pass


def _as_capacity(value, u: str, v: str) -> Fraction:
    """The capacity `value` of edge u-v as a `Fraction`, or `NetworkError`
    naming the edge ("1/0" has a zero denominator)."""
    if isinstance(value, Fraction):
        return value
    try:
        return Fraction(value)
    except (ValueError, OverflowError, TypeError, ZeroDivisionError) as exc:
        raise NetworkError(f"capacity {value!r} is not a finite number "
                           f"on {u!r}-{v!r}") from exc


def to_float(value, quantity: str, ends: tuple, scale: int = 1) -> float:
    """`value / scale` (exact: int or `Fraction`) as a float, or `NetworkError`
    naming the quantity and its two ends when it is past the float range."""
    try:
        return float(value) if scale == 1 else value / scale
    except OverflowError:
        raise NetworkError(f"{quantity} between {ends[0]} and {ends[1]} is "
                           f"past the float range") from None


def _pair(u: str, v: str) -> tuple[str, str]:
    return (u, v) if u <= v else (v, u)


class _first_read:
    """A property built on first read and kept in the instance's dict.  The
    `functools.cached_property` of Python 3.10 and 3.11 takes one lock per
    property for all instances, so first reads on two objects run one at a
    time; 3.12's takes none and can replace this once the floor is 3.12.
    Two threads reading one object at once may both build; both get the first."""

    def __init__(self, build):
        self.build, self.__doc__ = build, build.__doc__

    def __get__(self, obj, owner=None):
        # read on the class, it is the descriptor itself
        return self if obj is None else obj.__dict__.setdefault(
            self.build.__name__, self.build(obj))


class _HashedKey:
    """A tuple hashed once: dict lookups by it skip re-hashing every
    `Fraction` capacity, and equal keys compare by their tuples."""

    __slots__ = ("parts", "_hash")

    def __init__(self, parts: tuple):
        self.parts = parts
        self._hash = hash(parts)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        return self is other or (isinstance(other, _HashedKey)
                                 and self._hash == other._hash
                                 and self.parts == other.parts)

    def __reduce__(self):
        # string hashes differ between processes: hash again on unpickling
        return _HashedKey, (self.parts,)


@dataclass(frozen=True)
class TerminalNetwork:
    """Vertices, ordered terminal list, and canonical undirected edges.

    The constructor validates its arguments and stores them in canonical
    form, or raises `NetworkError`: vertices sorted; terminals distinct
    vertices, in the order given; edges (u, v, c) with u < v, sorted, one
    per vertex pair (parallel edges summed), c a positive `Fraction`.  Zero
    capacities are dropped.  `make` also checks that the network is
    connected.
    """

    vertices: tuple[str, ...]
    terminals: tuple[str, ...]
    edges: tuple[Edge, ...]

    def __post_init__(self):
        vertices = tuple(str(v) for v in self.vertices)
        terminals = tuple(str(t) for t in self.terminals)
        vset = set(vertices)
        if len(vset) != len(vertices):
            raise NetworkError("duplicate vertex ids")
        if len(set(terminals)) != len(terminals):
            raise NetworkError("duplicate terminals")
        for t in terminals:
            if t not in vset:
                raise NetworkError(f"terminal {t!r} is not a vertex")
        merged: dict[tuple[str, str], Fraction] = {}
        for e in self.edges:
            u, v = str(e[0]), str(e[1])
            cap = _as_capacity(e[2], u, v)
            if u == v:
                raise NetworkError(f"self-loop at {u!r}")
            if u not in vset or v not in vset:
                raise NetworkError(f"edge endpoint missing: {u!r}-{v!r}")
            if cap.numerator < 0:
                raise NetworkError(f"negative capacity on {u!r}-{v!r}")
            key = _pair(u, v)
            merged[key] = merged[key] + cap if key in merged else cap
        object.__setattr__(self, "vertices", tuple(sorted(vertices)))
        object.__setattr__(self, "terminals", terminals)
        object.__setattr__(self, "edges", tuple(
            (a, b, c) for (a, b), c in sorted(merged.items()) if c.numerator > 0))

    @staticmethod
    def make(vertices: Iterable[str], terminals: Iterable[str], edges: Iterable,
             *, allow_disconnected: bool = False) -> "TerminalNetwork":
        net = TerminalNetwork(vertices, terminals, edges)
        if not allow_disconnected and not net.is_connected():
            raise NetworkError("network is disconnected "
                               "(pass allow_disconnected=True to override)")
        return net

    # -- basic structure ---------------------------------------------------

    @_first_read
    def adjacency(self) -> dict[str, dict[str, Fraction]]:
        adj: dict[str, dict[str, Fraction]] = {v: {} for v in self.vertices}
        for u, v, c in self.edges:
            adj[u][v] = adj[v][u] = c
        return adj

    @_first_read
    def integer_view(self) -> tuple[int, dict[str, int], list[dict[int, int]]]:
        """(scale, index, arcs): the capacities times `scale`, the LCM of
        their denominators, as ints.  `index` numbers the vertices and
        `arcs[i]` maps each neighbour's index to the integer capacity of the
        edge between them."""
        scale = math.lcm(*(c.denominator for _, _, c in self.edges))
        index = {v: i for i, v in enumerate(self.vertices)}
        arcs: list[dict[int, int]] = [{} for _ in self.vertices]
        for u, v, c in self.edges:
            i, j = index[u], index[v]
            arcs[i][j] = arcs[j][i] = c.numerator * (scale // c.denominator)
        return scale, index, arcs

    @_first_read
    def cut_view(self) -> tuple[int, dict[str, int], list[dict[int, int]]]:
        """`integer_view` with non-terminals eliminated, in the same
        (scale, index, arcs) layout: `index` numbers only the surviving
        vertices.  Every min cut between two sets of terminals keeps its
        value; cuts with a non-terminal side need `integer_view`.  It is the
        first half of `reduction`; the flow oracle solves on the same view
        and lifts its certificates back through the second half."""
        return self.reduction[0]

    @_first_read
    def bipartition_cuts(self) -> tuple[int, ...] | None:
        """The min cut of every terminal bipartition in `cut_view`, as ints at
        the view's scale, in `terminal_bipartitions` order; None where the
        table is not taken.

        Once every terminal's side is fixed, each connected component of the
        view's non-terminals joins the sides in its cheapest way on its own,
        since no edge joins two components.  So a cut is the crossing
        capacity between the terminals plus, per component, the least over
        its 2^r side assignments.  One int64 product per component prices
        every assignment against every bipartition: with W[v, b] = c(v, A_b)
        and d_v = c(v, terminals), v costs W[v, b] on B's side and d_v - W on
        A's.  A single vertex costs min(c(v, A), c(v, B)); all of those are
        priced in one product.  None, and `max_flow` takes each cut on its
        own, when a matrix of the pass would hold more than
        `_CUT_TABLE_MAX_ENTRIES` entries (the bipartitions by k, a
        component's 2^r assignments by r and by the bipartitions, or the
        single vertices by the bipartitions).  The pass runs on int64 while
        the view's total capacity stays below `_CUT_TABLE_MAX_CAPACITY`,
        past which int64 sums could overflow, and on Python ints (object
        arrays) from there on.
        """
        _, index, arcs = self.cut_view
        k = len(self.terminals)
        if ((1 << (k - 1)) - 1) * k > _CUT_TABLE_MAX_ENTRIES:
            return None
        # the capacity sum counts every edge from both ends
        dtype = (np.int64 if sum(c for nbrs in arcs for c in nbrs.values())
                 < 2 * _CUT_TABLE_MAX_CAPACITY else object)
        sides = _bipartition_sides(k)[0]
        where = [-1] * len(arcs)    # a view vertex's terminal position
        for p, t in enumerate(self.terminals):
            where[index[t]] = p
        between = np.zeros((k, k), dtype=dtype)
        for p, t in enumerate(self.terminals):
            for j, c in arcs[index[t]].items():
                if where[j] >= 0:
                    between[p, where[j]] = c
        cuts = ((sides @ between) * (1 - sides)).sum(1)
        singles = []
        seen = set()
        for start, nbrs in enumerate(arcs):
            if where[start] >= 0 or start in seen:
                continue
            comp = [start]
            seen.add(start)
            for u in comp:
                for j in arcs[u]:
                    if where[j] < 0 and j not in seen:
                        seen.add(j)
                        comp.append(j)
            if len(comp) == 1:
                singles.append(nbrs)
                continue
            r = len(comp)
            if (1 << r) * max(r, len(sides)) > _CUT_TABLE_MAX_ENTRIES:
                return None
            local = {v: i for i, v in enumerate(comp)}
            attach = np.zeros((r, k), dtype=dtype)
            inner = []
            for i, v in enumerate(comp):
                for j, c in arcs[v].items():
                    if where[j] >= 0:
                        attach[i, where[j]] = c
                    elif local[j] > i:
                        inner.append((i, local[j], c))
            assign = (np.arange(1 << r)[:, None] >> np.arange(r)) & 1
            us, vs, cs = zip(*inner)
            us, vs, cs = np.array(us), np.array(vs), np.array(cs, dtype=dtype)
            W = attach @ sides.T
            cost = assign @ (attach.sum(1)[:, None] - 2 * W)
            cost += ((assign[:, us] != assign[:, vs]) @ cs)[:, None]
            cuts += W.sum(0) + cost.min(0)
        if len(singles) * len(sides) > _CUT_TABLE_MAX_ENTRIES:
            return None
        if singles:
            attach = np.zeros((len(singles), k), dtype=dtype)
            for i, nbrs in enumerate(singles):
                for j, c in nbrs.items():
                    attach[i, where[j]] = c
            W = attach @ sides.T
            cuts += np.minimum(W, attach.sum(1)[:, None] - W).sum(0)
        return tuple(cuts.tolist())

    @_first_read
    def reduction(self) -> tuple[tuple, tuple]:
        """(`cut_view`, eliminations): the eliminations, in order, as
        (v, ((u, c_u), ...), ((a, b, x), ...), scale) with `integer_view`
        vertex numbers: v's neighbours and capacities as the rule found
        them, each edge a-b the rule joined with its capacity x > 0, and the
        scale after the rule.  Each x is an int at that scale; the c_u are at
        the scale before, which a degree-3 rule may double.  The flow
        oracle's lift groups the network's edges with these joined ones.

        Three rules run through a worklist until none applies; the degree
        of a non-terminal v is its number of distinct neighbours.  Each
        rule replaces v's edges by edges among its neighbours whose cut
        equals, for every split of the neighbours, the cheapest side for v
        to join, so every cut of the surviving vertices keeps its value.
          - Degree <= 1: drop v.  It joins its neighbour's side for free.
          - Degree 2, capacities c1, c2: one edge of capacity min(c1, c2),
            what v pays when its two neighbours are split.
          - Degree 3, neighbours a, b, c: a triangle.  First clip each of
            c_a, c_b, c_c to the sum of the other two, since cutting off a
            alone costs v min(c_a, c_b + c_c).  Then
            x_ab = (c_a + c_b - c_c) / 2 and likewise, so cutting off a
            costs x_ab + x_ac = c_a.  An odd clipped sum doubles the scale
            and every capacity first, keeping the halves integers.
        Parallel edges merge by adding capacities.  The degree-3 rule keeps
        flows too: with three attachment vertices the cut condition
        suffices for multiflows, so every terminal concurrent flow keeps
        its value.
        """
        scale, index, arcs = self.integer_view
        adj = [dict(nbrs) for nbrs in arcs]
        fixed = {index[t] for t in self.terminals}
        alive = [True] * len(adj)
        steps = []

        def join(i: int, j: int, c: int) -> None:
            if c > 0:
                adj[i][j] = adj[i].get(j, 0) + c
                adj[j][i] = adj[j].get(i, 0) + c
                joined.append((i, j, c))

        work = deque(i for i in range(len(adj)) if i not in fixed)
        while work:
            v = work.popleft()
            if not alive[v] or len(adj[v]) > 3:
                continue
            nbrs = tuple(adj[v].items())
            joined = []
            alive[v] = False
            adj[v] = {}
            for u, _ in nbrs:
                del adj[u][v]
            if len(nbrs) == 2:
                (a, ca), (b, cb) = nbrs
                join(a, b, min(ca, cb))
            elif len(nbrs) == 3:
                (a, ca), (b, cb), (c, cc) = nbrs
                ca, cb, cc = min(ca, cb + cc), min(cb, ca + cc), min(cc, ca + cb)
                if (ca + cb + cc) % 2:
                    scale *= 2
                    for row in adj:
                        for j in row:
                            row[j] *= 2
                    ca, cb, cc = 2 * ca, 2 * cb, 2 * cc
                join(a, b, (ca + cb - cc) // 2)
                join(a, c, (ca + cc - cb) // 2)
                join(b, c, (cb + cc - ca) // 2)
            steps.append((v, nbrs, tuple(joined), scale))
            work.extend(u for u, _ in nbrs if u not in fixed)
        kept = [i for i in range(len(adj)) if alive[i]]
        renumber = {i: n for n, i in enumerate(kept)}
        view = (scale, {self.vertices[i]: renumber[i] for i in kept},
                [{renumber[j]: c for j, c in adj[i].items()} for i in kept])
        return view, tuple(steps)

    @_first_read
    def component_of(self) -> dict[str, int]:
        """Each vertex's connected component, numbered in `components` order."""
        return {v: i for i, comp in enumerate(components(self)) for v in comp}

    @_first_read
    def terminal_set(self) -> frozenset[str]:
        return frozenset(self.terminals)

    @_first_read
    def cache_key(self) -> "_HashedKey":
        return _HashedKey((self.terminals, self.edges, self.vertices))

    def cap(self, u: str, v: str) -> Fraction:
        return self.adjacency.get(u, {}).get(v, _ZERO)

    def terminal_pairs(self) -> list[tuple[str, str]]:
        return [_pair(s, t) for s, t in itertools.combinations(self.terminals, 2)]

    @property
    def k(self) -> int:
        return len(self.terminals)

    def is_connected(self) -> bool:
        return max(self.component_of.values(), default=0) == 0

    def is_quasi_bipartite(self) -> bool:
        """Non-terminals form an independent set."""
        ts = self.terminal_set
        return all(u in ts or v in ts for u, v, _ in self.edges)

    def terminals_independent(self) -> bool:
        ts = self.terminal_set
        return not any(u in ts and v in ts for u, v, _ in self.edges)


@dataclass(frozen=True)
class DemandVector:
    """Nonnegative demand per unordered terminal pair; absent pair means 0."""

    entries: tuple[tuple[tuple[str, str], float], ...]

    @staticmethod
    def of(mapping: Mapping | Iterable) -> "DemandVector":
        items = mapping.items() if isinstance(mapping, Mapping) else mapping
        acc: dict[tuple[str, str], float] = {}
        get = acc.get
        for pair, val in items:
            s, t = pair
            if s == t:
                raise NetworkError(f"demand on identical endpoints {s!r}")
            val = float(val)
            if not math.isfinite(val):
                raise NetworkError(f"demand on {pair} is not a finite number")
            if val < 0:
                raise NetworkError(f"negative demand on {pair}")
            s = s if type(s) is str else str(s)
            t = t if type(t) is str else str(t)
            key = (s, t) if s <= t else (t, s)
            acc[key] = get(key, 0.0) + val
        entries = [item for item in acc.items() if item[1] > 0]
        entries.sort()
        return DemandVector(tuple(entries))

    def __getitem__(self, pair) -> float:
        key = _pair(str(pair[0]), str(pair[1]))
        for k, v in self.entries:
            if k == key:
                return v
        return 0.0

    def items(self):
        return list(self.entries)

    def pairs(self):
        return [k for k, _ in self.entries]

    @property
    def is_zero(self) -> bool:
        return not self.entries

    def scaled(self, alpha: float) -> "DemandVector":
        return DemandVector(tuple((k, v * alpha) for k, v in self.entries))

    def restricted_to(self, terminals: Iterable[str]) -> bool:
        ts = set(terminals)
        return all(s in ts and t in ts for (s, t), _ in self.entries)


# ---------------------------------------------------------------------------
# Surgeries
# ---------------------------------------------------------------------------

def merge_vertices(net: TerminalNetwork, blocks: Iterable[Iterable[str]]) -> TerminalNetwork:
    """Contract every block to one vertex; inter-block capacities are summed.

    The blocks must be nonempty, disjoint and cover the vertices, with at
    most one terminal each.  A block containing terminal t is named t; other
    blocks take their smallest member id.  Merging never decreases any
    concurrent-flow value.
    """
    name: dict[str, str] = {}
    for b in map(frozenset, blocks):
        if not b:
            raise NetworkError("empty partition block")
        if not name.keys().isdisjoint(b):
            raise NetworkError("partition blocks overlap")
        terms = b & net.terminal_set
        if len(terms) > 1:
            raise NetworkError(f"block merges terminals {sorted(terms)}")
        bname = next(iter(terms)) if terms else min(b)
        name.update(dict.fromkeys(b, bname))
    if name.keys() != set(net.vertices):
        raise NetworkError("partition does not cover the vertex set")
    edges = [(name[u], name[v], c) for u, v, c in net.edges if name[u] != name[v]]
    return TerminalNetwork.make(set(name.values()), net.terminals, edges,
                                allow_disconnected=True)


def phi_merge(g1: TerminalNetwork, g2: TerminalNetwork,
              phi: Mapping[str, str]) -> TerminalNetwork:
    """Glue g2 onto g1 by identifying terminal pairs phi: T1-subset -> T2-subset.

    The identified vertex keeps the g1-side id.  The terminal set of the
    result is T1 plus the unmatched terminals of g2.  Non-terminal g2 ids
    colliding with g1 ids are renamed deterministically.
    """
    if not phi:
        raise NetworkError("phi must match at least one terminal pair")
    phi = {str(a): str(b) for a, b in phi.items()}
    if len(set(phi.values())) != len(phi):
        raise NetworkError("phi has duplicate targets")
    for a, b in phi.items():
        if a not in g1.terminal_set:
            raise NetworkError(f"{a!r} is not a terminal of the first network")
        if b not in g2.terminal_set:
            raise NetworkError(f"{b!r} is not a terminal of the second network")

    inv = {b: a for a, b in phi.items()}
    taken = set(g1.vertices)
    rename: dict[str, str] = {}
    for v in g2.vertices:
        if v in inv:
            rename[v] = inv[v]
        else:
            new = v
            n = 1
            while new in taken:
                new = f"{v}@{n}"
                n += 1
            rename[v] = new
            taken.add(new)

    vertices = list(g1.vertices) + [rename[v] for v in g2.vertices if v not in inv]
    terminals = list(g1.terminals) + [rename[t] for t in g2.terminals if t not in inv]
    edges = list(g1.edges) + [(rename[u], rename[v], c) for u, v, c in g2.edges]
    return TerminalNetwork.make(vertices, terminals, edges, allow_disconnected=True)


def components(net: TerminalNetwork, removed: Iterable[str] = ()) -> list[frozenset[str]]:
    """Connected components of `net` minus the `removed` vertices, sorted by
    their smallest vertex id."""
    seen = set(removed)
    comps = []
    for start in net.vertices:
        if start in seen:
            continue
        seen.add(start)
        comp = [start]
        stack = [start]
        while stack:
            for w in net.adjacency[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    comp.append(w)
                    stack.append(w)
        comps.append(frozenset(comp))
    return sorted(comps, key=min)


def terminal_bipartitions(terminals: tuple[str, ...]):
    """Every split (A, B) of the terminals into two nonempty sides, once each:
    A holds the first terminal, both sides keep the input order, and A grows
    by subset size, then in input order.  k terminals give 2^(k-1)-1."""
    t0, rest = terminals[0], terminals[1:]
    for r in range(len(rest)):
        for combo in itertools.combinations(rest, r):
            A = (t0,) + combo
            yield A, tuple(t for t in rest if t not in combo)


@cache
def _bipartition_sides(k: int) -> tuple[np.ndarray, dict[int, int]]:
    """(sides, position) for k terminals, in `terminal_bipartitions` order:
    row b of `sides` is 1 at the terminal positions in A_b and 0 in B_b, and
    `position` maps the bitmask of either side's positions to b."""
    masks = [sum(1 << i for i in A) for A, _ in terminal_bipartitions(tuple(range(k)))]
    sides = (np.array(masks, dtype=np.int64)[:, None] >> np.arange(k)) & 1
    sides.flags.writeable = False   # one array shared by every caller
    full = (1 << k) - 1
    return sides, {m: b for b, a in enumerate(masks) for m in (a, full ^ a)}
