"""The flow oracle: concurrent flow, its dual, cuts.

`concurrent_flow` computes the concurrent multicommodity-flow value of a
demand vector (the largest multiple of the demand that routes within the
capacities), with a primal flow and an edge-length dual.  It solves on the
network's reduced view, `cut_view`, by one of two methods, chosen by the
structure of that view alone:

- the star oracle (`stars`), where the view keeps non-terminals and each is
  a star: its neighbours are terminals, at most five of them.  A
  quasi-bipartite net's view is one when its stars touch at most five
  terminals.  Kelley's cutting planes over metrics on the terminals solve
  it with a master LP of 1 + k(k-1)/2 rows, whatever the number of stars;
  `rounds` counts the cuts and `pivots` the master's simplex pivots.
- column generation everywhere else: a view with adjacent non-terminals or
  a star on six or more terminals, and a view of the terminals alone.  It
  solves the edge-length dual by delayed constraint generation: Dijkstra
  adds one shortest path per violated pair and round, and the primal flow
  comes from the multipliers of the generated path rows; `rounds` counts
  the pricing rounds and `pivots` the simplex pivots over all of them.

Both methods run one loop, `_columns`: over an LP whose rows are fixed,
it continues `lp.simplex_min` from the last basis while the method's
pricer inserts columns (paths, or the master's cuts), and stops when the
pricer has none.

In the view, non-terminals of degree at most 3 are eliminated (dropped,
series-contracted, or replaced by a triangle), which keeps every terminal
concurrent flow value.
Both methods return the reduced solution (the value, a bracket on it, a
call that gives the reduced edge lengths and one that routes the primal),
and `_result` checks the bracket by one rule: column generation's primal
lambda and sum(c * l) / sum(d_p * dist_l(p)) at its final lengths, or the
star oracle's Kelley bracket.  Most callers read only the value, so both
certificates are made and lifted to the network's edges on first read:
`ConcurrentFlowResult.dual` splits a reduced edge's length over an
eliminated vertex's sides so that no terminal distance changes and
sum(c * l) does not grow; `.flow` fills the edges and pieces a reduced edge
stands for in order.  The lift both read groups the network's edges with
the edges each elimination joined, as `TerminalNetwork.reduction` records
them.

The oracle keeps one record per network, on the network object (`_record`):
it is built whole on the first solve, as `cut_view` is, and freed with the
network; `concurrent_flow` fetches it once per solve and passes it to the
method that solves.  It holds what a solve needs of the network alone,
built with it: the reduced LP shape (canonical edges with parallel edges
summed, float capacities, arc lists, arc-to-edge map) and the star
oracle's table, which exists only where that oracle solves; the lift is
built once per network on the first certificate read, from the network's
vertices, edges and eliminations.  It also holds a memo of
finished results by demand; a path pool, the reduced-net paths that
carried flow in earlier column-generation solves, which seed the next
solve's columns; one BFS start path per pair, and each pooled path's edge
rows.  A demanded pair whose ends lie in two components of the network
(`TerminalNetwork.component_of`, labelled once per network) raises before
either method runs; the reduction never splits connected terminals, so
the view's components agree.  A failed solve memoizes nothing.

Also here: exact max flow between two vertices or two vertex sets, on
integers (the rational capacities scaled by the LCM of their denominators,
cached per network), and the exact sparsest cut over terminal bipartitions.
Flows between terminals run on the cut view too, which keeps every terminal
cut.  From k = 3 on, a terminal-bipartition min cut is read from the
network's cached `bipartition_cuts`, which takes all of them in one pass.
`verify.certify_cuts` and the mimicking fit (`structured._cut_targets`)
read that table whole as ints and build `Fraction`s only for what they
return; they look up one bipartition at a time here only at k = 2 and for
a candidate whose terminals are in another order than the base's.  The
sketch builder (`sketch._terminal_cuts`) looks up each of its cut rows here.
At k = 2, past that table's bounds, and for other endpoints, shortest
augmenting paths (Edmonds-Karp) find the flow.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import threading
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

from .lp import LPError
from .network import (DemandVector, TerminalNetwork, _bipartition_sides, _pair,
                      terminal_bipartitions, to_float)

FEAS_TOL = 1e-9       # absolute feasibility / separation tolerance
OPT_TOL = 1e-6        # relative optimality tolerance
_MAX_SEPARATION_ROUNDS = 500


class FlowError(ValueError):
    pass


def finite_or_none(x: float) -> float | None:
    """JSON has no infinity or NaN; such values are written as null."""
    return x if np.isfinite(x) else None


@dataclass(frozen=True)
class FlowSolution:
    """Per-commodity directed arc flows that route value * d_p for each pair."""

    arc_flows: tuple[tuple[tuple[str, str], tuple[tuple[tuple[str, str], float], ...]], ...]


class _first_read:
    """A property built on first read and kept in the instance's dict, as
    Python 3.12's `functools.cached_property` keeps it: 3.11's takes one
    lock per property for all instances, so first reads on two objects
    would run one at a time.  Two threads reading one object at once may
    both build it; the first stored is kept."""

    def __init__(self, build):
        self.build, self.__doc__ = build, build.__doc__

    def __get__(self, obj, owner=None):
        # read on the class, it is the descriptor itself
        return self if obj is None else obj.__dict__.setdefault(
            self.build.__name__, self.build(obj))


@dataclass(frozen=True)
class DualSolution:
    """Edge lengths and induced terminal distances; value = sum(c_e * l_e).

    Distances are canonicalised to shortest-path distances under the
    lengths, which is itself an optimal choice.
    """

    lengths: tuple[tuple[tuple[str, str], float], ...]
    value: float
    # a call giving `dists`, made on their first read
    _dists: Callable = field(compare=False, repr=False)

    @_first_read
    def dists(self) -> tuple[tuple[tuple[str, str], float], ...]:
        """Each terminal pair's distance, in `terminal_pairs` order."""
        return self._dists()

    def length_map(self) -> dict[tuple[str, str], float]:
        return dict(self.lengths)

    def dist_map(self) -> dict[tuple[str, str], float]:
        return dict(self.dists)


@dataclass(frozen=True)
class ConcurrentFlowResult:
    value: float
    # (max - min of lo, hi and value) / |value|, or that spread itself at
    # value 0, over the method's bracket [lo, hi] on value (`_result`)
    duality_gap: float
    rounds: int     # column-generation rounds, or Kelley cuts on the star path
    pivots: int     # simplex pivots over all rounds
    # what lifting the certificates needs, and nothing of the network itself:
    # (reduced shape, the record's lift call, the network's terminal pairs,
    # a call giving the reduced edge lengths by edge index, a call giving per
    # demanded pair (pair, reduced arc flows {(a, b): f}) that route value * d_p)
    _reduced: tuple = field(compare=False, repr=False)

    @_first_read
    def dual(self) -> DualSolution:
        """The edge-length dual on the network's edges, made on first read:
        the reduced lengths are taken and `_Lift.lengths` maps them to the
        network's edges.  The terminal distances wait for their own first
        read (`DualSolution.dists`)."""
        shape, lift, pairs, lengths, _ = self._reduced
        with _cache_lock:       # the record's lift: built by the first reader
            lift = lift()
        lengths = lengths()
        edge_lengths = lift.lengths(lengths)
        return DualSolution(lengths=tuple(sorted(zip(lift.edges, edge_lengths))),
                            value=float(sum(c * l for c, l in zip(lift.cap, edge_lengths))),
                            _dists=functools.partial(_terminal_distances, shape.arcs,
                                                     lengths, pairs))

    @_first_read
    def flow(self) -> FlowSolution:
        """The primal flow on the network's edges, lifted on first read:
        the reduced arc flows are made, then `_Lift.flows` maps them to the
        network's arcs."""
        shape, lift, _, _, routed = self._reduced
        with _cache_lock:
            lift = lift()
        return FlowSolution(arc_flows=lift.flows(shape, routed()))


def _terminal_distances(arcs: dict, lengths: list, pairs: list) -> tuple:
    """(pair, distance) for each of `pairs`, by one Dijkstra per distinct
    source on the reduced view: the lift keeps every terminal distance."""
    trees = {s: _dijkstra(arcs, lengths, s)[0] for s in dict.fromkeys(s for s, _ in pairs)}
    return tuple((p, float(trees[p[0]].get(p[1], np.inf))) for p in pairs)


def _result(net: TerminalNetwork, state: _NetState, lam: float, lo: float, hi: float,
            lengths, rounds: int, pivots: int, routed) -> ConcurrentFlowResult:
    """A solve's result from its reduced solution: `lam`, the method's
    bracket [lo, hi] on it, the call that gives the edge lengths by index of
    the network's record's shape, the counts and the `routed` call.

    Raises LPError when lo, hi and lam spread over more than OPT_TOL of
    |lam| (over more than OPT_TOL where lam = 0), so the rule does not
    loosen for demands far above the capacities; lam stays in the check,
    so a value off its own bracket fails too.  Column generation's bracket
    is its primal lambda and the weak-duality bound at `_path_lp`'s final
    lengths, sum(c * l) / sum(d_p * dist_l(p)); the lift keeps every
    terminal distance and does not raise sum(c * l), so the lifted dual is
    as good a certificate.  The star oracle's is Kelley's
    (`stars._star_oracle`)."""
    spread = float(max(lo, hi, lam) - min(lo, hi, lam))
    gap = spread / abs(lam) if lam else spread
    if not gap <= OPT_TOL:
        raise LPError(f"duality gap {gap:.3g} exceeds {OPT_TOL:g}")
    return ConcurrentFlowResult(value=lam, duality_gap=gap, rounds=rounds, pivots=pivots,
                                _reduced=(state.shape, state.lift, net.terminal_pairs(),
                                          lengths, routed))


def _arc_flows(carried: dict, wants: dict) -> list:
    """Per pair p of `wants`, (p, the arc flows of its (path, rows, flow)
    columns in `carried`); a pair whose paths carry more than wants[p] is
    scaled down to it."""
    out = []
    for p, want in wants.items():
        got = sum(f for _, _, f in carried[p])
        scale = want / got if got > want and got > 0 else 1.0
        acc: dict[tuple[str, str], float] = {}
        for path, _, f in carried[p]:
            for u, v in zip(path, path[1:]):
                acc[(u, v)] = acc.get((u, v), 0.0) + f * scale
        out.append((p, acc))
    return out


# ---------------------------------------------------------------------------
# Exact max flow between vertices or vertex sets (integers: the cut table
# or Edmonds-Karp)
# ---------------------------------------------------------------------------

def max_flow(net: TerminalNetwork, s, t) -> Fraction:
    """Exact maximum flow value from `s` to `t`.

    Each of `s` and `t` is a vertex or a set of vertices; a set acts as one
    vertex joined to each member by unbounded capacity.  The flow runs on
    integers: on the network's cached `cut_view` when every endpoint is a
    terminal, since that view keeps every cut between terminal sets, and on
    its cached `integer_view` otherwise.  When S | T is the whole terminal
    set of k >= 3 terminals, the value is read from the network's cached
    `bipartition_cuts`, which takes every bipartition's cut in one pass; at
    k = 2 that table would hold this one cut, so it is not built.
    Otherwise, or where that table is not taken, Edmonds-Karp runs.  Either
    way the value is exact: the integer flow over the view's scale, as a
    Fraction.
    """
    S = frozenset([s] if isinstance(s, str) else s)
    T = frozenset([t] if isinstance(t, str) else t)
    if not S or not T or S & T:
        raise FlowError("source and sink must be nonempty and disjoint")
    ends = S | T
    if ends == net.terminal_set and net.k > 2:
        cuts = net.bipartition_cuts
        if cuts is not None:
            mask = sum(1 << i for i, v in enumerate(net.terminals) if v in S)
            return Fraction(cuts[_bipartition_sides(net.k)[1][mask]], net.cut_view[0])
    scale, index, arcs = (net.cut_view if ends <= net.terminal_set
                          else net.integer_view)
    if not ends <= index.keys():
        raise FlowError("endpoint not in network")
    return Fraction(_edmonds_karp(arcs, [index[v] for v in sorted(S)],
                                  {index[v] for v in T}), scale)


def _edmonds_karp(arcs: list, sources: list, sinks: set) -> int:
    """The integer max flow from `sources` to `sinks` over the integer
    capacities `arcs` of a (scale, index, arcs) view, by shortest
    augmenting paths."""
    residual = [dict(nbrs) for nbrs in arcs]
    total = 0
    while True:
        parent = dict.fromkeys(sources, -1)
        queue = list(sources)
        end = -1
        for u in queue:     # breadth first: also visits what is appended
            for v, r in residual[u].items():
                if r > 0 and v not in parent:
                    parent[v] = u
                    if v in sinks:
                        end = v
                        break
                    queue.append(v)
            if end >= 0:
                break
        if end < 0:
            return total
        bottleneck = None
        v = end
        while parent[v] >= 0:
            u = parent[v]
            r = residual[u][v]
            if bottleneck is None or r < bottleneck:
                bottleneck = r
            v = u
        v = end
        while parent[v] >= 0:
            u = parent[v]
            residual[u][v] -= bottleneck
            residual[v][u] += bottleneck
            v = u
        total += bottleneck


def mincut_partition(net: TerminalNetwork, a_side, b_side) -> Fraction:
    """Exact min capacity of an edge cut separating terminal sets A from B;
    as in `max_flow`, a side given as a str is one terminal."""
    A, B = (frozenset([x] if isinstance(x, str) else map(str, x))
            for x in (a_side, b_side))
    if not A or not B or (A | B) != net.terminal_set or (A & B):
        raise FlowError("(A, B) must bipartition the terminal set into nonempty parts")
    return max_flow(net, A, B)


# ---------------------------------------------------------------------------
# Concurrent flow via constraint generation on the edge-length dual
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Shape:
    """What a solve needs of a network view.

    `edges` are the canonical vertex pairs in first-occurrence order, one
    per pair, and `caps` their float capacities with parallel edges summed;
    edge i has LP row (number of demand pairs) + i.  `arcs` gives per vertex
    its (neighbour, edge index) list in adjacency order, and `arc_edge` the
    edge index of each directed arc.
    """

    edges: list
    caps: list
    arcs: dict
    arc_edge: dict

    def rows(self, path: tuple[str, ...]) -> tuple[int, ...]:
        """The edge indices along a path."""
        return tuple(map(self.arc_edge.__getitem__, zip(path, path[1:])))


def _shape_of(view) -> _Shape:
    """The shape of a (scale, index, arcs) network view, the `cut_view` the
    oracle solves on.  Edges come in first-occurrence order over the vertex
    numbering."""
    scale, index, nbrs_of = view
    names = list(index)
    eidx: dict = {}
    caps = []
    arcs = {}
    for i, nbrs in enumerate(nbrs_of):
        out = arcs[names[i]] = []
        for j, c in nbrs.items():
            e = _pair(names[i], names[j])
            if e not in eidx:
                eidx[e] = len(caps)
                caps.append(to_float(c, "capacity", e, scale))
            out.append((names[j], eidx[e]))
    return _Shape(edges=list(eidx), caps=caps, arcs=arcs,
                  arc_edge={(u, v): i for u, out in arcs.items() for v, i in out})


@dataclass(frozen=True)
class _Lift:
    """How the edges of a network's `cut_view` stand for its own edges.

    Following `TerminalNetwork.reduction`'s record, every edge of the
    network being reduced is a group of constituents: the original edge
    between its ends, then one piece per eliminated vertex v whose rule
    joined an edge a-b into it, in elimination order.  Constituent
    c < len(edges) is original edge c; constituent len(edges) + p is piece p,
    which runs a-v-b through v's side groups a-v and v-b.  A group ends as
    an edge of the reduced net (`top`) or as a side of the first of its ends
    to be eliminated, so the groups form a forest that both lifts walk.
    """

    edges: list     # the network's canonical pairs, in its edge order
    cap: list       # per constituent, its float capacity; edges first
    owner: list     # per constituent, its group
    members: list   # per group, its constituents in the order they joined
    top: list       # per reduced edge index, its group
    pieces: list    # per piece a-v-b, (a, v, group a-v, group v-b)
    steps: list     # per elimination, ((group, capacity) per side, pieces)

    def flows(self, shape: _Shape, reduced: list) -> tuple:
        """Lift per-pair reduced arc flows {(a, b): f} to the network's arcs.

        A reduced edge's flow fills its constituents in order, each up to
        what is left of its capacity over all pairs of the solve; the last
        takes the rest.  A piece's share goes a -> v -> b and fills v's side
        groups the same way.  The loads fit: the pieces through side a-v
        carry at most x_ab + x_ac <= c_a.
        """
        cap, members, pieces, top = list(self.cap), self.members, self.pieces, self.top
        n_edges = len(self.edges)
        out = []
        for p, acc in reduced:
            got: dict = {}
            for arc, amount in acc.items():
                stack = [(top[shape.arc_edge[arc]], *arc, amount)]
                while stack:
                    g, u, w, f = stack.pop()
                    ids = members[g]
                    last = ids[-1]
                    for c in ids:
                        if c == last:
                            take = f
                        else:
                            r = cap[c]
                            if r <= 0.0:
                                continue
                            take = f if f < r else r
                        cap[c] -= take
                        f -= take
                        if c < n_edges:
                            got[(u, w)] = got.get((u, w), 0.0) + take
                        else:
                            x, v, gx, gy = pieces[c - n_edges]
                            if u != x:
                                gx, gy = gy, gx
                            stack.append((gy, v, w, take))
                            stack.append((gx, u, v, take))
                        if f <= 0.0:
                            break
            out.append((p, tuple(sorted(got.items()))))
        return tuple(out)

    def lengths(self, reduced: list) -> list:
        """Lift reduced edge lengths to the network's edges, keeping every
        terminal distance and costing at most sum(c * l) on the reduced net.

        Each group starts at its reduced edge's length; then, in reverse
        elimination order, each side of v gets a length from the lengths of
        v's pieces.  Degree 2: the piece's length goes to the side of smaller
        capacity (the first in name order on a tie), 0 to the other.
        Degree 3: close the piece lengths d under the triangle inequality (a
        missing piece is infinite).  The rule joins no b-c piece exactly when
        c_a >= c_b + c_c; then l_a = 0, l_b = d_ab and l_c = d_ac.  Otherwise
        l_a = (d_ab + d_ac - d_bc) / 2 and likewise.  Degree <= 1: 0.
        """
        glen = [0.0] * len(self.members)
        for g, length in zip(self.top, reduced):
            glen[g] = length
        owner = self.owner
        inf = np.inf
        for sides, pp in reversed(self.steps):
            if len(sides) == 2:
                (ga, ca), (gb, cb) = sides
                glen[ga if ca <= cb else gb] = glen[owner[pp[0]]]
            elif len(sides) == 3:
                d01, d02, d12 = (inf if p is None else glen[owner[p]] for p in pp)
                d01, d02, d12 = (min(d01, d02 + d12), min(d02, d01 + d12),
                                 min(d12, d01 + d02))
                if None in pp:      # piece i of 01, 02, 12 missing: side 2 - i takes 0
                    ls = ((0.0, d01, d02), (d01, 0.0, d12), (d02, d12, 0.0))[2 - pp.index(None)]
                else:
                    ls = ((d01 + d02 - d12) / 2, (d01 + d12 - d02) / 2,
                          (d02 + d12 - d01) / 2)
                for (g, _), x in zip(sides, ls):
                    glen[g] = max(x, 0.0)
        return [glen[g] for g in owner[:len(self.edges)]]


def _lift_of(vertices: tuple, edges: tuple, steps: tuple, top: list) -> _Lift:
    """Group a network's edges with the edges its eliminations joined, from
    its `vertices`, `edges` and `reduction[1]`; `top` lists the reduced
    shape's edges."""
    cap: list = []
    owner: list[int] = []
    members: list[list[int]] = []
    live: dict = {}       # canonical pair -> its group, while both ends live
    pieces = []

    def join(e, c, piece=None):
        g = live.get(e)
        if g is None:
            g = live[e] = len(members)
            members.append([])
        members[g].append(len(owner))
        owner.append(g)
        cap.append(c)
        if piece:
            pieces.append(piece)
        return len(cap) - 1

    for u, w, c in edges:
        join((u, w), to_float(c, "capacity", (u, w)))
    lift_steps = []
    for v, nbrs, joined, scale in steps:
        x = {_pair(vertices[a], vertices[b]): c / scale for a, b, c in joined}
        v = vertices[v]
        sides = sorted((vertices[u], live.pop(_pair(v, vertices[u])), c) for u, c in nbrs)
        pp = [join((a, b), x[a, b], (a, v, ga, gb)) if (a, b) in x else None
              for (a, ga, _), (b, gb, _) in itertools.combinations(sides, 2)]
        lift_steps.append((tuple((g, c) for _, g, c in sides), pp))
    return _Lift(edges=[(u, w) for u, w, _ in edges], cap=cap, owner=owner,
                 members=members, top=[live[e] for e in top],
                 pieces=pieces, steps=lift_steps)


def _dijkstra(arcs: dict, lengths: list, source: str):
    """Shortest paths from source over `_Shape.arcs` lists, `lengths[i]`
    being edge i's length."""
    inf = np.inf
    push, pop = heapq.heappush, heapq.heappop
    dist = {source: 0.0}
    get = dist.get
    parent: dict[str, str | None] = {source: None}
    heap = [(0.0, source)]
    while heap:
        d, u = pop(heap)
        if d > get(u, inf):
            continue
        for v, e in arcs[u]:
            nd = d + lengths[e]
            if nd < get(v, inf) - 1e-15:
                dist[v] = nd
                parent[v] = u
                push(heap, (nd, v))
    return dist, parent


def _extract_path(parent: dict, t: str) -> tuple[str, ...]:
    path = [t]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    return tuple(reversed(path))


def _bfs_path(arcs: dict, s: str, t: str) -> tuple[str, ...]:
    """Fewest-edge s-t path over `_Shape.arcs` lists, neighbours taken in
    name order; t must be reachable from s."""
    parent = {s: None}
    q = deque([s])
    while True:
        u = q.popleft()
        if u == t:
            return _extract_path(parent, t)
        for v in sorted(v for v, _ in arcs[u]):
            if v not in parent:
                parent[v] = u
                q.append(v)


@dataclass
class _NetState:
    """What the oracle remembers about one network, kept on the network.

    `shape`, the shape of the network's `cut_view`, and `stars`, the star
    oracle's table (None where the star oracle does not solve), are built
    with the record; `lift` is a cached call, made under `_cache_lock`,
    that builds the `_Lift`, which maps the certificates back.  `memo` maps
    demand entries to the frozen result; `pool` maps a pair to the
    reduced-net paths that carried flow for it in earlier
    column-generation solves, in first-use order, each with its edge-index
    rows (dict keys and values); only memoized solves feed the pool.
    `starts` holds per pair its reduced-net BFS path and rows.  Nothing
    here refers to the network, so the record leaves with it.
    """

    shape: _Shape
    lift: object
    stars: object               # a `stars._Stars`, or None
    memo: dict = field(default_factory=dict)
    pool: dict = field(default_factory=dict)
    starts: dict = field(default_factory=dict)


_cache_lock = threading.Lock()    # threads solving on one network share its record


def _record(net: TerminalNetwork) -> _NetState:
    """The network's record, kept in its instance dict as `cached_property`
    keeps `cut_view`, and built whole on first use."""
    with _cache_lock:
        state = net.__dict__.get("_flow_state")
        if state is None:
            from .stars import _stars_of
            shape = _shape_of(net.cut_view)
            lift = functools.cache(functools.partial(
                _lift_of, net.vertices, net.edges, net.reduction[1], shape.edges))
            state = net.__dict__["_flow_state"] = _NetState(shape, lift,
                                                            _stars_of(net, shape))
    return state


def _checked_demand(net: TerminalNetwork, demand) -> DemandVector:
    if not isinstance(demand, DemandVector):
        demand = DemandVector.of(demand)
    if demand.is_zero:
        raise FlowError("concurrent flow is undefined for the zero demand")
    if not demand.restricted_to(net.terminals):
        raise FlowError("demand involves non-terminal vertices")
    return demand


def concurrent_flow(net: TerminalNetwork, demand: DemandVector | dict) -> ConcurrentFlowResult:
    """Concurrent-flow value of the demand, with primal and dual solutions
    (the primal lifted to the network on first read of `.flow`).

    The network's record (`_record`) is fetched once, built on the first
    solve, and passed to the method that solves.  The star oracle (`stars`)
    solves it where the record has a star table: the network's `cut_view`
    has non-terminals and each is a star, only terminals are its
    neighbours, at most `stars._STAR_MAX_SUPPORT` of them.  Column
    generation solves it everywhere else, on a view of the terminals alone
    too, which is a k-vertex LP already.  A memo hit returns before the
    connectivity check.  Raises FlowError on the all-zero demand (the value
    is unbounded there) and for the first demanded pair whose ends lie in
    two components of the network.
    """
    demand = _checked_demand(net, demand)
    state = _record(net)
    with _cache_lock:
        hit = state.memo.get(demand.entries)
    if hit is not None:
        return hit

    from .stars import _star_oracle
    component_of = net.component_of
    for s, t in demand.pairs():
        if component_of[s] != component_of[t]:
            raise FlowError(f"no path between {s} and {t}")
    solve = _column_generation if state.stars is None else _star_oracle
    result = solve(net, state, demand)
    with _cache_lock:
        state.memo.setdefault(demand.entries, result)
    return result


# ---------------------------------------------------------------------------
# Column generation on the path form
# ---------------------------------------------------------------------------

def _columns(A, b, basis, at, price) -> tuple:
    """Maximise x[0] subject to A x = b, x >= 0 from the feasible basis
    `basis` by column generation: the one loop of both methods.

    Rows are fixed, so each `simplex_min` call continues from the last basis
    and its inverse.  After each, `price(x, lam, y, pivots)` returns new
    columns, one per row, or None to stop.  They go in at index `at`, after
    the columns generated earlier, and basis indices from `at` on shift past
    them.  Returns (lam, x, y, rounds, pivots), `rounds` counting the
    calls; raises FlowError past _MAX_SEPARATION_ROUNDS of them.
    """
    from .lp import simplex_min     # looked up per call: a wrapper set on lp sees it

    Binv = None
    rounds = pivots = 0
    while True:
        rounds += 1
        if rounds > _MAX_SEPARATION_ROUNDS:
            raise FlowError("column generation did not converge")
        cost = np.zeros(A.shape[1])
        cost[0] = -1.0
        x, value, y, basis, Binv, it = simplex_min(cost, A, b, basis, Binv=Binv)
        pivots += it
        new = price(x, -value, y, it)
        if new is None:
            return -value, x, y, rounds, pivots
        A = np.concatenate([A[:, :at], new.T, A[:, at:]], axis=1)
        basis[basis >= at] += len(new)
        at += len(new)


def _path_lp(shape: _Shape, pairs: list, dvals: list, starts: list) -> tuple:
    """Column generation on the path form of maximum concurrent flow over
    the edges of `shape`, demand `dvals[i]` on `pairs[i]`, from the
    (pair, path, edge rows) columns `starts`, as a pricer of `_columns`.

    Columns are lambda, then paths, then the slacks, which are the first
    basis; new paths go in before the slacks.  The row multipliers are
    exactly the edge lengths / pair distances of the edge-length dual.  Each
    round adds one shortest path per violated pair, as Ford and Fulkerson's
    path form does: one Dijkstra per distinct source under those lengths,
    and a pair's path where it is shorter than the pair's multiplier by
    more than FEAS_TOL.

    Returns (value, primal, carried, lengths, trees, rounds, pivots):
    `primal` is the lambda column's entry, `carried` gives per pair the
    (path, rows, flow) of its columns carrying more than 1e-12, `lengths`
    are the final lengths by edge index, and `trees` holds the last round's
    shortest-path trees under them, by source, for the sources that round
    priced.
    """
    pidx = {p: i for i, p in enumerate(pairs)}
    cols = {(p, path): rows for p, path, rows in starts}    # path columns, in order
    arcs = shape.arcs
    np_ = len(pairs)
    m = np_ + len(shape.edges)

    def as_columns(new: list) -> np.ndarray:
        """One row per ((pair, path), rows) column: -1 in its pair's row and
        1 in each edge's row; a simple path uses an edge at most once."""
        out = np.zeros((len(new), m))
        out[np.arange(len(new)), [pidx[p] for (p, _), _ in new]] = -1.0
        out[[j for j, (_, rows) in enumerate(new) for _ in rows],
            [np_ + e for _, rows in new for e in rows]] = 1.0
        return out

    trees: dict[str, tuple[dict, dict]] = {}   # the last round's, by source

    def price(x, lam, y, pivots):
        deltas = np.maximum(-y[:np_], 0.0).tolist()
        lengths = np.maximum(-y[np_:], 0.0).tolist()   # per edge index
        n_old = len(cols)
        trees.clear()
        for (s, t), target in zip(pairs, deltas):
            if target <= FEAS_TOL:
                continue
            if s not in trees:
                trees[s] = _dijkstra(arcs, lengths, s)
            dist, parent = trees[s]
            if dist.get(t, np.inf) < target - FEAS_TOL:
                path = _extract_path(parent, t)
                cols.setdefault(((s, t), path), shape.rows(path))
        new = list(cols.items())[n_old:]
        return as_columns(new) if new else None

    n = 1 + len(cols)
    lam_col = np.zeros((m, 1))
    lam_col[:np_, 0] = dvals
    A = np.concatenate([lam_col, as_columns(list(cols.items())).T, np.eye(m)], axis=1)
    b = np.concatenate([np.zeros(np_), shape.caps])
    lam, x, y, rounds, pivots = _columns(A, b, np.arange(n, n + m), n, price)
    carried: dict[tuple[str, str], list] = {p: [] for p in pairs}
    for ((p, path), rows), f in zip(cols.items(), x[1:].tolist()):
        if f > 1e-12:
            carried[p].append((path, rows, f))
    return lam, x[0], carried, np.maximum(-y[np_:], 0.0).tolist(), trees, rounds, pivots


def _column_generation(net, state, demand) -> ConcurrentFlowResult:
    """The concurrent flow by `_path_lp` on the network's reduced view
    (`cut_view`, which keeps every concurrent flow value).

    It takes the view's shape and each pair's BFS start path from the
    network's record `state`, starts from the pooled paths as well, and
    adds the paths that carry flow to the pool.  The result keeps the final
    lengths and the per-pair path flows (`_result`).

    After `_path_lp`'s last round, which priced no path, its trees give
    dist_l(p) at the final lengths l (a source that round skipped gets one
    Dijkstra), and weak duality bounds lambda by hi = sum(c * l) / sum(d_p
    * dist_l(p)) whether or not pricing found every violated pair; hi is
    infinite when the denominator is not positive.  Raises LPError when
    the value, the primal lambda and hi spread over more than OPT_TOL,
    relative.
    """
    pairs = demand.pairs()
    shape = state.shape
    starts = []
    with _cache_lock:
        for p in pairs:
            if p not in state.starts:
                path = _bfs_path(shape.arcs, *p)
                state.starts[p] = path, shape.rows(path)
            starts.append((p, *state.starts[p]))
        for p in pairs:
            starts += [(p, path, rows) for path, rows in state.pool.get(p, {}).items()]

    dvals = [demand[p] for p in pairs]
    lam, primal, carried, lengths, trees, rounds, pivots = _path_lp(shape, pairs, dvals, starts)
    for s, _ in pairs:
        if s not in trees:
            trees[s] = _dijkstra(shape.arcs, lengths, s)
    routed = sum(d * trees[s][0].get(t, np.inf) for (s, t), d in zip(pairs, dvals))
    hi = sum(c * l for c, l in zip(shape.caps, lengths)) / routed if routed > 0 else np.inf
    result = _result(net, state, lam, primal, hi, lambda: lengths, rounds, pivots,
                     functools.partial(_arc_flows, carried,
                                       {p: lam * demand[p] for p in pairs}))
    with _cache_lock:
        for p in pairs:
            state.pool.setdefault(p, {}).update((path, rows) for path, rows, _ in carried[p])
    return result


# ---------------------------------------------------------------------------
# Cuts
# ---------------------------------------------------------------------------

def sparsest_terminal_cut(net: TerminalNetwork, demand: DemandVector | dict) -> tuple[float, tuple]:
    """Min over terminal bipartitions of mincut(A,B)/d(A,B): the sparsest cut.

    A vertex set that separates demand splits the terminals into some (A, B),
    separates exactly d(A, B) and costs at least mincut(A, B); a min cut of
    (A, B) is such a set.  So the minimum is the sparsest cut over all
    vertex sets.  The cuts come from the network's `bipartition_cuts` in
    one pass, or from `max_flow` per bipartition where that table is not
    taken."""
    if not isinstance(demand, DemandVector):
        demand = DemandVector.of(demand)
    scale = net.cut_view[0]
    splits = list(terminal_bipartitions(net.terminals))
    cuts = net.bipartition_cuts
    if cuts is None:
        cuts = [int(max_flow(net, A, B) * scale) for A, B in splits]
    best = (np.inf, None)
    for (A, B), cut in zip(splits, cuts):
        sep = sum(val for (s, t), val in demand.items() if (s in A) != (t in A))
        if sep <= 0:
            continue
        ratio = cut / scale / sep
        if ratio < best[0]:
            best = (ratio, (frozenset(A), frozenset(B)))
    if best[1] is None:
        raise FlowError("no terminal bipartition separates positive demand")
    return best
