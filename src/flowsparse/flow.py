"""The flow oracle: concurrent flow, its dual, cuts.

`concurrent_flow` computes the concurrent multicommodity-flow value of a
demand vector (the largest multiple of the demand that routes within the
capacities) by solving the edge-length dual with delayed constraint
generation: path constraints are priced by Dijkstra and added only when
violated.  The primal flow is recovered from the multipliers of the
generated path rows.

Unrestricted solves run on the network's reduced view, `cut_view`: there
non-terminals of degree at most 3 are eliminated (dropped, series-contracted,
or replaced by a triangle), which keeps every terminal concurrent flow value.
The solve's dual is lifted back, so callers and the memo see edge lengths
on the network's own edges: a reduced edge's length is split over an
eliminated vertex's sides so that no terminal distance changes and
sum(c * l) does not grow.  The primal flow is lifted on first read of
`ConcurrentFlowResult.flow`, since most callers read only the value and the
dual: a reduced edge's flow fills the edges and pieces it stands for in
order.

The oracle keeps one record per network, on the network object: it is
built on the first solve, as `cut_view` is, and freed with the network.  It
holds a memo of finished results by demand; a path pool, the reduced-net
paths that carried flow in earlier solves, which seed the next solve's
columns; and what a solve needs of the network alone, built once: the
reduced LP shape (canonical edges with parallel edges summed, float
capacities, arc lists, arc-to-edge map), the lift, one BFS start path per
pair, and each pooled path's edge rows.  A failed solve memoizes nothing.

Also here: exact max flow between two vertices or two vertex sets, on
integers (the rational capacities scaled by the LCM of their denominators,
cached per network), and the exact sparsest cut over terminal bipartitions.
Flows between terminals run on the cut view too, which keeps every terminal
cut.  From k = 3 on, a terminal-bipartition min cut is read from the
network's cached `bipartition_cuts`, which takes all of them in one pass.
At k = 2, past that table's bounds, and for other endpoints: when no two
vertices outside the endpoints are adjacent, each joins its cheaper side on
its own and the value is a closed-form sum; otherwise shortest augmenting
paths find it.
"""

from __future__ import annotations

import heapq
import threading
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction

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
    """Per-commodity directed arc flows achieving concurrent value `lam`."""

    lam: float
    arc_flows: tuple[tuple[tuple[str, str], tuple[tuple[tuple[str, str], float], ...]], ...]

    def edge_loads(self) -> dict[tuple[str, str], float]:
        loads: dict[tuple[str, str], float] = {}
        for _, arcs in self.arc_flows:
            for (u, v), f in arcs:
                e = _pair(u, v)
                loads[e] = loads.get(e, 0.0) + f
        return loads

    def check(self, net: TerminalNetwork, demand: DemandVector,
              tol: float = 1e-6) -> None:
        for e, load in self.edge_loads().items():
            cap = float(net.cap(*e))
            if load > cap + tol * max(1.0, cap):
                raise FlowError(f"capacity violated on {e}")
        for pair, arcs in self.arc_flows:
            s, t = pair
            balance: dict[str, float] = {}
            for (u, v), f in arcs:
                balance[u] = balance.get(u, 0.0) + f
                balance[v] = balance.get(v, 0.0) - f
            for v, bal in balance.items():
                if v == s or v == t:
                    continue
                if abs(bal) > tol * max(1.0, self.lam):
                    raise FlowError(f"conservation violated at {v} for {pair}")
            want = self.lam * demand[pair]
            if abs(balance.get(s, 0.0) - want) > tol * max(1.0, want):
                raise FlowError(f"routed amount mismatch for {pair}")


@dataclass(frozen=True)
class DualSolution:
    """Edge lengths and induced terminal distances; value = sum(c_e * l_e).

    Distances are canonicalised to shortest-path distances under the
    lengths, which is itself an optimal choice.
    """

    lengths: tuple[tuple[tuple[str, str], float], ...]
    dists: tuple[tuple[tuple[str, str], float], ...]
    value: float

    def length_map(self) -> dict[tuple[str, str], float]:
        return dict(self.lengths)

    def dist_map(self) -> dict[tuple[str, str], float]:
        return dict(self.dists)

    def check(self, net: TerminalNetwork, demand: DemandVector,
              tol: float = 1e-6) -> None:
        lengths = self.length_map()
        total = sum(demand[p] * d for p, d in self.dists)
        if total < 1.0 - tol:
            raise FlowError("dual demand constraint violated")
        for pair, d in self.dists:
            dist = _dijkstra_pair(net, lengths, pair[0], pair[1])
            if d > dist + tol:
                raise FlowError(f"distance above shortest path for {pair}")


@dataclass(frozen=True)
class ConcurrentFlowResult:
    value: float
    dual: DualSolution
    duality_gap: float
    rounds: int
    pivots: int     # simplex pivots over all rounds
    # what lifting the primal needs, and nothing of the network itself:
    # (reduced shape, lift, per pair (pair, value * d_p, ((reduced path,
    # flow), ...)) over the paths that carry more than 1e-12)
    _primal: tuple = field(compare=False, repr=False)

    @cached_property
    def flow(self) -> FlowSolution:
        """The primal flow on the network's edges, lifted on first read.

        A pair whose paths carry more than value * d_p is scaled down to it;
        then `_Lift.flows` maps the reduced arc flows to the network's arcs.
        """
        shape, lift, paths = self._primal
        reduced_flows = []
        for p, want, carried in paths:
            got = sum(f for _, f in carried)
            scale = want / got if got > want and got > 0 else 1.0
            acc: dict[tuple[str, str], float] = {}
            for path, f in carried:
                for u, v in zip(path, path[1:]):
                    acc[(u, v)] = acc.get((u, v), 0.0) + f * scale
            reduced_flows.append((p, acc))
        return FlowSolution(lam=self.value, arc_flows=lift.flows(shape, reduced_flows))


# ---------------------------------------------------------------------------
# Exact max flow between vertices or vertex sets (integers: closed form or
# Edmonds-Karp)
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
    Otherwise, or where that table is not taken: when no two of the view's vertices outside
    S | T are adjacent (or there are none), each of them joins its cheaper
    side on its own, so the value is the S-T crossing capacity plus, per
    such v, min(c(v, S), c(v, T)); else Edmonds-Karp runs.  Either way the
    value is exact: the integer flow over the view's scale, as a Fraction.
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
    sources = [index[v] for v in sorted(S)]
    sinks = {index[v] for v in T}
    src = set(sources)
    inner = [nbrs for i, nbrs in enumerate(arcs) if i not in src and i not in sinks]
    if not any(j not in src and j not in sinks for nbrs in inner for j in nbrs):
        total = sum(c for i in src for j, c in arcs[i].items() if j in sinks)
        for nbrs in inner:
            total += min(sum(c for j, c in nbrs.items() if j in src),
                         sum(c for j, c in nbrs.items() if j in sinks))
        return Fraction(total, scale)
    return Fraction(_edmonds_karp(arcs, sources, sinks), scale)


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


def _edge_index(view) -> tuple[list, dict, list]:
    """(vertex names, canonical pair -> edge index, float capacities) of a
    (scale, index, arcs) view.  Edges come in first-occurrence order over
    the vertex numbering, which for a network's `integer_view` is its
    sorted edge order."""
    scale, index, arcs = view
    names = list(index)
    eidx: dict = {}
    caps = []
    for i, nbrs in enumerate(arcs):
        for j, c in nbrs.items():
            e = _pair(names[i], names[j])
            if e not in eidx:
                eidx[e] = len(caps)
                caps.append(to_float(c, "capacity", e, scale))
    return names, eidx, caps


def _shape_of(view) -> _Shape:
    """The shape of a network view: `cut_view` for the oracle's solves,
    `integer_view` for distances on the network."""
    names, eidx, caps = _edge_index(view)
    arcs = {names[i]: [(names[j], eidx[_pair(names[i], names[j])]) for j in nbrs]
            for i, nbrs in enumerate(view[2])}
    return _Shape(edges=list(eidx), caps=caps, arcs=arcs,
                  arc_edge={(u, v): i for u, out in arcs.items() for v, i in out})


@dataclass(frozen=True)
class _Lift:
    """How the edges of a network's `cut_view` stand for its own edges.

    Replaying `TerminalNetwork.reduction`, every edge of the network being
    reduced is a group of constituents: the original edge between its ends,
    then one piece per eliminated vertex v whose series or triangle edge
    a-b was merged into it, in elimination order.  Constituent c < len(edges)
    is original edge c; constituent len(edges) + p is piece p, which runs
    a-v-b through v's side groups a-v and v-b.  A group ends as an edge of
    the reduced net (`top`) or as a side of the first of its ends to be
    eliminated, so the groups form a forest that both lifts walk.
    """

    edges: list     # the network's canonical pairs, as `_edge_index` gives them
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
        missing piece is infinite); if c_a >= c_b + c_c, then l_a = 0,
        l_b = d_ab and l_c = d_ac; otherwise l_a = (d_ab + d_ac - d_bc) / 2
        and likewise.  Degree <= 1: 0.
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
                (g0, c0), (g1, c1), (g2, c2) = sides
                if c0 >= c1 + c2:
                    ls = (0.0, d01, d02)
                elif c1 >= c0 + c2:
                    ls = (d01, 0.0, d12)
                elif c2 >= c0 + c1:
                    ls = (d02, d12, 0.0)
                else:
                    ls = ((d01 + d02 - d12) / 2, (d01 + d12 - d02) / 2,
                          (d02 + d12 - d01) / 2)
                glen[g0], glen[g1], glen[g2] = (max(x, 0.0) for x in ls)
        return [glen[g] for g in owner[:len(self.edges)]]


def _lift_of(net: TerminalNetwork, reduced: _Shape) -> _Lift:
    """Replay the network's eliminations into groups of constituents."""
    names, eidx, cap = _edge_index(net.integer_view)
    owner: list[int] = []
    members: list[list[int]] = []
    live: dict = {}       # canonical pair -> its group, while both ends live
    pieces = []

    def join(e):
        g = live.get(e)
        if g is None:
            g = live[e] = len(members)
            members.append([])
        members[g].append(len(owner))
        owner.append(g)

    for e in eidx:
        join(e)

    def piece(a, v, b, ga, gb, x):
        cap.append(x)
        pieces.append((a, v, ga, gb))
        join(_pair(a, b))
        return len(cap) - 1

    steps = []
    for v, nbrs, scale in net.reduction[1]:
        v = names[v]
        sides = sorted((names[u], live.pop(_pair(v, names[u])), c) for u, c in nbrs)
        if len(sides) == 2:
            (a, ga, ca), (b, gb, cb) = sides
            pp = (piece(a, v, b, ga, gb, min(ca, cb) / scale),)
        elif len(sides) == 3:
            total = sum(c for _, _, c in sides)
            clipped = [min(c, total - c) for _, _, c in sides]
            pp = []
            for i, j, k in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
                x = clipped[i] + clipped[j] - clipped[k]
                pp.append(piece(sides[i][0], v, sides[j][0], sides[i][1],
                                sides[j][1], x / (2 * scale)) if x > 0 else None)
        else:
            pp = ()
        steps.append((tuple((g, c) for _, g, c in sides), tuple(pp)))
    return _Lift(edges=list(eidx), cap=cap, owner=owner,
                 members=members, top=[live[e] for e in reduced.edges],
                 pieces=pieces, steps=steps)


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


def _dijkstra_pair(net: TerminalNetwork, lengths: dict, s: str, t: str) -> float:
    """s-t distance; an edge missing from `lengths` has length 0."""
    shape = _shape_of(net.integer_view)
    dist, _ = _dijkstra(shape.arcs, [lengths.get(e, 0.0) for e in shape.edges], s)
    return dist.get(t, np.inf)


def _extract_path(parent: dict, t: str) -> tuple[str, ...]:
    path = [t]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    return tuple(reversed(path))


def _bfs_path(arcs: dict, s: str, t: str) -> tuple[str, ...] | None:
    """Fewest-edge s-t path over `_Shape.arcs` lists, neighbours taken in
    name order; None if there is none."""
    parent = {s: None}
    q = deque([s])
    while q:
        u = q.popleft()
        if u == t:
            return _extract_path(parent, t)
        for v in sorted(v for v, _ in arcs[u]):
            if v not in parent:
                parent[v] = u
                q.append(v)
    return None


@dataclass
class _NetState:
    """What the oracle remembers about one network, kept on the network.

    `memo` maps demand entries to the frozen result, its dual lifted to the
    network;
    `pool` maps a pair to the reduced-net paths that carried flow for it in
    earlier solves, in first-use order, each with its edge-index rows (dict
    keys and values).  Only memoized solves feed the pool.  `shape`, the
    shape of the network's `cut_view`, and `lift`, which maps its
    certificates back, are built on the first solve; `starts` holds per pair
    its reduced-net BFS path and rows.  All three depend on the network
    alone; every solve uses them.  Nothing here refers to the network, so
    the record leaves with it.
    """

    memo: dict = field(default_factory=dict)
    pool: dict = field(default_factory=dict)
    shape: _Shape | None = None
    lift: _Lift | None = None
    starts: dict = field(default_factory=dict)


_cache_lock = threading.Lock()    # threads solving on one network share its record


def _state(net: TerminalNetwork) -> _NetState:
    """The network's record, kept in its instance dict as `cached_property`
    keeps `cut_view`, and made on first use; call under the lock."""
    state = net.__dict__.get("_flow_state")
    if state is None:
        state = net.__dict__["_flow_state"] = _NetState()
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

    Raises FlowError on the all-zero demand (the value is unbounded there).
    """
    demand = _checked_demand(net, demand)
    with _cache_lock:
        hit = _state(net).memo.get(demand.entries)
    if hit is not None:
        return hit

    result = _concurrent_flow_uncached(net, demand)
    with _cache_lock:
        _state(net).memo.setdefault(demand.entries, result)
    return result


_PATHS_PER_PAIR_PER_ROUND = 16


def _concurrent_flow_uncached(net, demand) -> ConcurrentFlowResult:
    """Column generation on the path form of maximum concurrent flow.

    Rows are fixed (#pairs demand rows + #edges capacity rows), so a path
    column appended between rounds leaves the current basis and its inverse
    valid; each round just continues the simplex.  The row multipliers are
    exactly the edge lengths / pair distances of the edge-length dual, and
    Dijkstra under those lengths prices out violated paths.

    The solve runs on the network's reduced view (`cut_view`, which keeps
    every concurrent flow value): it takes the view's shape, its lift and
    each pair's BFS start path from the record, building them on first use,
    starts from the pooled paths as well, adds the paths that carry flow to
    the pool, and returns the dual lifted back to the network.  The result
    keeps the per-pair path flows with the shape and the lift, not the
    network, and lifts the primal when `.flow` is first read.

    Raises LPError when the duality gap exceeds OPT_TOL.
    """
    from .lp import simplex_min

    pairs = demand.pairs()
    pidx = {p: i for i, p in enumerate(pairs)}
    # columns: lambda | path flows ... | slacks (identity)
    col_paths: list[tuple[tuple[str, str], tuple[str, ...], tuple[int, ...]] | None] = [None]
    seen_paths = set()

    def add_path(pair, path, rows):
        if (pair, path) in seen_paths:
            return False
        seen_paths.add((pair, path))
        col_paths.append((pair, path, rows))
        return True

    with _cache_lock:
        state = _state(net)
        if state.shape is None:
            state.shape = _shape_of(net.cut_view)
            state.lift = _lift_of(net, state.shape)
        shape, lift = state.shape, state.lift
        for p in pairs:
            if p not in state.starts:
                path = _bfs_path(shape.arcs, *p)
                if path is None:
                    raise FlowError(f"no path between {p[0]} and {p[1]}")
                state.starts[p] = path, shape.rows(path)
            add_path(p, *state.starts[p])
        for p in pairs:
            for path, rows in state.pool.get(p, {}).items():
                add_path(p, path, rows)

    arcs = shape.arcs
    np_ = len(pairs)
    m = np_ + len(shape.edges)
    b = np.concatenate([np.zeros(np_), shape.caps])

    def grow(A, n_old, n_struct):
        """[A's structural block | columns n_old..n_struct-1 | identity].

        A path column holds -1 in its pair's row and 1 in each edge's row;
        a simple path uses an edge at most once."""
        grown = np.zeros((m, n_struct + m))
        grown[:, :n_old] = A[:, :n_old]
        new = range(max(n_old, 1), n_struct)
        ones_r: list[int] = []
        ones_c: list[int] = []
        for j in new:
            edge_rows = col_paths[j][2]
            ones_r += edge_rows
            ones_c += [j] * len(edge_rows)
        grown[[pidx[col_paths[j][0]] for j in new], new] = -1.0
        grown[np_:][ones_r, ones_c] = 1.0
        if n_old == 0:
            grown[:np_, 0] = [demand[p] for p in pairs]
        rows = np.arange(m)
        grown[rows, n_struct + rows] = 1.0
        return grown

    A = np.zeros((m, 0))
    basis = np.arange(m)
    Binv = np.eye(m)
    rounds = pivots = 0
    n_struct_prev = 0
    while True:
        rounds += 1
        if rounds > _MAX_SEPARATION_ROUNDS:
            raise FlowError("column generation did not converge")
        n_struct = len(col_paths)
        A = grow(A, n_struct_prev, n_struct)
        c_full = np.zeros(n_struct + m)
        c_full[0] = -1.0
        if rounds == 1:
            basis = np.arange(n_struct, n_struct + m)
            Binv = np.eye(m)
        else:
            # slack block moved right by the freshly appended columns
            shift = n_struct - n_struct_prev
            basis = np.where(basis >= n_struct_prev, basis + shift, basis)
        x, value, y, basis, Binv, it = simplex_min(c_full, A, b, basis, Binv=Binv)
        pivots += it
        n_struct_prev = n_struct

        deltas = np.maximum(-y[:np_], 0.0).tolist()
        lengths = np.maximum(-y[np_:], 0.0).tolist()   # per edge index

        added = False
        src_cache: dict[str, tuple[dict, dict]] = {}
        for p, target in zip(pairs, deltas):
            s, t = p
            if target <= FEAS_TOL:
                continue
            if s not in src_cache:
                src_cache[s] = _dijkstra(arcs, lengths, s)
            ds, parent_s = src_cache[s]
            if ds.get(t, np.inf) >= target - FEAS_TOL:
                continue
            if t not in src_cache:
                src_cache[t] = _dijkstra(arcs, lengths, t)
            dt, parent_t = src_cache[t]
            # candidate midpoints give many violated paths per round
            cand = sorted(arcs,
                          key=lambda v: ds.get(v, np.inf) + dt.get(v, np.inf))
            taken = 0
            for v in cand:
                via = ds.get(v, np.inf) + dt.get(v, np.inf)
                if via >= target - FEAS_TOL or taken >= _PATHS_PER_PAIR_PER_ROUND:
                    break
                left = _extract_path(parent_s, v)
                right = _extract_path(parent_t, v)
                path = left + tuple(reversed(right[:-1]))
                if len(set(path)) != len(path):
                    continue
                if add_path(p, path, shape.rows(path)):
                    taken += 1
                    added = True
        if not added:
            break

    lam = -value
    edge_lengths = lift.lengths(lengths)
    dual_obj = float(sum(c * l for c, l in zip(lift.cap, edge_lengths)))
    gap = abs(dual_obj - lam) / max(1.0, abs(lam))
    if gap > OPT_TOL:
        raise LPError(f"duality gap {gap:.3g} exceeds {OPT_TOL:g}")

    xs = x.tolist()
    per_pair_paths: dict[tuple[str, str], list] = {p: [] for p in pairs}
    for col, f in zip(col_paths[1:], xs[1:]):
        if f > 1e-12:
            per_pair_paths[col[0]].append((col, f))
    with _cache_lock:
        pool = _state(net).pool
        for p in pairs:
            pool.setdefault(p, {}).update(
                (path, rows) for (_, path, rows), _ in per_pair_paths[p])

    # the last pricing round ran Dijkstra under these same final lengths
    by_source = {s: tree[0] for s, tree in src_cache.items()}
    dist_rows = []
    for p in net.terminal_pairs():
        s, t = p
        if s not in by_source:
            by_source[s] = _dijkstra(arcs, lengths, s)[0]
        dist_rows.append((p, float(by_source[s].get(t, np.inf))))

    dual = DualSolution(lengths=tuple(sorted(zip(lift.edges, edge_lengths))),
                        dists=tuple(dist_rows), value=dual_obj)
    primal = (shape, lift, tuple(
        (p, lam * demand[p], tuple((path, f) for (_, path, _), f in per_pair_paths[p]))
        for p in pairs))
    return ConcurrentFlowResult(value=lam, dual=dual, duality_gap=gap, rounds=rounds,
                                pivots=pivots, _primal=primal)


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
