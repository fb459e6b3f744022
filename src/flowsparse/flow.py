"""The flow oracle: concurrent flow, its dual, restricted variants, cuts.

`concurrent_flow` computes the concurrent multicommodity-flow value of a
demand vector (the largest multiple of the demand that routes within the
capacities) by solving the edge-length dual with delayed constraint
generation: path constraints are priced by Dijkstra and added only when
violated.  The primal flow is recovered from the multipliers of the
generated path rows.

The oracle keeps one record per network: a memo of finished results by
demand; a path pool, the paths that carried flow in earlier solves, which
seed the next solve's columns; and what a solve needs of the network alone,
built once: the LP shape (canonical edges with parallel edges summed, float
capacities, arc lists, arc-to-edge map), one BFS start path per pair, and
each pooled path's edge rows.  The store holds at most _FLOW_CACHE_MAX memo
entries over all networks and, when full, drops whole least-recently-used
networks.

The 2-hop flow, its dual and the terminal-free flow are restricted solves of
the same oracle: paths may end at a terminal but never pass through one.

Also here: exact max flow between two vertices or two vertex sets
(shortest augmenting paths on integers: the rational capacities scaled by
the LCM of their denominators, cached per network), which also gives the
terminal-bipartition min cuts, and the exact sparsest cut, by brute force or
over terminal bipartitions.  Flows between terminals run on the network's
cached cut view, where non-terminals of degree at most 3 are eliminated
without changing any terminal cut.
"""

from __future__ import annotations

import heapq
import threading
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .lp import LPError
from .network import DemandVector, TerminalNetwork, _pair, terminal_bipartitions

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

    def to_json_dict(self) -> dict:
        return {
            "lambda": self.lam,
            "commodities": [
                {"s": p[0], "t": p[1],
                 "arcs": [{"from": u, "to": v, "flow": f}
                          for (u, v), f in arcs]}
                for p, arcs in self.arc_flows],
        }

    def check(self, net: TerminalNetwork, demand: DemandVector,
              tol: float = 1e-6) -> None:
        for e, load in self.edge_loads().items():
            cap = float(net.cap(*e))    # parallel edges summed
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

    def to_json_dict(self) -> dict:
        return {
            "value": finite_or_none(self.value),
            "lengths": [{"u": e[0], "v": e[1], "length": finite_or_none(l)}
                        for e, l in self.lengths],
            "distances": [{"s": p[0], "t": p[1], "dist": finite_or_none(d)}
                          for p, d in self.dists],
        }

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
class Cut:
    side: frozenset[str]
    capacity: float
    separated_demand: float
    sparsity: float


@dataclass(frozen=True)
class ConcurrentFlowResult:
    value: float
    flow: FlowSolution
    dual: DualSolution
    duality_gap: float
    rounds: int
    pivots: int     # simplex pivots over all rounds


# ---------------------------------------------------------------------------
# Exact max flow between vertices or vertex sets (Edmonds-Karp on integers)
# ---------------------------------------------------------------------------

def max_flow(net: TerminalNetwork, s, t) -> Fraction:
    """Exact maximum flow value from `s` to `t`.

    Each of `s` and `t` is a vertex or a set of vertices; a set acts as one
    vertex joined to each member by unbounded capacity.  Edmonds-Karp runs on
    integers: on the network's cached `cut_view` when every endpoint is a
    terminal, since that view keeps every cut between terminal sets, and on
    its cached `integer_view` otherwise.  Either way the value is exact: the
    integer flow over the view's scale, as a Fraction.
    """
    S = frozenset([s] if isinstance(s, str) else s)
    T = frozenset([t] if isinstance(t, str) else t)
    if not S or not T or S & T:
        raise FlowError("source and sink must be nonempty and disjoint")
    ends = S | T
    scale, index, arcs = (net.cut_view if ends <= net.terminal_set
                          else net.integer_view)
    if not ends <= index.keys():
        raise FlowError("endpoint not in network")
    residual = [dict(nbrs) for nbrs in arcs]
    sources = [index[v] for v in sorted(S)]
    sinks = {index[v] for v in T}
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
            return Fraction(total, scale)
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
    """Exact min capacity of an edge cut separating terminal sets A from B."""
    A = frozenset(str(x) for x in a_side)
    B = frozenset(str(x) for x in b_side)
    if not A or not B or (A | B) != net.terminal_set or (A & B):
        raise FlowError("(A, B) must bipartition the terminal set into nonempty parts")
    return max_flow(net, A, B)


# ---------------------------------------------------------------------------
# Concurrent flow via constraint generation on the edge-length dual
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Shape:
    """What a solve needs of the network alone.

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


def _shape_of(net: TerminalNetwork) -> _Shape:
    adj = net.adjacency
    edges = list(dict.fromkeys(_pair(u, v) for u, v, _ in net.edges))
    eidx = {e: i for i, e in enumerate(edges)}
    arcs = {u: [(v, eidx[_pair(u, v)]) for v in nbrs] for u, nbrs in adj.items()}
    return _Shape(edges=edges, caps=[float(adj[u][v]) for u, v in edges],
                  arcs=arcs,
                  arc_edge={(u, v): i for u, out in arcs.items() for v, i in out})


def _dijkstra(arcs: dict, lengths: list, source: str,
              stop: frozenset = frozenset()):
    """Shortest paths from source over `_Shape.arcs` lists, `lengths[i]`
    being edge i's length; vertices in `stop` are reached, not left."""
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
        if stop and u != source and u in stop:
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
    shape = _shape_of(net)
    dist, _ = _dijkstra(shape.arcs, [lengths.get(e, 0.0) for e in shape.edges], s)
    return dist.get(t, np.inf)


def _extract_path(parent: dict, t: str) -> tuple[str, ...]:
    path = [t]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    return tuple(reversed(path))


def _bfs_path(net: TerminalNetwork, s: str, t: str,
              stop: frozenset = frozenset()) -> tuple[str, ...] | None:
    """Fewest-edge s-t path with no internal vertex in `stop`, or None."""
    parent = {s: None}
    q = deque([s])
    while q:
        u = q.popleft()
        if u == t:
            return _extract_path(parent, t)
        if stop and u != s and u in stop:
            continue
        for v in sorted(net.adjacency[u]):
            if v not in parent:
                parent[v] = u
                q.append(v)
    return None


@dataclass
class _NetState:
    """What the oracle remembers about one network.

    `memo` maps demand entries to the frozen result; `pool` maps a pair to
    the paths that carried flow for it in earlier solves, in first-use order,
    each with its edge-index rows (dict keys and values).  Only memoized
    solves feed the pool, so it grows with the memo and leaves with it.
    `shape` (built on the first solve) and `starts` (per pair, its BFS path
    and rows) depend on the network alone.
    """

    memo: dict = field(default_factory=dict)
    pool: dict = field(default_factory=dict)
    shape: _Shape | None = None
    starts: dict = field(default_factory=dict)


_cache_lock = threading.Lock()
_store: OrderedDict = OrderedDict()   # net.cache_key -> _NetState, LRU first
_memo_entries = 0
_FLOW_CACHE_MAX = 60000               # memo entries over all networks


def clear_flow_cache() -> None:
    """Forget every network's memo and path pool."""
    global _memo_entries
    with _cache_lock:
        _store.clear()
        _memo_entries = 0


def _state(net: TerminalNetwork) -> _NetState:
    """The network's record, now most recently used; call under the lock."""
    state = _store.get(net.cache_key)
    if state is None:
        state = _store[net.cache_key] = _NetState()
    else:
        _store.move_to_end(net.cache_key)
    return state


def _remember(net: TerminalNetwork, entries: tuple, result) -> None:
    """Memoize a result, first evicting least-recently-used networks whole
    while the store is full."""
    global _memo_entries
    with _cache_lock:
        if entries in _state(net).memo:
            return
        while _memo_entries >= _FLOW_CACHE_MAX:
            _, old = _store.popitem(last=False)
            _memo_entries -= len(old.memo)
        _state(net).memo[entries] = result
        _memo_entries += 1


def _checked_demand(net: TerminalNetwork, demand) -> DemandVector:
    if not isinstance(demand, DemandVector):
        demand = DemandVector.of(demand)
    if demand.is_zero:
        raise FlowError("concurrent flow is undefined for the zero demand")
    if not demand.restricted_to(net.terminals):
        raise FlowError("demand involves non-terminal vertices")
    return demand


def concurrent_flow(net: TerminalNetwork, demand: DemandVector | dict) -> ConcurrentFlowResult:
    """Concurrent-flow value of the demand, with primal and dual solutions.

    Raises FlowError on the all-zero demand (the value is unbounded there).
    """
    demand = _checked_demand(net, demand)
    with _cache_lock:
        hit = _state(net).memo.get(demand.entries)
    if hit is not None:
        return hit

    result = _concurrent_flow_uncached(net, demand)
    _remember(net, demand.entries, result)
    return result


_PATHS_PER_PAIR_PER_ROUND = 16


def _concurrent_flow_uncached(net, demand,
                              stop: frozenset = frozenset()) -> ConcurrentFlowResult:
    """Column generation on the path form of maximum concurrent flow.

    Rows are fixed (#pairs demand rows + #edges capacity rows), so a path
    column appended between rounds leaves the current basis and its inverse
    valid; each round just continues the simplex.  The row multipliers are
    exactly the edge lengths / pair distances of the edge-length dual, and
    Dijkstra under those lengths prices out violated paths.

    Unrestricted solves (empty `stop`) take the network's shape and each
    pair's BFS start path from its record, building them on first use, start
    from the pooled paths as well, and add the paths that carry flow to the
    pool.  Restricted solves neither read nor write the record.

    Paths may end at a vertex of `stop` but never pass through one; the
    reported distances are shortest such paths.

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

    def start(shape, p):
        path = _bfs_path(net, p[0], p[1], stop)
        if path is None:
            raise FlowError(f"no path between {p[0]} and {p[1]}")
        return path, shape.rows(path)

    if stop:
        shape = _shape_of(net)
        starts = [start(shape, p) for p in pairs]
        pooled = []
    else:
        with _cache_lock:
            state = _state(net)
            if state.shape is None:
                state.shape = _shape_of(net)
            shape = state.shape
            starts = []
            for p in pairs:
                if p not in state.starts:
                    state.starts[p] = start(shape, p)
                starts.append(state.starts[p])
            pooled = [(p, path, rows) for p in pairs
                      for path, rows in state.pool.get(p, {}).items()]
    for p, (path, rows) in zip(pairs, starts):
        add_path(p, path, rows)
    for p, path, rows in pooled:
        add_path(p, path, rows)

    edges, arcs = shape.edges, shape.arcs
    np_ = len(pairs)
    m = np_ + len(edges)
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
                src_cache[s] = _dijkstra(arcs, lengths, s, stop)
            ds, parent_s = src_cache[s]
            if ds.get(t, np.inf) >= target - FEAS_TOL:
                continue
            if t not in src_cache:
                src_cache[t] = _dijkstra(arcs, lengths, t, stop)
            dt, parent_t = src_cache[t]
            # candidate midpoints give many violated paths per round
            cand = sorted(net.vertices,
                          key=lambda v: ds.get(v, np.inf) + dt.get(v, np.inf))
            taken = 0
            for v in cand:
                via = ds.get(v, np.inf) + dt.get(v, np.inf)
                if via >= target - FEAS_TOL or taken >= _PATHS_PER_PAIR_PER_ROUND:
                    break
                if stop and v in stop and v not in p:
                    continue
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
    dual_obj = float(sum(c * l for c, l in zip(shape.caps, lengths)))
    gap = abs(dual_obj - lam) / max(1.0, abs(lam))
    if gap > OPT_TOL:
        raise LPError(f"duality gap {gap:.3g} exceeds {OPT_TOL:g}")

    xs = x.tolist()
    per_pair_paths: dict[tuple[str, str], list] = {p: [] for p in pairs}
    for col, f in zip(col_paths[1:], xs[1:]):
        if f > 1e-12:
            per_pair_paths[col[0]].append((col, f))
    arc_flows = []
    for p in pairs:
        want = lam * demand[p]
        got = sum(f for _, f in per_pair_paths[p])
        scale = want / got if got > want and got > 0 else 1.0
        acc: dict[tuple[str, str], float] = {}
        for (_, path, _), f in per_pair_paths[p]:
            for u, v in zip(path, path[1:]):
                acc[(u, v)] = acc.get((u, v), 0.0) + f * scale
        arc_flows.append((p, tuple(sorted(acc.items()))))
    if not stop:
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
            by_source[s] = _dijkstra(arcs, lengths, s, stop)[0]
        dist_rows.append((p, float(by_source[s].get(t, np.inf))))

    flow = FlowSolution(lam=lam, arc_flows=tuple(arc_flows))
    dual = DualSolution(lengths=tuple(sorted(zip(edges, lengths))),
                        dists=tuple(dist_rows), value=dual_obj)
    return ConcurrentFlowResult(value=lam, flow=flow, dual=dual,
                                duality_gap=gap, rounds=rounds, pivots=pivots)


def lambda_value(net: TerminalNetwork, demand) -> float:
    return concurrent_flow(net, demand).value


# ---------------------------------------------------------------------------
# Restricted solves: 2-hop flow and its dual, terminal-free flow
# ---------------------------------------------------------------------------

def _require_quasi_bipartite(net: TerminalNetwork) -> None:
    if not net.is_quasi_bipartite():
        raise FlowError("network is not quasi-bipartite")
    if not net.terminals_independent():
        raise FlowError("terminals are not independent "
                        "(subdivide terminal-terminal edges first)")


@dataclass(frozen=True)
class TwoHopFlow:
    value: float
    middle_flows: tuple  # ((pair, ((v, flow), ...)), ...)
    unroutable_pairs: tuple


def _unroutable_pairs(net: TerminalNetwork, demand: DemandVector) -> tuple:
    """Demand pairs joined by no path free of internal terminals."""
    return tuple(p for p in demand.pairs()
                 if _bfs_path(net, p[0], p[1], net.terminal_set) is None)


# The restricted solves bypass the memo and the path pool, which are not
# keyed by the stop set.

def lambda_2hop(net: TerminalNetwork, demand: DemandVector | dict) -> TwoHopFlow:
    """Optimal concurrent flow along paths s-v-t only.

    With independent terminals on a quasi-bipartite network these are exactly
    the paths with no internal terminal.
    """
    _require_quasi_bipartite(net)
    demand = _checked_demand(net, demand)
    unroutable = _unroutable_pairs(net, demand)
    if unroutable:
        return TwoHopFlow(0.0, tuple(), unroutable)
    res = _concurrent_flow_uncached(net, demand, net.terminal_set)
    middle = tuple((p, tuple((v, f) for (u, v), f in arcs if u == p[0]))
                   for p, arcs in res.flow.arc_flows)
    return TwoHopFlow(res.value, middle, tuple())


def dual_2hop(net: TerminalNetwork, demand: DemandVector | dict):
    """Dual of the 2-hop flow LP: edge lengths, plus the 2-hop distance of
    every terminal pair under them (inf for a pair with no common neighbor).

    Requires every positive-demand pair to have a positive-capacity common
    neighbor (the primal must be feasible and bounded).
    Returns (value, DualSolution).
    """
    _require_quasi_bipartite(net)
    demand = _checked_demand(net, demand)
    unroutable = _unroutable_pairs(net, demand)
    if unroutable:
        raise FlowError(f"pair {unroutable[0]} has no positive-capacity common neighbor")
    res = _concurrent_flow_uncached(net, demand, net.terminal_set)
    return res.dual.value, res.dual


def lambda_terminal_free(net: TerminalNetwork, demand: DemandVector | dict) -> float:
    """Concurrent flow restricted to paths with no internal terminal.

    The value is 0 when some demand pair has no such path.
    """
    demand = _checked_demand(net, demand)
    if _unroutable_pairs(net, demand):
        return 0.0
    return _concurrent_flow_uncached(net, demand, net.terminal_set).value


# ---------------------------------------------------------------------------
# Cuts
# ---------------------------------------------------------------------------

def sparsest_cut(net: TerminalNetwork, demand: DemandVector | dict,
                 *, max_vertices: int = 20) -> tuple[float, Cut]:
    """Exact sparsest cut by enumerating all vertex subsets (desk scale only)."""
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


def sparsest_terminal_cut(net: TerminalNetwork, demand: DemandVector | dict) -> tuple[float, tuple]:
    """Min over terminal bipartitions of mincut(A,B)/d(A,B): the sparsest cut.

    A vertex set that separates demand splits the terminals into some (A, B),
    separates exactly d(A, B) and costs at least mincut(A, B); a min cut of
    (A, B) is such a set.  So the minimum equals `sparsest_cut`'s value."""
    if not isinstance(demand, DemandVector):
        demand = DemandVector.of(demand)
    best = (np.inf, None)
    for A, B in terminal_bipartitions(net.terminals):
        A, B = frozenset(A), frozenset(B)
        sep = sum(val for (s, t), val in demand.items()
                  if (s in A) != (t in A))
        if sep <= 0:
            continue
        cut = float(mincut_partition(net, A, B))
        ratio = cut / sep
        if ratio < best[0]:
            best = (ratio, (A, B))
    if best[1] is None:
        raise FlowError("no terminal bipartition separates positive demand")
    return best

