"""Flow-path surgery: decomposition, splicing at internal terminals, and the
reverse reconnection, plus sparsifier composition by terminal gluing.

Splicing replaces a flow path that passes through a terminal internally by
its two halves, converting demand between the endpoints into demand on the
two sub-pairs; per-edge loads are untouched.  The recorded split log makes
the operation invertible: a routing of the spliced demand in another network
can be reconnected (in reverse split order) into a routing of the original
demand.  All amounts are exact rationals so arbitrarily long split chains
do not drift.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .flow import FlowError, FlowSolution
from .network import TerminalNetwork, _pair


@dataclass(frozen=True)
class FlowPath:
    vertices: tuple[str, ...]
    amount: Fraction

    @property
    def endpoints(self) -> tuple[str, str]:
        return _pair(self.vertices[0], self.vertices[-1])

    def edges(self):
        return [_pair(u, v) for u, v in zip(self.vertices, self.vertices[1:])]


@dataclass(frozen=True)
class FlowDecomposition:
    paths: tuple[FlowPath, ...]

    def induced_demand(self) -> dict[tuple[str, str], Fraction]:
        acc: dict[tuple[str, str], Fraction] = {}
        for p in self.paths:
            key = p.endpoints
            acc[key] = acc.get(key, Fraction(0)) + p.amount
        return acc

    def edge_loads(self) -> dict[tuple[str, str], Fraction]:
        acc: dict[tuple[str, str], Fraction] = {}
        for p in self.paths:
            for e in p.edges():
                acc[e] = acc.get(e, Fraction(0)) + p.amount
        return acc

    def internal_terminal_occurrences(self, terminals) -> int:
        ts = set(terminals)
        return sum(1 for p in self.paths for v in p.vertices[1:-1] if v in ts)

    def check_capacities(self, net: TerminalNetwork,
                         rel_tol: Fraction = Fraction(1, 10**6)) -> None:
        for e, load in self.edge_loads().items():
            cap = net.cap(*e)
            if load > cap + rel_tol * max(1, cap):
                raise FlowError(f"decomposition overloads edge {e}")


@dataclass(frozen=True)
class SplitRecord:
    parent_pair: tuple[str, str]
    at: str                          # the internal terminal where it was cut
    left_pair: tuple[str, str]
    right_pair: tuple[str, str]
    amount: Fraction


@dataclass(frozen=True)
class SpliceResult:
    decomposition: FlowDecomposition
    log: tuple[SplitRecord, ...]


# ---------------------------------------------------------------------------
# Decomposition
# ---------------------------------------------------------------------------

def decompose_flow(net: TerminalNetwork, sol: FlowSolution,
                   tol: float = 1e-9) -> FlowDecomposition:
    """Path decomposition of a feasible flow solution; at most |E| paths per
    commodity (opposite arcs are netted and directed cycles cancelled first)."""
    paths: list[FlowPath] = []
    for pair, arcs in sol.arc_flows:
        s, t = pair
        net_arc: dict[tuple[str, str], Fraction] = {}
        for (u, v), f in arcs:
            if f < -tol:
                raise FlowError("negative arc flow")
            fu = Fraction(f)
            rev = net_arc.get((v, u), Fraction(0))
            if rev > 0:
                m = min(rev, fu)
                net_arc[(v, u)] = rev - m
                fu -= m
                if net_arc[(v, u)] == 0:
                    del net_arc[(v, u)]
            if fu > 0:
                net_arc[(u, v)] = net_arc.get((u, v), Fraction(0)) + fu
        _cancel_cycles(net_arc)
        floor = Fraction(tol)
        while True:
            peeled = _peel_path(net_arc, s, t, floor)
            if peeled is None:
                break
            verts, amount = peeled
            paths.append(FlowPath(vertices=verts, amount=amount))
    dec = FlowDecomposition(paths=tuple(paths))
    dec.check_capacities(net)
    return dec


def _cancel_cycles(net_arc: dict) -> None:
    """Remove directed cycles from the positive arc set (loads only drop)."""
    while True:
        cycle = _find_cycle(net_arc)
        if cycle is None:
            return
        arcs = list(zip(cycle, cycle[1:]))
        m = min(net_arc[a] for a in arcs)
        for a in arcs:
            net_arc[a] -= m
            if net_arc[a] == 0:
                del net_arc[a]


def _find_cycle(net_arc: dict):
    succ: dict[str, list[str]] = {}
    for (u, v), f in net_arc.items():
        if f > 0:
            succ.setdefault(u, []).append(v)
    color: dict[str, int] = {}
    for start in sorted(succ):
        if color.get(start, 0) != 0:
            continue
        stack = [(start, iter(sorted(succ.get(start, []))))]
        trail = [start]
        color[start] = 1
        while stack:
            u, it = stack[-1]
            advanced = False
            for v in it:
                if color.get(v, 0) == 1:
                    i = trail.index(v)
                    return trail[i:] + [v]
                if color.get(v, 0) == 0:
                    color[v] = 1
                    trail.append(v)
                    stack.append((v, iter(sorted(succ.get(v, [])))))
                    advanced = True
                    break
            if not advanced:
                color[u] = 2
                stack.pop()
                trail.pop()
    return None


def _peel_path(net_arc: dict, s: str, t: str, floor: Fraction):
    """Follow positive arcs from s to t (smallest-successor rule), subtract
    the bottleneck.  Returns (vertices, amount) or None when no flow above
    the dust floor leaves s."""
    verts = [s]
    seen = {s}
    while verts[-1] != t:
        u = verts[-1]
        nxt = sorted(v for (a, v), f in net_arc.items()
                     if a == u and f > floor and v not in seen)
        if not nxt:
            return None
        v = nxt[0]
        verts.append(v)
        seen.add(v)
    arcs = list(zip(verts, verts[1:]))
    amount = min(net_arc[a] for a in arcs)
    if amount <= floor:
        for a in arcs:
            net_arc[a] -= amount
            if net_arc[a] <= 0:
                del net_arc[a]
        return _peel_path(net_arc, s, t, floor)
    for a in arcs:
        net_arc[a] -= amount
        if net_arc[a] <= 0:
            del net_arc[a]
    return tuple(verts), amount


# ---------------------------------------------------------------------------
# Splicing and its inverse
# ---------------------------------------------------------------------------

def splice(dec: FlowDecomposition, terminals) -> SpliceResult:
    """Split every path at its internal terminals until none remain inside;
    per-edge loads are preserved exactly."""
    ts = set(terminals)
    work = list(dec.paths)
    out: list[FlowPath] = []
    log: list[SplitRecord] = []
    while work:
        p = work.pop(0)
        cut = None
        for i, v in enumerate(p.vertices[1:-1], start=1):
            if v in ts:
                cut = i
                break
        if cut is None:
            out.append(p)
            continue
        at = p.vertices[cut]
        left = FlowPath(vertices=p.vertices[:cut + 1], amount=p.amount)
        right = FlowPath(vertices=p.vertices[cut:], amount=p.amount)
        log.append(SplitRecord(parent_pair=p.endpoints, at=at,
                               left_pair=left.endpoints,
                               right_pair=right.endpoints,
                               amount=p.amount))
        work.insert(0, right)
        work.insert(0, left)
    return SpliceResult(decomposition=FlowDecomposition(tuple(out)),
                        log=tuple(log))


def unsplice_route(net_b: TerminalNetwork, original_demand,
                   spliced_routing: FlowDecomposition | FlowSolution,
                   result: SpliceResult) -> FlowDecomposition:
    """Reconnect a routing of the spliced demand into one of the original.

    `spliced_routing` must route the spliced demand in net_b.  Undoes the
    split log in reverse: each record takes its amount of flow between the
    two half pairs and concatenates through the splitting terminal.  Walks
    that revisit a vertex are simplified, which only lowers loads.  Returns
    a decomposition routing the original demand.
    """
    if isinstance(spliced_routing, FlowSolution):
        spliced_routing = decompose_flow(net_b, spliced_routing)
    pools: dict[tuple[str, str], list[list]] = {}
    for p in spliced_routing.paths:
        pools.setdefault(p.endpoints, []).append([p.vertices, p.amount])

    def take(pair, amount):
        got = []
        pool = pools.get(pair, [])
        need = amount
        slack = amount / Fraction(10**9)
        while need > slack and pool:
            verts, avail = pool[0]
            use = min(avail, need)
            got.append((verts, use))
            if avail == use:
                pool.pop(0)
            else:
                pool[0][1] = avail - use
            need -= use
        if need > slack:
            raise FlowError(f"inconsistent split log: short {float(need)} "
                            f"flow between {pair}")
        return got

    for rec in reversed(result.log):
        lefts = take(rec.left_pair, rec.amount)
        rights = take(rec.right_pair, rec.amount)
        for verts, a in _pair_up(lefts, rights, rec.at):
            pools.setdefault(_pair(verts[0], verts[-1]), []).append(
                [verts, a])

    paths = [FlowPath(vertices=tuple(verts), amount=amt)
             for pool in pools.values() for verts, amt in pool if amt > 0]
    out = FlowDecomposition(paths=tuple(paths))
    out.check_capacities(net_b)
    target = {}
    items = original_demand.items() if hasattr(original_demand, "items") else original_demand
    for pair, v in items:
        target[_pair(*pair)] = Fraction(v)
    routed = out.induced_demand()
    for pair, want in target.items():
        got = routed.get(pair, Fraction(0))
        if abs(float(got - want)) > 1e-6 * max(1.0, float(want)):
            raise FlowError(f"reconnected routing misses demand on {pair}")
    return out


def _pair_up(lefts, rights, junction):
    """Concatenate left and right pieces through the junction terminal,
    splitting amounts greedily."""
    out = []
    li, ri = 0, 0
    lefts = [[list(v), a] for v, a in lefts]
    rights = [[list(v), a] for v, a in rights]
    while li < len(lefts) and ri < len(rights):
        lverts, lamt = lefts[li]
        rverts, ramt = rights[ri]
        use = min(lamt, ramt)
        walk = _orient(lverts, junction) + _orient(rverts, junction)[::-1][1:]
        walk = _simplify_walk(walk)
        out.append((tuple(walk), use))
        lefts[li][1] -= use
        rights[ri][1] -= use
        if lefts[li][1] == 0:
            li += 1
        if rights[ri][1] == 0:
            ri += 1
    return out


def _orient(verts, junction):
    """The piece oriented to end at the junction."""
    if verts[-1] == junction:
        return list(verts)
    if verts[0] == junction:
        return list(reversed(verts))
    raise FlowError("path does not touch the junction terminal")


def _simplify_walk(walk):
    """Remove loops from a walk (cut back to the first occurrence on revisit)."""
    out = []
    pos = {}
    for v in walk:
        if v in pos:
            cut = pos[v] + 1
            for w in out[cut:]:
                del pos[w]
            out = out[:cut]
        else:
            out.append(v)
            pos[v] = len(out) - 1
    return out


# ---------------------------------------------------------------------------
# Composition
# ---------------------------------------------------------------------------

def compose(g1p: TerminalNetwork, g2p: TerminalNetwork, phi,
            q1: float, q2: float) -> tuple[TerminalNetwork, float]:
    """Glue two sparsifiers along phi; the claimed quality is max(q1, q2)."""
    from .network import phi_merge

    if q1 < 1 or q2 < 1:
        raise FlowError("sparsifier qualities must be >= 1")
    return phi_merge(g1p, g2p, phi), max(q1, q2)
