"""Flow-path surgery: splicing at internal terminals and the reverse
reconnection, plus sparsifier composition by terminal gluing.

Both operations act on a `FlowDecomposition`, a tuple of weighted paths
that the caller supplies; no flow is decomposed into paths here.
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

from .flow import FlowError
from .network import TerminalNetwork, _pair, phi_merge

_CAPACITY_REL_TOL = Fraction(1, 10**6)


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

    def check_capacities(self, net: TerminalNetwork) -> None:
        for e, load in self.edge_loads().items():
            cap = net.cap(*e)
            if load > cap + _CAPACITY_REL_TOL * max(1, cap):
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
# Splicing and its inverse
# ---------------------------------------------------------------------------

def splice(dec: FlowDecomposition, terminals) -> SpliceResult:
    """Cut every path at each of its internal terminals, in path order;
    per-edge loads are preserved exactly."""
    ts = set(terminals)
    out: list[FlowPath] = []
    log: list[SplitRecord] = []
    for p in dec.paths:
        verts, end = p.vertices, p.vertices[-1]
        start = 0
        for i in range(1, len(verts) - 1):
            if verts[i] in ts:
                at = verts[i]
                log.append(SplitRecord(parent_pair=_pair(verts[start], end), at=at,
                                       left_pair=_pair(verts[start], at),
                                       right_pair=_pair(at, end),
                                       amount=p.amount))
                out.append(FlowPath(vertices=verts[start:i + 1], amount=p.amount))
                start = i
        out.append(p if start == 0 else
                   FlowPath(vertices=verts[start:], amount=p.amount))
    return SpliceResult(decomposition=FlowDecomposition(tuple(out)),
                        log=tuple(log))


def unsplice_route(net_b: TerminalNetwork, original_demand,
                   spliced_routing: FlowDecomposition,
                   result: SpliceResult) -> FlowDecomposition:
    """Reconnect a routing of the spliced demand into one of the original.

    `spliced_routing` must route the spliced demand in net_b.  Undoes the
    split log in reverse: each record takes its amount of flow between the
    two half pairs and concatenates through the splitting terminal.  Walks
    that revisit a vertex are simplified, which only lowers loads.  Returns
    a decomposition routing the original demand.
    """
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
    if q1 < 1 or q2 < 1:
        raise FlowError("sparsifier qualities must be >= 1")
    return phi_merge(g1p, g2p, phi), max(q1, q2)
