"""Merge-based sparsifiers for quasi-bipartite networks.

Two constructions, both of which only ever merge vertices (so the result
never loses flow):

* profile buckets: per demand, take an optimal dual of the concurrent-flow
  LP, round the edge lengths down into a small value set derived from the
  demand, and bucket non-terminals that agree with every terminal neighbor;
  the partition imposed on the graph is the common refinement over the
  demand set.
* capacity-ratio types: round capacities down to powers of 1+eps, classify
  each non-terminal by (set of positively-connected terminals, vector of
  consecutive capacity ratios thresholded at k^2/eps + 1), and merge every
  class.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction

from .flow import concurrent_flow
from .network import (
    DemandVector,
    TerminalNetwork,
    VertexPartition,
    merge_vertices,
    subdivide_terminal_edges,
)
from .results import SparsifierResult
from .sketch import BudgetExceeded, _exponent_floor, _grid_exponents, grid_demands, grid_sketch

ZERO = "zero"
ABSENT = "absent"
CAPPED = "capped"
_DUAL_BUDGET = 500   # most demands profile_bucket_sparsifier solves duals for


class MergeError(ValueError):
    pass


def refine_partitions(parts: list[VertexPartition]) -> VertexPartition:
    """Coarsest common refinement: same block iff same block in every input."""
    if not parts:
        raise MergeError("need at least one partition")
    universe = set().union(*(set().union(*p.blocks) for p in parts[:1]))
    for p in parts:
        covered = set().union(*p.blocks)
        if covered != universe:
            raise MergeError("partitions cover different vertex sets")
    signature: dict[str, tuple[int, ...]] = {v: () for v in universe}
    for p in parts:
        owner = {}
        for bi, block in enumerate(p.blocks):
            for v in block:
                owner[v] = bi
        for v in universe:
            signature[v] = signature[v] + (owner[v],)
    groups: dict[tuple[int, ...], set[str]] = {}
    for v, sig in signature.items():
        groups.setdefault(sig, set()).add(v)
    return VertexPartition.of(sorted(groups.values(), key=min))


# ---------------------------------------------------------------------------
# Profile buckets
# ---------------------------------------------------------------------------

def _gamma_exponents(eps: float, demand_values: list[float]) -> list[int]:
    """Sorted exponents j with (1+eps)^j inside some [eps*d, d], d > 0."""
    exps: set[int] = set()
    for d in demand_values:
        if d > 0:
            exps.update(_grid_exponents(eps * d, d, 1.0 + eps))
    return sorted(exps)


def _round_down_to_gamma(value: float, eps: float, exps: list[int]):
    """Largest Gamma^eps element <= value; ZERO when below them all."""
    if value <= 0:
        return ZERO
    i = bisect.bisect_right(exps, _exponent_floor(value, 1.0 + eps))
    return ZERO if i == 0 else exps[i - 1]


@dataclass(frozen=True)
class LengthProfile:
    """Per-terminal rounded dual length: ABSENT when no edge, ZERO when the
    length rounds below the grid, else the grid exponent."""

    entries: tuple

    @staticmethod
    def of(work, v, lengths, lam, eps, exps) -> "LengthProfile":
        profile = []
        for t in work.terminals:
            if t not in work.adjacency[v]:   # `make` keeps positive capacities only
                profile.append(ABSENT)
            else:
                lv = lengths.get(tuple(sorted((v, t))), 0.0) / lam
                profile.append(_round_down_to_gamma(lv, eps, exps))
        return LengthProfile(entries=tuple(profile))


def profile_bucket_sparsifier(
        net: TerminalNetwork, epsilon: float,
        demand_set: list[DemandVector] | None = None) -> SparsifierResult:
    """Bucket-and-merge sparsifier driven by per-demand dual roundings.

    For every demand, the concurrent-flow dual is normalised to value 1,
    its terminal-incident edge lengths are rounded down into the demand's
    length grid, and non-terminals agreeing on every terminal go to one
    bucket.  Buckets are refined across the demand set and merged.
    """
    if not (0 < epsilon < 1 / 3):
        raise MergeError("epsilon must be in (0, 1/3)")
    if not net.is_quasi_bipartite():
        raise MergeError("profile buckets need a quasi-bipartite network")
    work = subdivide_terminal_edges(net)

    if demand_set is None:
        if epsilon >= 1 / 8:
            raise MergeError("default demand set (the discretized feasible "
                             "dictionary) needs epsilon < 1/8; pass demand_set")
        sk = grid_sketch(work, 4 * epsilon)
        if sk is None or sk.core.size > _DUAL_BUDGET:
            raise BudgetExceeded(f"the default demand set at k = {work.k} is too "
                                 f"large to solve; pass a demand set (--demands)")
        demand_set = grid_demands(sk)
    if len(demand_set) > _DUAL_BUDGET:
        raise BudgetExceeded(f"demand set of size {len(demand_set)} exceeds "
                             f"the dual-solve budget {_DUAL_BUDGET}")
    if not demand_set:
        raise MergeError("empty demand set")

    ts = work.terminal_set
    non_terminals = [v for v in work.vertices if v not in ts]
    parts = []
    for d in demand_set:
        res = concurrent_flow(work, d)
        lam = res.value
        lengths = res.dual.length_map()
        # normalise to lambda(d') = 1: lengths scale by 1/lam, demand by lam
        exps = _gamma_exponents(epsilon, [lam * v for _, v in d.items()])
        buckets: dict[LengthProfile, set[str]] = {}
        for v in non_terminals:
            profile = LengthProfile.of(work, v, lengths, lam, epsilon, exps)
            buckets.setdefault(profile, set()).add(v)
        blocks = [{t} for t in work.terminals] + sorted(buckets.values(), key=min)
        parts.append(VertexPartition.of(blocks))
    merged = merge_vertices(work, refine_partitions(parts))
    claimed = (1 + 3 * epsilon) * (1 + 5 * epsilon)
    return SparsifierResult.of(
        merged, "profile-bucket", claimed,
        params={"epsilon": epsilon, "demands": len(demand_set)},
        notes=("lengths bucketed after normalising the dual to value 1",))


# ---------------------------------------------------------------------------
# Capacity-ratio types
# ---------------------------------------------------------------------------

def _pow_floor_exact(value: Fraction, q: Fraction) -> int:
    """Largest j with q**j <= value, exact."""
    if value <= 0:
        raise MergeError("positive capacity required")
    j = int(math.floor(math.log(float(value)) / math.log(float(q)) + 1e-9))
    while q ** j > value:
        j -= 1
    while q ** (j + 1) <= value:
        j += 1
    return j


@dataclass(frozen=True)
class RatioType:
    """Sorted positively-connected terminals and thresholded ratio exponents."""

    super_type: tuple[str, ...]
    ratios: tuple


def ratio_type_sparsifier(net: TerminalNetwork, epsilon) -> SparsifierResult:
    """Round capacities to powers of 1+eps, then merge non-terminals of
    equal (super-type, thresholded ratio vector).  Exact rational arithmetic
    throughout, so equal types are equal capacity ratios by construction.

    Capacities are rounded down and then scaled by 1+eps (equivalently,
    rounded up), so the output only ever gains capacity: together with
    merging this keeps the sparsifier one-sided (never loses flow).
    """
    eps = Fraction(epsilon) if not isinstance(epsilon, Fraction) else epsilon
    if not (0 < eps < Fraction(1, 3)):
        raise MergeError("epsilon must be in (0, 1/3)")
    if not net.is_quasi_bipartite():
        raise MergeError("ratio types need a quasi-bipartite network")
    if not net.terminals_independent():
        raise MergeError("terminals must be independent "
                         "(subdivide terminal-terminal edges first)")
    q = 1 + eps
    k = net.k
    m_cap = Fraction(k * k) / eps + 1
    cap_exp = _pow_floor_exact(m_cap, q)   # ratios with exponent > cap_exp clip

    rounded_edges = []
    for u, v, c in net.edges:
        j = _pow_floor_exact(c, q)
        rounded_edges.append((u, v, q ** (j + 1)))
    rounded = TerminalNetwork.make(net.vertices, net.terminals, rounded_edges,
                                   allow_disconnected=True)

    ts = rounded.terminal_set
    groups: dict[RatioType, set[str]] = {}
    for v in rounded.vertices:
        if v in ts:
            continue
        nbrs = [(rounded.cap(v, t), t) for t in rounded.adjacency[v]]
        nbrs.sort(key=lambda ct: (-ct[0], ct[1]))
        sorted_terms = tuple(t for _, t in nbrs)
        ratios = []
        for (c_hi, _), (c_lo, _) in zip(nbrs, nbrs[1:]):
            e = _pow_floor_exact(c_hi / c_lo, q)
            ratios.append(CAPPED if e > cap_exp else e)
        key = RatioType(super_type=sorted_terms, ratios=tuple(ratios))
        groups.setdefault(key, set()).add(v)

    blocks = [{t} for t in rounded.terminals] + sorted(groups.values(), key=min)
    merged = merge_vertices(rounded, VertexPartition.of(blocks))
    claimed = float(1 + 5 * eps)
    return SparsifierResult.of(
        merged, "ratio-type", claimed,
        params={"epsilon": float(eps), "types": len(groups)},
        notes=("capacities rounded down to powers of 1+eps before typing",))

