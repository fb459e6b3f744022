"""Merge-based sparsifiers for quasi-bipartite networks.

Two constructions, both of which only ever merge vertices (so the result
never loses flow):

* profile buckets: per demand, take an optimal dual of the concurrent-flow
  LP and round the edge lengths down into a small value set derived from
  the demand; non-terminals merge when their rounded length profiles agree
  under every demand of the set.
* capacity-ratio types: round capacities down to powers of 1+eps, classify
  each non-terminal by (set of positively-connected terminals, vector of
  consecutive capacity ratios thresholded at k^2/eps + 1), and merge every
  class.

Quasi-bipartite means the non-terminals are independent; an edge between
two terminals is taken as it is, since merging never touches terminals.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction

from .flow import concurrent_flow
from .network import DemandVector, TerminalNetwork, _pair, merge_vertices
from .results import SparsifierResult
from .sketch import (DEFAULT_BUDGET, BudgetExceeded, _exponent_floor, _grid_exponents,
                     grid_demands, grid_sketch)

ZERO = "zero"
ABSENT = "absent"
_DUAL_BUDGET = 500   # most demands profile_bucket_sparsifier solves duals for


class MergeError(ValueError):
    pass


def _merge_by_key(net: TerminalNetwork, key_of) -> TerminalNetwork:
    """Merge the non-terminals with equal `key_of(v)`, each terminal kept
    alone."""
    groups: dict[object, set[str]] = {}
    for v in net.vertices:
        if v not in net.terminal_set:
            groups.setdefault(key_of(v), set()).add(v)
    blocks = [{t} for t in net.terminals] + list(groups.values())
    return merge_vertices(net, blocks)


# ---------------------------------------------------------------------------
# Profile buckets
# ---------------------------------------------------------------------------

def _gamma_exponents(eps: float, demand_values: list[float]) -> list[int]:
    """Sorted exponents j with (1+eps)^j inside some [eps*d, d], d > 0;
    `BudgetExceeded` when the ranges hold more than DEFAULT_BUDGET in all."""
    ranges = [_grid_exponents(eps * d, d, 1.0 + eps) for d in demand_values if d > 0]
    if sum(map(len, ranges)) > DEFAULT_BUDGET:
        raise BudgetExceeded(f"epsilon {eps:g} gives a length grid past "
                             f"{DEFAULT_BUDGET} values")
    return sorted(set().union(*ranges))


def _round_down_to_gamma(value: float, eps: float, exps: list[int]):
    """Largest Gamma^eps element <= value; ZERO when below them all."""
    if value <= 0:
        return ZERO
    i = bisect.bisect_right(exps, _exponent_floor(value, 1.0 + eps))
    return ZERO if i == 0 else exps[i - 1]


def _length_profile(net, v, lengths, lam, eps, exps) -> tuple:
    """v's rounded dual length to each terminal: ABSENT when no edge, ZERO
    when the length rounds below the grid, else the grid exponent."""
    profile = []
    for t in net.terminals:
        if t not in net.adjacency[v]:   # `make` keeps positive capacities only
            profile.append(ABSENT)
        else:
            lv = lengths.get(_pair(v, t), 0.0) / lam
            profile.append(_round_down_to_gamma(lv, eps, exps))
    return tuple(profile)


def profile_bucket_sparsifier(
        net: TerminalNetwork, epsilon: float,
        demand_set: list[DemandVector] | None = None) -> SparsifierResult:
    """Bucket-and-merge sparsifier driven by per-demand dual roundings.

    For every demand, the concurrent-flow dual is normalised to value 1,
    its terminal-incident edge lengths are rounded down into the demand's
    length grid.  Non-terminals whose rounded lengths agree on every
    terminal under every demand are merged.
    """
    if not (0 < epsilon < 1 / 3):
        raise MergeError("epsilon must be in (0, 1/3)")
    if 1.0 + epsilon == 1.0:
        raise MergeError("epsilon is too small: 1 + epsilon rounds to 1")
    if not net.is_quasi_bipartite():
        raise MergeError("profile buckets need a quasi-bipartite network")

    if demand_set is None:
        if epsilon >= 1 / 8:
            raise MergeError("default demand set (the discretized feasible "
                             "dictionary) needs epsilon < 1/8; pass demand_set")
        sk = grid_sketch(net, 4 * epsilon)
        if sk is None or sk.core.size > _DUAL_BUDGET:
            raise BudgetExceeded(f"the default demand set at k = {net.k} is too "
                                 f"large to solve; pass a demand set (--demands)")
        demand_set = grid_demands(sk)
    if len(demand_set) > _DUAL_BUDGET:
        raise BudgetExceeded(f"demand set of size {len(demand_set)} exceeds "
                             f"the dual-solve budget {_DUAL_BUDGET}")
    if not demand_set:
        raise MergeError("empty demand set")

    profiles: dict[str, list[tuple]] = {
        v: [] for v in net.vertices if v not in net.terminal_set}
    for d in demand_set:
        res = concurrent_flow(net, d)
        lam = res.value
        lengths = res.dual.length_map()
        # normalise to lambda(d') = 1: lengths scale by 1/lam, demand by lam
        exps = _gamma_exponents(epsilon, [v for _, v in d.scaled(lam).items()])
        for v, rows in profiles.items():
            rows.append(_length_profile(net, v, lengths, lam, epsilon, exps))
    merged = _merge_by_key(net, lambda v: tuple(profiles[v]))
    claimed = (1 + 3 * epsilon) * (1 + 5 * epsilon)
    return SparsifierResult.of(
        merged, "profile-bucket", claimed,
        params={"epsilon": epsilon, "demands": len(demand_set)},
        notes=("lengths bucketed after normalising the dual to value 1",))


# ---------------------------------------------------------------------------
# Capacity-ratio types
# ---------------------------------------------------------------------------

def _pow_floor_exact(value: Fraction, q: Fraction) -> int:
    """Largest j with q**j <= value, exact.  `BudgetExceeded` when
    q**(j + 1) would hold more than DEFAULT_BUDGET bits, before any power."""
    if value <= 0:
        raise MergeError("positive capacity required")
    j = int(math.floor(math.log(float(value)) / math.log(float(q)) + 1e-9))
    if (abs(j) + 1) * (q.numerator.bit_length() + q.denominator.bit_length()) > DEFAULT_BUDGET:
        raise BudgetExceeded(f"epsilon {float(q - 1):g} needs (1 + epsilon)**{j}, "
                             f"past {DEFAULT_BUDGET} bits")
    while q ** j > value:
        j -= 1
    while q ** (j + 1) <= value:
        j += 1
    return j


def ratio_type_sparsifier(net: TerminalNetwork, epsilon) -> SparsifierResult:
    """Round capacities to powers of 1+eps, then merge non-terminals of
    equal (super-type, thresholded ratio vector).  Exact rational arithmetic
    throughout, so equal types are equal capacity ratios by construction.

    Capacities are rounded down and then scaled by 1+eps (equivalently,
    rounded up), so the output only ever gains capacity: together with
    merging this keeps the sparsifier one-sided (never loses flow).
    """
    if not (math.isfinite(epsilon) and 0 < Fraction(epsilon) < Fraction(1, 3)):
        raise MergeError("epsilon must be in (0, 1/3)")
    eps = Fraction(epsilon)
    if float(1 + eps) == 1.0:
        raise MergeError("epsilon is too small: 1 + epsilon rounds to 1")
    if not net.is_quasi_bipartite():
        raise MergeError("ratio types need a quasi-bipartite network")
    q = 1 + eps
    k = net.k
    m_cap = Fraction(k * k) / eps + 1
    cap_exp = _pow_floor_exact(m_cap, q)   # ratios with exponent > cap_exp clip

    rounded_edges = []
    ends: dict[str, list] = {v: [] for v in net.vertices}   # (-j, neighbour)
    for u, v, c in net.edges:
        j = _pow_floor_exact(c, q)
        rounded_edges.append((u, v, q ** (j + 1)))
        ends[u].append((-j, v))
        ends[v].append((-j, u))
    rounded = TerminalNetwork.make(net.vertices, net.terminals, rounded_edges,
                                   allow_disconnected=True)

    def ratio_type(v):
        """v's terminals by falling capacity, then the thresholded exponents
        of the consecutive capacity ratios: q**(i + 1) / q**(j + 1) is
        exactly q**(i - j), the difference of the sorted keys -j and -i."""
        nbrs = sorted(ends[v])
        ratios = tuple(min(b - a, cap_exp + 1) for (a, _), (b, _) in zip(nbrs, nbrs[1:]))
        return tuple(t for _, t in nbrs), ratios

    merged = _merge_by_key(rounded, ratio_type)
    claimed = float(1 + 5 * eps)
    return SparsifierResult.of(
        merged, "ratio-type", claimed,
        params={"epsilon": float(eps), "types": len(merged.vertices) - k},
        notes=("capacities rounded down to powers of 1+eps before typing",))

