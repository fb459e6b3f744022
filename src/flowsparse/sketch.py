"""Graph-free approximate answers to concurrent-flow queries.

A sketch stores, per terminal pair, the single-commodity max-flow value, and
a membership structure for the feasible demand vectors whose nonzero
coordinates are powers of (1+eps) inside a per-pair range.  A query probes
candidate flow values base**j; each probe rescales the demand, zeroes
negligible coordinates, rounds the rest down to grid powers, and asks the
membership structure.  A probe's verdict is monotone in j, so the query
walks from one exponent above its bound 1 / max(rows . d), up while probes
accept or else down, and mostly ends after one or two probes.  What a query
needs of the sketch is worked out once, on the sketch's first query; a
query takes one pass over the demand's entries, with one log per demanded
pair, and after it a probe costs one integer add per pair.  Only a pair
whose log in the grid base lies within float dust of an integer (a unit
demand, an exact grid power) is rounded afresh, exactly, at every probe.

The user-facing accuracy is (1+eps): internally the grid runs at eps/4,
absorbing the extra (1+2*eps_int) factor the two-step decision costs.

Every build takes the 2^(k-1)-1 terminal min cuts once; that one table
gives each pair's max flow, the grid core, and the first rows of a hull.
A sketch file stores the core's rows, never the grid: the loader rescores
the grid from them with the function the build uses.

Membership structures
---------------------
* grid core: one boolean per grid vector, true where the vector is feasible.
  Used when k <= 4 and the candidate count fits DEFAULT_BUDGET (10^6),
  which for eps < 1/2 happens only at k <= 3.  For k <= 4 the cut condition
  suffices (Papernov; Lomonosov), so a vector is feasible exactly when it
  crosses no terminal bipartition by more than the bipartition's min cut.
  The builder scores the whole grid against each terminal cut, on the axes
  of the pairs the cut separates: the core is exact, and no LP runs.
* hull core: rows with row . d <= 1 for every routable demand d; membership
  is `max(row . d) <= 1`.  Used otherwise (k = 4 at every eps, where the
  grid is astronomically large, and k >= 5).  The rows are the terminal cut
  rows and the LP oracle's dual rows for each single pair and one mixed
  demand.  At k <= 4 the cut rows alone are the feasible polytope, so the
  hull is exact; at k >= 5 a seeded validation schedule adds oracle rows,
  and the band there is sampled, not certified.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .flow import concurrent_flow, max_flow
from .jsonio import read_json
from .network import (DemandVector, TerminalNetwork, _pair, terminal_bipartitions,
                      to_float)

DEFAULT_BUDGET = 1_000_000
_MEMBER_TOL = 1e-9


class SketchError(ValueError):
    pass


class BudgetExceeded(SketchError):
    pass


def _exponent_floor(value: float, base: float, log_base: float | None = None) -> int:
    """Largest j with base**j <= value (value > 0), robust to float dust;
    `log_base`, when given, is math.log(base)."""
    if log_base is None:
        log_base = math.log(base)
    j = int(math.floor(math.log(value) / log_base + 1e-12))
    while base ** j > value * (1 + 1e-12):
        j -= 1
    while base ** (j + 1) <= value * (1 + 1e-12):
        j += 1
    return j


def _exponent_ceil(value: float, base: float) -> int:
    j = _exponent_floor(value, base)
    return j if abs(base ** j - value) <= 1e-12 * value else j + 1


def _grid_exponents(lo: float, hi: float, base: float) -> range:
    """The j with base**j in [lo, hi] (0 < lo), up to the same float dust."""
    return range(_exponent_ceil(lo, base), _exponent_floor(hi, base) + 1)


def _axis_values(exponents: range, base: float) -> np.ndarray:
    """One grid axis: a zero coordinate, then base**j for each exponent."""
    return np.array([0.0] + [base ** j for j in exponents])


@dataclass(frozen=True)
class GridCore:
    """Explicit feasible grid set, scored against the terminal cut `rows`:
    `feasible` has one axis per pair, and index d > 0 on axis i is the value
    base**(jmins[i] + d - 1), index 0 a zero coordinate.  The zero vector is
    never stored.  A sketch file keeps only the rows."""

    jmins: tuple[int, ...]
    feasible: np.ndarray             # bool, shape (counts[i] + 1, ...)
    rows: np.ndarray                 # (2^(k-1)-1, npairs)

    @property
    def counts(self) -> tuple[int, ...]:
        """Number of nonzero grid values per pair."""
        return tuple(n - 1 for n in self.feasible.shape)

    def vectors(self, base: float) -> np.ndarray:
        """The stored vectors, one row each, in C order of their indices."""
        return np.column_stack([
            _axis_values(range(j, j + c), base)[index] for j, c, index in
            zip(self.jmins, self.counts, np.nonzero(self.feasible))])

    @property
    def size(self) -> int:
        return int(np.count_nonzero(self.feasible))


@dataclass(frozen=True)
class HullCore:
    """Dual length certificates; row . d <= 1 for every routable demand d."""

    rows: np.ndarray                 # (m, npairs)

    def upper_bound(self, vec: np.ndarray) -> float:
        denom = float((self.rows @ vec).max()) if len(self.rows) else 0.0
        return math.inf if denom <= 0 else 1.0 / denom

    def contains(self, vec: np.ndarray | list[float]) -> bool:
        """Whether no row puts `vec` above 1."""
        return float((self.rows @ vec).max()) <= 1.0 + _MEMBER_TOL

    @property
    def size(self) -> int:
        return int(len(self.rows))


class _QueryPlan(NamedTuple):
    """What a sketch's queries read of it, the same for every query."""

    base: float
    log_base: float
    margin: float           # how far from an integer a pair's log must lie to shift
    k2: int                 # k * k
    normal: bool            # the least negligible floor is a normal float
    # pair -> (index, max flow, negligible floor, grid axis shift, grid axis
    # count, row column); the shift and count are None on a hull
    pairs: dict
    feasible: np.ndarray | None     # the grid's array; None on a hull


@dataclass(frozen=True)
class DemandSketch:
    epsilon: float                       # user-facing accuracy parameter
    eps_internal: float                  # grid base is 1 + eps_internal
    terminals: tuple[str, ...]
    pairs: tuple[tuple[str, str], ...]
    maxflows: tuple[float, ...]          # single-commodity values, pair order
    core: GridCore | HullCore

    @property
    def k(self) -> int:
        return len(self.terminals)

    @property
    def base(self) -> float:
        return 1.0 + self.eps_internal

    @cached_property
    def _query_plan(self) -> _QueryPlan:
        """What every query reads of the sketch, worked out on its first."""
        base, k2 = self.base, self.k * self.k
        log_base = math.log(base)
        negligible = 2 * self.eps_internal / k2
        core, maxflows = self.core, self.maxflows
        if isinstance(core, GridCore):
            # exponent e of pair i lies at index e + 1 - jmin on its grid axis
            axes, feasible = zip([1 - j for j in core.jmins], core.counts), core.feasible
        else:
            axes, feasible = itertools.repeat((None, None)), None
        pairs = {p: (i, maxflows[i], negligible * maxflows[i]) + axis + (column,)
                 for i, (p, axis, column) in enumerate(zip(self.pairs, axes,
                                                           core.rows.T.tolist()))}
        return _QueryPlan(base, log_base, 1e-10 / log_base, k2,
                          negligible * min(maxflows) >= sys.float_info.min,
                          pairs, feasible)

    # -- query -------------------------------------------------------------

    def query(self, demand: DemandVector | dict) -> float:
        return self.query_with_stats(demand)[0]

    def query_with_stats(self, demand: DemandVector | dict) -> tuple[float, int]:
        """(1+eps)-approximation of the concurrent-flow value, probe count.

        A probe at grid value lam rounds each demanded coordinate lam * d_i
        down to a grid exponent, or zeroes it when it is at most
        2 eps_int / k^2 of its pair's max flow, and asks the core whether
        the rounded vector is feasible; the zero vector always is.  What a
        probe needs of the sketch is in its query plan; what it needs of
        the demand is worked out in one pass over the demand's entries.
        """
        if not isinstance(demand, DemandVector):
            demand = DemandVector.of(demand)
        entries = demand.entries
        if not entries:
            raise SketchError("query demand must be nonzero")
        base, log_base, margin, k2, normal, pairs, feasible = self._query_plan
        grid = feasible is not None
        # A probe at lam = base**j rounds lam * d_i down to the exponent
        # floor(log_base(lam * d_i) + tol), where tol = 1e-12 / ln(base) is
        # _exponent_floor's dust tolerance.  That is j + floor(f_i + tol),
        # f_i = log_base(d_i), up to rounding: under tol / 2 in f_i, and about
        # 3e-16 / ln(base) in the power and the product while lam and every
        # undropped lam * d_i are normal floats (probes run from jlo - 3 up).
        # So a pair whose f_i lies more than margin = 100 tol from an integer
        # takes j + floor(f_i) at every probe, after one log per query; the
        # margin is some 3e5 times the rounding of the power and the product.
        # The rest, unit demands and exact grid powers among them, call
        # _exponent_floor at every probe.
        beta = math.inf
        terms = []
        scores = None                            # rows . d, one per row
        for p, dv in entries:
            at = pairs.get(p)
            if at is None:
                raise SketchError(f"demand pair {p} is not a terminal pair")
            i, maxflow, floor, shift, count, column = at
            ratio = maxflow / dv
            if ratio < beta:
                beta = ratio
            f = math.log(dv) / log_base
            c = math.floor(f)
            terms.append((dv, floor, c if margin < f - c < 1 - margin else None,
                          i, shift, count))
            scores = ([r * dv for r in column] if scores is None
                      else [s + r * dv for s, r in zip(scores, column)])
        try:
            jlo = _exponent_ceil(beta / k2, base)
            jhi = _exponent_floor(beta, base)
        except OverflowError:
            # beta is inf, or a grid power next to it is past the float range
            raise SketchError(f"query demand is too small: max flow / demand "
                              f"= {beta!r} overflows the grid") from None
        if jhi < jlo:
            jhi = jlo
        # where lam or an undropped lam * d_i may be subnormal, no pair shifts
        terms = terms if normal and base ** (jlo - 3) >= sys.float_info.min else [
            (dv, floor, None, i, shift, count) for dv, floor, _, i, shift, count in terms]
        core, n = self.core, len(pairs)
        probes = 0

        def decide(j: int) -> bool:
            nonlocal probes
            probes += 1
            lam = base ** j
            # per pair: its axis index on a grid, its rounded value on a hull
            key = [0] * n
            rounded = False
            for dv, floor, c, i, shift, count in terms:
                val = lam * dv
                if val <= floor:
                    continue
                e = j + c if c is not None else _exponent_floor(val, base, log_base)
                if grid:
                    e += shift
                    if e < 0 or e > count:
                        return False
                    key[i] = e
                else:
                    key[i] = base ** e
                rounded = True
            return not rounded or (bool(feasible[tuple(key)]) if grid
                                   else core.contains(key))

        # A probe's verdict is monotone in j: the rounded vector only grows
        # with j, and the core is down-closed.  So a walk from any start in
        # [jlo, jhi] finds the largest j there that accepts, else the first
        # below jlo, as a binary search over [jlo, jhi] would.  The core
        # accepts the rounding of lam * d for every lam up to
        # 1 / max(rows . d), so the walk starts one exponent above that
        # bound's and mostly ends after one or two probes.  Where the bound
        # is no positive finite float (a pair whose rows are all 0, rows . d
        # past the float range), it starts at jhi.
        top = max(scores)
        j = jhi
        if 0 < top < math.inf:
            j = min(max(math.floor(-math.log(top) / log_base) + 1, jlo), jhi)
        if decide(j):
            while j < jhi and decide(j + 1):
                j += 1
            return float(base ** j), probes
        # theory guarantees jlo accepts; three more probes tolerate float dust
        for j in range(j - 1, jlo - 4, -1):
            if decide(j):
                return float(base ** j), probes
        raise SketchError("no probe down to three grid steps below the "
                          "query's grid range accepted; the sketch is "
                          "inconsistent with its source")

    # -- bookkeeping ---------------------------------------------------

    @property
    def stored_entries(self) -> int:
        return self.core.size

    def storage_bound_log(self) -> float:
        """log of the discretized-dictionary size bound for these parameters."""
        eps = self.eps_internal
        k = self.k
        per_coord = 1 + (1 / eps) * math.log(k * k / eps) / math.log(1 + eps)
        npairs = k * (k - 1) / 2
        return npairs * math.log(per_coord)

    def to_json_dict(self) -> dict:
        return {
            "version": 2,
            "epsilon": self.epsilon,
            "eps_internal": self.eps_internal,
            "terminals": list(self.terminals),
            "pairs": [[s, t] for s, t in self.pairs],
            "maxflows": list(self.maxflows),
            "rows": self.core.rows.tolist(),
        }

    @staticmethod
    def from_json_dict(d: dict) -> "DemandSketch":
        """The sketch a file holds.  JSON floats round-trip bit for bit, so a
        grid core rescored from the stored cut rows is the one built."""
        try:
            if d.get("version") != 2:
                raise SketchError("unsupported sketch version; rebuild the sketch")
            rows = np.array(d["rows"], dtype=float)
            epsilon, eps_internal = float(d["epsilon"]), float(d["eps_internal"])
            terminals, pairs = tuple(d["terminals"]), tuple((s, t) for s, t in d["pairs"])
            if not all(isinstance(name, str) for name in itertools.chain(terminals, *pairs)):
                raise SketchError("malformed sketch JSON: terminals and pairs must "
                                  "hold strings")
            maxflows = tuple(float(x) for x in d["maxflows"])
        except SketchError:
            raise
        except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
            raise SketchError(f"malformed sketch JSON: {exc!r}") from exc
        n = len(pairs)
        # no build writes a file these reject; they are the input-error contract
        if pairs != tuple(_pair(s, t) for s, t in itertools.combinations(terminals, 2)):
            problem = "pairs are not the terminal pairs"
        elif not 0 < eps_internal < 0.125:
            problem = "eps_internal must lie in (0, 1/8)"
        elif 1.0 + eps_internal == 1.0:
            problem = "1 + eps_internal rounds to 1, so the grid has no base"
        elif len(maxflows) != n or not all(0 < m < math.inf for m in maxflows):
            problem = "maxflows must hold one positive finite value per pair"
        elif rows.ndim != 2 or len(rows) == 0:
            problem = "sketch has no rows"
        elif rows.shape[1] != n:
            problem = "rows must hold one entry per pair"
        elif not (np.isfinite(rows).all() and rows.min() >= 0
                  and rows.max(axis=1).min() > 0):
            # every built row is a cut or dual row: finite, >= 0 and nonzero
            problem = "rows must be finite and non-negative, each with a positive entry"
        else:
            core = _grid_core(len(terminals), eps_internal, maxflows, rows)
            return DemandSketch(epsilon, eps_internal, terminals, pairs, maxflows,
                                core or HullCore(rows))
        raise SketchError(f"malformed sketch JSON: {problem}")

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh)

    @staticmethod
    def load(path: str) -> "DemandSketch":
        return DemandSketch.from_json_dict(read_json(path))


# ---------------------------------------------------------------------------
# Building
# ---------------------------------------------------------------------------

def build_sketch(net: TerminalNetwork, epsilon: float) -> DemandSketch:
    """Preprocess the network into a DemandSketch.

    `epsilon` is the user-facing accuracy in (0, 1/2); the grid runs at
    epsilon/4, which must stay below the standing 1/8 assumption.  The core
    is the exact feasible grid, one boolean per candidate, when k <= 4 and
    the grid fits DEFAULT_BUDGET (in practice k <= 3), and a hull otherwise.
    """
    eps, pairs, maxflows, cut_rows = _cut_table(net, epsilon)
    core = (_grid_core(net.k, eps, maxflows, cut_rows)
            or _build_hull(net, pairs, maxflows, cut_rows))
    return DemandSketch(float(epsilon), eps, tuple(net.terminals), pairs, maxflows, core)


def grid_sketch(net: TerminalNetwork, epsilon: float) -> DemandSketch | None:
    """`build_sketch(net, epsilon)` when its core is a grid, else None, which
    is known before any LP would run."""
    eps, pairs, maxflows, cut_rows = _cut_table(net, epsilon)
    core = _grid_core(net.k, eps, maxflows, cut_rows)
    if core is None:
        return None
    return DemandSketch(float(epsilon), eps, tuple(net.terminals), pairs, maxflows, core)


def _cut_table(net, epsilon):
    """A build's first step, which runs no LP: check the arguments and take
    the terminal cuts.  Returns (eps_internal, pairs, maxflows, cut_rows)."""
    if not (0 < epsilon < 0.5):
        raise SketchError("epsilon must lie in (0, 1/2) so that the internal "
                          "grid parameter epsilon/4 stays below 1/8")
    eps = epsilon / 4.0
    if 1.0 + eps == 1.0:
        raise SketchError("epsilon is too small: 1 + epsilon/4 rounds to 1, "
                          "so the grid has no base")
    k = net.k
    if k < 2:
        raise SketchError("need at least two terminals")
    pairs = tuple(net.terminal_pairs())
    return (eps, pairs) + _terminal_cuts(net, pairs)


def _grid_core(k, eps, maxflows, rows) -> GridCore | None:
    """The grid core when k <= 4 and the grid has at most DEFAULT_BUDGET
    candidates, else None: every nonzero grid vector that no row puts above
    1.  On the terminal cut rows of a k <= 4 net these are exactly the
    feasible grid vectors, up to _MEMBER_TOL."""
    ranges = [_grid_exponents(eps / (k * k) * m, m, 1.0 + eps) for m in maxflows]
    if k > 4 or math.prod(len(r) + 1 for r in ranges) > DEFAULT_BUDGET:
        return None
    axes = np.ix_(*[_axis_values(r, 1.0 + eps) for r in ranges])
    feasible = np.ones([len(r) + 1 for r in ranges], dtype=bool)
    for row in rows:
        # summed in pair order, so no BLAS kernel picks the scores' bits;
        # a zero term would add 0.0, which changes no bit, so a row is
        # scored on its nonzero axes alone and broadcast over the rest
        feasible &= sum(c * a for c, a in zip(row, axes) if c) <= 1.0 + _MEMBER_TOL
    feasible.flat[0] = False
    return GridCore(tuple(r.start for r in ranges), feasible, rows)


def _terminal_cuts(net, pairs):
    """(maxflows, cut_rows) from the 2^(k-1)-1 terminal min cuts, each taken
    once.  A pair's max flow is the least cut that separates it.  A cut row
    holds 1/mincut(A, B) at each pair that (A, B) separates and 0 elsewhere,
    so row . d <= 1 says d(A, B) <= mincut(A, B)."""
    cuts, separates = [], []
    for A, B in terminal_bipartitions(net.terminals):
        cuts.append(to_float(max_flow(net, A, B), "min cut",
                             (",".join(A), ",".join(B))))
        separates.append([(s in A) != (t in A) for s, t in pairs])
    cuts, separates = np.array(cuts), np.array(separates)
    maxflows = tuple(float(cuts[column].min()) for column in separates.T)
    if any(m <= 0 for m in maxflows):
        raise SketchError("disconnected terminal pair")
    return maxflows, separates / cuts[:, None]


def _dual_certificate(net, pairs, demand: DemandVector) -> np.ndarray:
    res = concurrent_flow(net, demand)
    dist = res.dual.dist_map()
    row = np.array([dist.get(p, 0.0) for p in pairs])
    if res.value <= 0:
        raise SketchError("degenerate oracle value while building certificates")
    return row / res.dual.value


_VALIDATION_ROUNDS = 30      # hull validation at k >= 5: rounds of seeded samples
_SAMPLES_PER_ROUND = 80


def _build_hull(net, pairs, maxflows, cut_rows) -> HullCore:
    """The terminal cut rows, then the LP oracle's dual rows for each single
    pair and one mixed demand: 2^(k-1)-1 + k(k-1)/2 + 1 rows.

    For k <= 4 the cut condition suffices (Papernov; Lomonosov), so the cut
    rows alone are the feasible polytope and the hull is exact; no
    validation runs.  For k >= 5 flow and cut can differ, so a seeded
    validation schedule compares the hull's bound with the oracle's value
    and adds the oracle's row for each sample that fails.  The band there is
    sampled, not certified."""
    rows = list(cut_rows)
    for p in pairs:
        rows.append(_dual_certificate(net, pairs, DemandVector.of({p: 1.0})))
    mix = DemandVector.of({p: 1.0 / maxflows[i] for i, p in enumerate(pairs)})
    rows.append(_dual_certificate(net, pairs, mix))
    hull = HullCore(rows=np.array(rows))
    if net.k <= 4:
        return hull
    rng = random.Random(0xC0FFEE)
    scales = (1.0, 0.25, 0.0625)
    for _ in range(_VALIDATION_ROUNDS):
        clean = True
        for s in range(_SAMPLES_PER_ROUND):
            scale = scales[s % len(scales)]
            vec = np.array([
                (rng.uniform(0.05, 1.0) * maxflows[i] * scale
                 if rng.random() < 0.8 else 0.0)
                for i in range(len(pairs))])
            if not vec.any():
                continue
            demand = DemandVector.of({p: v for p, v in zip(pairs, vec) if v > 0})
            if hull.upper_bound(vec) > concurrent_flow(net, demand).value * (1 + 1e-7):
                rows.append(_dual_certificate(net, pairs, demand))
                hull = HullCore(rows=np.array(rows))
                clean = False
        if clean:
            break
    return hull


def grid_demands(sk: DemandSketch) -> list[DemandVector]:
    """Decode the stored grid vectors back into demand vectors (grid cores only)."""
    if not isinstance(sk.core, GridCore):
        raise SketchError("sketch stores a hull core; no explicit grid to decode")
    out = []
    for row in sk.core.vectors(sk.base).tolist():
        entries = {p: v for p, v in zip(sk.pairs, row) if v > 0}
        if entries:
            out.append(DemandVector.of(entries))
    return out
