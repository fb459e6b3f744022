"""Quality certification of candidate sparsifiers against the flow oracle.

Certification is over a finite witness demand set, never the universal
quantifier: reports carry an explicit disclaimer field.  Exact cut
certification compares the min cuts of every terminal bipartition exactly,
as integers at each network's cut scale.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .flow import concurrent_flow, max_flow, mincut_partition
from .jsonio import finite_or_none
from .network import DemandVector, TerminalNetwork, _first_read, terminal_bipartitions, to_float
from .sampling import unit_flows
from .sketch import DEFAULT_BUDGET, BudgetExceeded, _grid_exponents

DEFAULT_TOL = 1e-6        # certify's relative slack on both quality bounds
_MAX_CUT_TERMINALS = 16   # certify_cuts enumerates 2^(k-1) - 1 bipartitions


class VerifyError(ValueError):
    pass


@dataclass(frozen=True)
class DemandRecord:
    demand: tuple
    lam_base: float
    lam_candidate: float


@dataclass(frozen=True)
class QualityReport:
    lower: float          # max over demands of lam_G / lam_G'
    upper: float          # max over demands of lam_G' / lam_G
    claimed_quality: float
    verdict: bool
    records: tuple[DemandRecord, ...]
    demand_spec: str
    witness_set_only: bool = True

    def to_json_dict(self) -> dict:
        return {
            "version": 1,
            "lower": finite_or_none(self.lower),
            "upper": finite_or_none(self.upper),
            "claimed_quality": finite_or_none(self.claimed_quality),
            "tol": DEFAULT_TOL,
            "verdict": "pass" if self.verdict else "fail",
            "demand_spec": self.demand_spec,
            "witness_set_only": self.witness_set_only,
            "records": [
                {"demand": [[list(p), v] for p, v in r.demand],
                 "lam_base": finite_or_none(r.lam_base),
                 "lam_candidate": finite_or_none(r.lam_candidate)}
                for r in self.records],
        }


@dataclass(frozen=True)
class CutRecord:
    side_a: tuple[str, ...]
    cut_base: Fraction
    cut_candidate: Fraction


class CutReport:
    """beta, all_exact and one `CutRecord` per bipartition, which the call
    `records` gives on their first read."""

    def __init__(self, beta: float, all_exact: bool, records):
        self.beta, self.all_exact, self._records = beta, all_exact, records

    @_first_read
    def records(self) -> tuple[CutRecord, ...]:
        return self._records()

    def to_json_dict(self) -> dict:
        return {
            "version": 1,
            "beta": finite_or_none(self.beta),
            "all_exact": self.all_exact,
            "records": [{"A": list(r.side_a), "base": str(r.cut_base),
                         "candidate": str(r.cut_candidate)}
                        for r in self.records],
        }


# ---------------------------------------------------------------------------
# Demand grids
# ---------------------------------------------------------------------------

def basis_demands(net: TerminalNetwork) -> list[DemandVector]:
    """One single-commodity vector per pair at its max-flow value."""
    out = []
    for s, t in net.terminal_pairs():
        val = to_float(max_flow(net, s, t), "max flow", (s, t))
        if val > 0:
            out.append(DemandVector.of({(s, t): val}))
    return out


def random_demands(net: TerminalNetwork, n: int, seed: int) -> list[DemandVector]:
    """Uniform coordinates in [0.05, 1] on a random subset of the pairs,
    not rescaled: `certify`'s ratios do not depend on a demand's scale, so
    drawing solves no LP."""
    rng = random.Random(seed)
    pairs = net.terminal_pairs()
    out = []
    for _ in range(n):
        entries = {p: rng.uniform(0.05, 1.0) for p in pairs
                   if rng.random() < 0.85}
        if not entries:
            entries = {pairs[rng.randrange(len(pairs))]: 1.0}
        out.append(DemandVector.of(entries))
    return out


def disc_demands(net: TerminalNetwork, eps: float, eta: float) -> list[DemandVector]:
    """Per pair in sorted order, every power of 1+eps in [eta * F, F],
    largest first, times the pair's basis vector (F the pair's 2-hop max flow
    in quasi-bipartite nets, otherwise its max flow).  `BudgetExceeded` when
    that is more than DEFAULT_BUDGET vectors, before any is built."""
    if not (0 < eps < math.inf) or not (0 < eta < 1):
        raise VerifyError("need finite eps > 0 and eta in (0,1)")
    if 1 + eps == 1:
        raise VerifyError("epsilon is too small: 1 + eps rounds to 1, so the "
                          "grid has no base")
    if net.is_quasi_bipartite() and net.terminals_independent():
        scale, _, totals = unit_flows(net)
        flows = {p: to_float(f, "2-hop max flow", p, scale)
                 for p, f in totals.items()}
    else:
        flows = {p: to_float(max_flow(net, *p), "max flow", p)
                 for p in net.terminal_pairs()}
    grids = [(p, _grid_exponents(eta * F, F, 1 + eps))
             for p, F in sorted(flows.items()) if F > 0]
    if sum(len(r) for _, r in grids) > DEFAULT_BUDGET:
        raise BudgetExceeded(f"epsilon {eps:g} gives more than {DEFAULT_BUDGET} "
                             f"disc demands")
    return [DemandVector.of({p: (1 + eps) ** j}) for p, r in grids for j in reversed(r)]


def demand_grid(net: TerminalNetwork, spec: str) -> list[DemandVector]:
    """Dispatch on a spec string: "basis" | "random:N:SEED" | "disc:EPS:ETA"."""
    kind, *args = spec.split(":")
    if spec == "basis":
        return basis_demands(net)
    forms = {"random": (random_demands, int, "random:N:SEED"),
             "disc": (disc_demands, float, "disc:EPS:ETA")}
    if kind not in forms:
        raise VerifyError(f"unknown demand spec {spec!r}")
    make, number, form = forms[kind]
    try:
        a, b = map(number, args)
    except ValueError:
        raise VerifyError(f"{kind} spec is {form}") from None
    return make(net, a, b)


# ---------------------------------------------------------------------------
# Certification
# ---------------------------------------------------------------------------

def require_same_terminals(g: TerminalNetwork, gp: TerminalNetwork) -> None:
    """Raise `VerifyError` unless base and candidate share their terminals."""
    if set(g.terminals) != set(gp.terminals):
        raise VerifyError("terminal sets differ between base and candidate")


def certify(g: TerminalNetwork, gp: TerminalNetwork,
            demands: list[DemandVector], claimed_q: float,
            *, demand_spec: str = "explicit") -> QualityReport:
    """Per-demand flow comparison of candidate gp against base g.

    A quality-q sparsifier must never lose flow (lower <= 1+tol) and never
    gain more than the claim (upper <= q * (1+tol)), with tol = DEFAULT_TOL.
    A demand with a pair that gp disconnects routes nothing there: its
    candidate lambda is 0, so lower is infinite and the verdict fails.  An
    empty demand set or a NaN claim raises `VerifyError`.
    """
    require_same_terminals(g, gp)
    if not demands:
        raise VerifyError("empty demand set")
    if math.isnan(claimed_q):
        raise VerifyError("claimed quality is NaN")
    component_of = gp.component_of

    records = []
    for d in demands:
        lam_base = concurrent_flow(g, d).value     # rejects malformed demands
        split = any(component_of[s] != component_of[t] for s, t in d.pairs())
        records.append(DemandRecord(
            demand=d.entries, lam_base=lam_base,
            lam_candidate=0.0 if split else concurrent_flow(gp, d).value))

    lower = max(r.lam_base / r.lam_candidate if r.lam_candidate else math.inf
                for r in records)
    upper = max(r.lam_candidate / r.lam_base for r in records)
    verdict = lower <= 1 + DEFAULT_TOL and upper <= claimed_q * (1 + DEFAULT_TOL)
    return QualityReport(lower=lower, upper=upper, claimed_quality=claimed_q,
                         verdict=verdict, records=tuple(records),
                         demand_spec=demand_spec)


def certify_cuts(g: TerminalNetwork, gp: TerminalNetwork) -> CutReport:
    """Exact bipartition min-cut comparison over all 2^(k-1)-1 bipartitions.

    beta is the largest candidate/base cut ratio, infinite when the candidate
    has capacity across a bipartition the base does not cut at all.  From
    k = 3 on, each network's `bipartition_cuts` table is read whole, gp's
    only when its terminals are in g's order (a sparsifier keeps its
    input's order); otherwise, at k = 2 and where a table is not taken, each
    cut comes from `mincut_partition`.  The cuts are compared as integers:
    base / scale_g against cand / scale_gp, cross-multiplied.  The report
    builds its records from them on first read.
    """
    require_same_terminals(g, gp)
    k = g.k
    if k > _MAX_CUT_TERMINALS:
        raise VerifyError(f"k={k} exceeds the bipartition budget {_MAX_CUT_TERMINALS}")
    g_scale, gp_scale = g.cut_view[0], gp.cut_view[0]
    # at k = 2 a table would hold the one cut: none is built
    g_cuts = g.bipartition_cuts if k > 2 else None
    gp_cuts = gp.bipartition_cuts if k > 2 and gp.terminals == g.terminals else None
    if g_cuts is None:
        g_cuts = [int(mincut_partition(g, A, B) * g_scale)
                  for A, B in terminal_bipartitions(g.terminals)]
    if gp_cuts is None:
        gp_cuts = [int(mincut_partition(gp, A, B) * gp_scale)
                   for A, B in terminal_bipartitions(g.terminals)]
    # beta is num / den, the largest cand / base so far; den = 0 once infinite
    num, den = 0, 1
    all_exact = True
    for base, cand in zip(g_cuts, gp_cuts):
        base, cand = base * gp_scale, cand * g_scale
        all_exact = all_exact and base == cand
        if base > 0:
            if cand * den > num * base:
                num, den = cand, base
        elif cand > 0:
            num, den = 1, 0
    beta = num / den if den else math.inf

    def records():
        return tuple(CutRecord(A, Fraction(base, g_scale), Fraction(cand, gp_scale))
                     for (A, _), base, cand in zip(terminal_bipartitions(g.terminals),
                                                    g_cuts, gp_cuts))
    return CutReport(beta=beta, all_exact=all_exact, records=records)
