"""Importance sampling of non-terminals in quasi-bipartite networks, and the
bounded-component extension, planned by one function and applied by one.

`sampling_plan` makes one sampling unit per component of the network minus
its terminals.  At w = 1 a unit is one non-terminal v, which carries 2-hop
flow min(c_sv, c_vt) for a pair (s,t); a larger component carries its s-t
max flow over its own edges.  A unit's sampling probability is the
oversampling factor M times the largest share it contributes to any pair's
flow summed over all units.  `sample_sparsifier` keeps each unit with that
probability and scales the kept units' incident capacities by its inverse,
which makes the sampled flow an unbiased estimator of the original.  An
edge between two terminals belongs to no unit, so it is kept at its full
capacity.

Randomness is a counter-mode PRF (BLAKE2b over "seed:unit"), one independent
substream per sampled unit, so adding or removing vertices never perturbs
the draws of others and runs are reproducible bit for bit.
"""

from __future__ import annotations

import hashlib
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

from .flow import max_flow
from .network import TerminalNetwork, components
from .results import SparsifierResult


class SamplingError(ValueError):
    pass


def unit_uniform(seed: int, unit_id: str) -> float:
    """Deterministic uniform draw in [0, 1) from (seed, unit id)."""
    digest = hashlib.blake2b(f"{seed}:{unit_id}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2.0 ** 64


def two_hop_maxflows(net: TerminalNetwork):
    """Per pair: (F_st, {v: min(c_sv, c_vt)}), the 2-hop max flow and its
    edge-disjoint per-middle-vertex split."""
    if not net.is_quasi_bipartite():
        raise SamplingError("sampling needs a quasi-bipartite network")
    ts = net.terminal_set
    out = {}
    for s, t in net.terminal_pairs():
        per_v = {}
        for v, c1 in net.adjacency[s].items():
            c2 = net.cap(v, t)
            if v not in ts and c2 > 0:
                per_v[v] = min(c1, c2)
        out[(s, t)] = (sum(per_v.values(), Fraction(0)), per_v)
    return out


@dataclass(frozen=True)
class UnitPlan:
    unit_id: str
    members: tuple[str, ...]
    p_raw: float
    p: float                     # min(1, p_raw)
    best_pair: tuple[str, str]


@dataclass(frozen=True)
class SamplingPlan:
    M: float
    seed: int
    units: tuple[UnitPlan, ...]
    dropped: tuple[str, ...]     # units with no positive 2-hop contribution

    def keep_decisions(self) -> dict[str, bool]:
        return {u.unit_id: unit_uniform(self.seed, u.unit_id) < u.p
                for u in self.units}


def sampling_plan(net: TerminalNetwork, M: float, seed: int,
                  w: int = 1) -> SamplingPlan:
    """One unit per component of `net` minus its terminals, each of at most
    w vertices, kept with p = M * its largest share of a pair's flow.

    A single vertex v carries min(c_sv, c_vt) for a pair (s, t), its 2-hop
    flow; a larger component carries its s-t max flow over its own edges
    and those to s and t.  A pair's total is its flow summed over all
    units, and ties go to the first pair in terminal-pair order.  Units
    that carry no flow are dropped.
    """
    if not 0 < M < math.inf:
        raise SamplingError("oversampling factor must be positive and finite")
    ts = net.terminal_set
    pairs = net.terminal_pairs()
    units = []
    totals = dict.fromkeys(pairs, Fraction(0))
    for comp in components(net, ts):
        if len(comp) > w:
            raise SamplingError(
                f"component {sorted(comp)} has {len(comp)} > w = {w} vertices")
        if len(comp) == 1:
            adj = net.adjacency[next(iter(comp))]
            flows = {(s, t): min(adj[s], adj[t]) for s, t in pairs
                     if s in adj and t in adj}
        else:
            flows = {}
            near = {u for v in comp for u in net.adjacency[v] if u in ts}
            for s, t in pairs:
                if s not in near or t not in near:
                    continue
                edges = [(v, u, c) for v in comp
                         for u, c in net.adjacency[v].items()
                         if u == s or u == t or (u in comp and v < u)]
                sub = TerminalNetwork.make(comp | {s, t}, [s, t],
                                           edges, allow_disconnected=True)
                val = max_flow(sub, s, t)
                if val > 0:
                    flows[(s, t)] = val
        for pair, val in flows.items():
            totals[pair] += val
        units.append((tuple(sorted(comp)), flows))
    plans = []
    dropped: list[str] = []
    for members, flows in units:
        if not flows:
            dropped.extend(members)
            continue
        ratio, pair = max(((val / totals[p], p) for p, val in flows.items()),
                          key=lambda rp: rp[0])
        p_raw = M * float(ratio)
        plans.append(UnitPlan(unit_id="|".join(members), members=members,
                              p_raw=p_raw, p=min(1.0, p_raw), best_pair=pair))
    if dropped:
        warnings.warn(f"{len(dropped)} non-terminal(s) carry no 2-hop flow "
                      "and are dropped deterministically", stacklevel=2)
    return SamplingPlan(M=float(M), seed=int(seed), units=tuple(plans),
                        dropped=tuple(dropped))


def sample_sparsifier(net: TerminalNetwork, M: float, seed: int,
                      w: int = 1) -> SparsifierResult:
    """Keep each unit of `sampling_plan(net, M, seed, w)` with its plan
    probability; deterministic under a fixed seed.

    The members of every unit not kept are deleted, and each remaining edge
    is divided once by the keep probability of each unit it touches, so at
    w > 1 a component's internal edges are scaled like its terminal edges.
    When no vertex goes and every unit is kept at p = 1, the sample is `net`
    itself, with its flow record.
    """
    plan = sampling_plan(net, M, seed, w)
    keep = plan.keep_decisions()
    drop_set = set(plan.dropped)
    unit_of: dict[str, UnitPlan] = {}
    for u in plan.units:
        if keep[u.unit_id]:
            unit_of.update((v, u) for v in u.members)
        else:
            drop_set.update(u.members)
    vertices = [v for v in net.vertices if v not in drop_set]
    edges = []
    for a, b, c in net.edges:
        if a in drop_set or b in drop_set:
            continue
        ua, ub = unit_of.get(a), unit_of.get(b)
        for u in (ua,) if ua is ub else (ua, ub):
            if u is not None and u.p < 1.0:
                c /= Fraction(u.p)
        edges.append((a, b, c))
    sampled = net
    if drop_set or any(u.p < 1.0 for u in plan.units):
        sampled = TerminalNetwork.make(vertices, net.terminals, edges,
                                       allow_disconnected=True)
    params = {"M": plan.M, "seed": plan.seed,
              "kept_units": sum(keep.values()), "units": len(plan.units)}
    notes = ("vertex-level importance sampling",)
    if w > 1:
        params["w"] = w
        notes = ("component-level importance sampling",
                 "internal component edges scaled like terminal-incident ones")
    return SparsifierResult.of(sampled, "sample", float("nan"),
                               params=params, notes=notes)


# ---------------------------------------------------------------------------
# Concentration planning
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlanReport:
    eps: float
    k: int
    target_failure: float
    eta: float
    union_count: float           # |D_LB| * (k choose 2)
    M: float                     # recommended oversampling factor
    predicted_failure_lower: float
    predicted_failure_upper: float
    asymptotic_reference_M: float     # eps^-3 k^5 log(eps^-1 log k), unit constant

    def summary(self) -> str:
        return (f"M={self.M:.1f} (eta={self.eta:.4g}, union count"
                f"={self.union_count:.3g}); predicted failure "
                f"lower={self.predicted_failure_lower:.3g}, "
                f"upper={self.predicted_failure_upper:.3g}; asymptotic-form "
                f"reference M={self.asymptotic_reference_M:.1f} at unit constant")


def plan_oversampling(eps: float, k: int, target_failure: float) -> PlanReport:
    """Invert the lower-tail union bound to an oversampling factor M.

    The discretized demand family has (2 + log_{1+eps}(1/eta))^(k choose 2)
    members with eta = eps/k^2; a union bound over it and the pair count
    must keep the per-demand failure e^{-eps^2 eta M / 2} below target.
    """
    if not (0 < eps < 1):
        raise SamplingError("eps must be in (0,1)")
    if k < 2:
        raise SamplingError("k must be at least 2")
    if not (0 < target_failure < 1):
        raise SamplingError("target failure must be in (0,1)")
    eta = eps / (k * k)
    pairs = k * (k - 1) / 2
    per_coord = 2 + math.log(1 / eta) / math.log(1 + eps)
    dlb = per_coord ** pairs
    union_count = dlb * pairs
    M = 2 * math.log(union_count / target_failure) / (eps * eps * eta)
    pf_lower = union_count * math.exp(-eps * eps * eta * M / 2)
    pf_upper = dlb * math.exp(-eps * eps * eta * M / (k * k))
    asym_m = eps ** -3 * k ** 5 * math.log((1 / eps) * max(math.e, math.log(k)))
    return PlanReport(eps=eps, k=k, target_failure=target_failure, eta=eta,
                      union_count=union_count, M=M,
                      predicted_failure_lower=pf_lower,
                      predicted_failure_upper=min(1.0, pf_upper),
                      asymptotic_reference_M=asym_m)
