"""Importance sampling of non-terminals in quasi-bipartite networks, and the
bounded-component extension.

Each non-terminal v carries 2-hop flow min(c_sv, c_vt) for a pair (s,t); its
sampling probability is the oversampling factor M times the largest share v
contributes to any pair's 2-hop max flow.  Kept vertices have their incident
capacities scaled by the inverse keep probability, which makes the sampled
2-hop flow an unbiased estimator of the original.

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


def _require_sampling_input(net: TerminalNetwork) -> None:
    if not net.is_quasi_bipartite():
        raise SamplingError("sampling needs a quasi-bipartite network")
    if not net.terminals_independent():
        raise SamplingError("terminals must be independent "
                            "(subdivide terminal-terminal edges first)")


def two_hop_maxflows(net: TerminalNetwork):
    """Per pair: (F_st, {v: min(c_sv, c_vt)}), the 2-hop max flow and its
    edge-disjoint per-middle-vertex split."""
    _require_sampling_input(net)
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


def sampling_plan(net: TerminalNetwork, M: float, seed: int) -> SamplingPlan:
    """Per-vertex probabilities p_v = M * max_st F_{st,v} / F_st."""
    if M <= 0:
        raise SamplingError("oversampling factor must be positive")
    flows = two_hop_maxflows(net)
    ts = net.terminal_set
    shares: dict[str, dict] = {v: {} for v in net.vertices if v not in ts}
    for pair, (_, per_v) in flows.items():
        for v, share in per_v.items():
            shares[v][pair] = share
    return _plan(M, seed, [(v, (v,), per_pair) for v, per_pair in shares.items()],
                 {pair: fst for pair, (fst, _) in flows.items()})


def _plan(M: float, seed: int, units, totals) -> SamplingPlan:
    """Keep probabilities from each unit's largest share of a pair's flow.

    `units` lists (unit id, members, {pair: positive flow through the unit})
    with the pairs in terminal-pair order, so ties go to the first pair;
    `totals` holds each pair's flow summed over all units.  Units that carry
    no flow are dropped.
    """
    plans = []
    dropped: list[str] = []
    for unit_id, members, flows in units:
        if not flows:
            dropped.extend(members)
            continue
        ratio, pair = max(((val / totals[p], p) for p, val in flows.items()),
                          key=lambda rp: rp[0])
        p_raw = M * float(ratio)
        plans.append(UnitPlan(unit_id=unit_id, members=members, p_raw=p_raw,
                              p=min(1.0, p_raw), best_pair=pair))
    if dropped:
        warnings.warn(f"{len(dropped)} non-terminal(s) carry no 2-hop flow "
                      "and are dropped deterministically", stacklevel=3)
    return SamplingPlan(M=float(M), seed=int(seed), units=tuple(plans),
                        dropped=tuple(dropped))


def _apply_plan(net: TerminalNetwork, plan: SamplingPlan, method: str,
                extra_params: dict, notes: tuple[str, ...]) -> SparsifierResult:
    """Delete the members of every unit not kept, and divide each remaining
    edge once by the keep probability of each unit it touches.  When no
    vertex goes and every unit is kept at p = 1, the sample is `net` itself,
    with its flow record."""
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
    params.update(extra_params)
    return SparsifierResult.of(sampled, method, float("nan"),
                               params=params, notes=notes)


def sample_sparsifier(net: TerminalNetwork, M: float, seed: int) -> SparsifierResult:
    """Keep each non-terminal with its plan probability and rescale incident
    capacities by the inverse; deterministic under a fixed seed."""
    plan = sampling_plan(net, M, seed)
    return _apply_plan(net, plan, "sample", {},
                       notes=("vertex-level importance sampling",))


def grouped_sampling_plan(net: TerminalNetwork, w: int, M: float,
                          seed: int) -> SamplingPlan:
    """One sampling unit per component of the graph minus terminals; the
    component's 2-hop role is played by its terminal-free s-t min cuts.

    With independent terminals every edge has a non-terminal end, so one
    pass buckets the edges by component, and the subnetwork of a component
    and a pair is that bucket less the edges to other terminals."""
    if M <= 0:
        raise SamplingError("oversampling factor must be positive")
    if not net.terminals_independent():
        raise SamplingError("terminals must be independent")
    comps = components(net, net.terminal_set)
    for comp in comps:
        if len(comp) > w:
            raise SamplingError(
                f"component {sorted(comp)} has {len(comp)} > w = {w} vertices")
    pairs = net.terminal_pairs()
    ts = net.terminal_set
    comp_of = {v: i for i, comp in enumerate(comps) for v in comp}
    comp_edges: list[list] = [[] for _ in comps]
    for e in net.edges:
        comp_edges[comp_of[e[1] if e[0] in ts else e[0]]].append(e)
    units = []
    totals = {p: Fraction(0) for p in pairs}
    for comp, edges in zip(comps, comp_edges):
        members = tuple(sorted(comp))
        flows = {}
        adj_terms = sorted({t for v in comp for t in net.adjacency[v] if t in ts})
        for s, t in pairs:
            if s not in adj_terms or t not in adj_terms:
                continue
            keep = comp | {s, t}
            sub = TerminalNetwork.make(
                sorted(keep), [s, t],
                [e for e in edges if e[0] in keep and e[1] in keep],
                allow_disconnected=True)
            val = max_flow(sub, s, t)
            if val > 0:
                flows[(s, t)] = val
                totals[(s, t)] += val
        units.append((members[0] if len(members) == 1 else "|".join(members),
                      members, flows))
    return _plan(M, seed, units, totals)


def grouped_sample_sparsifier(net: TerminalNetwork, w: int, M: float,
                              seed: int) -> SparsifierResult:
    """Component-level sampling for graphs whose terminal-free components
    have at most w vertices; w=1 coincides with vertex-level sampling.

    All edges incident to a kept component (terminal-incident and internal)
    are scaled by the same inverse keep probability; the internal-edge
    scaling is an interpretation choice recorded in the result notes.
    """
    plan = grouped_sampling_plan(net, w, M, seed)
    return _apply_plan(
        net, plan, "sample-grouped", {"w": w},
        notes=("component-level importance sampling",
               "internal component edges scaled like terminal-incident ones",))


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
