"""Spans around the public calls into each flowsparse layer.

`Tracer.install` rebinds every name under which a traced function is bound
in any loaded flowsparse module (`verify`, `sketch` and `merging` bind
`concurrent_flow` by name, `flow` imports `simplex_min` lazily from `lp`,
and so on), so each call site records a span: name, start, end, parent span
and job.  Span times are process CPU seconds, like the end-to-end times.  Spans stay in memory; `write` dumps them at exit.  Counters that
need a call's arguments or result are collected in the same wrapper.

A layer's self time is its span time minus the time its direct child spans
cover; its inclusive time counts only spans with no open span of the same
name above them.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from collections import Counter
from pathlib import Path

from flowsparse import DemandVector

# (layer name, defining module, attribute path)
TARGETS = (
    ("lp.simplex_min", "flowsparse.lp", "simplex_min"),
    ("flow.concurrent_flow", "flowsparse.flow", "concurrent_flow"),
    ("flow.max_flow", "flowsparse.flow", "max_flow"),
    ("flow.mincut_partition", "flowsparse.flow", "mincut_partition"),
    ("network.make", "flowsparse.network", "TerminalNetwork.make"),
    ("sketch.build_sketch", "flowsparse.sketch", "build_sketch"),
    ("sketch.query", "flowsparse.sketch", "DemandSketch.query_with_stats"),
    ("sampling.sample_sparsifier", "flowsparse.sampling", "sample_sparsifier"),
    ("merging.ratio_type_sparsifier", "flowsparse.merging", "ratio_type_sparsifier"),
    ("merging.profile_bucket_sparsifier", "flowsparse.merging", "profile_bucket_sparsifier"),
    ("splice.compose", "flowsparse.splice", "compose"),
    ("splice.splice", "flowsparse.splice", "splice"),
    ("splice.unsplice_route", "flowsparse.splice", "unsplice_route"),
    ("structured.sp_sparsifier", "flowsparse.structured", "sp_sparsifier"),
    ("structured.mimick_small", "flowsparse.structured", "mimick_small"),
    ("structured.treewidth_sparsifier", "flowsparse.structured", "treewidth_sparsifier"),
    ("verify.certify", "flowsparse.verify", "certify"),
    ("verify.certify_cuts", "flowsparse.verify", "certify_cuts"),
)

# Call sites each workload must reach; a zero count fails the traced run.
EXPECTED_SITES = {
    "qb-certify": (
        "lp.simplex_min", "verify.concurrent_flow", "merging.concurrent_flow",
        "sampling.sample_sparsifier", "merging.ratio_type_sparsifier",
        "merging.profile_bucket_sparsifier", "verify.certify",
        "network.TerminalNetwork.make"),
    "sketch-small": (
        "lp.simplex_min", "sketch.concurrent_flow", "sketch.max_flow",
        "sketch.build_sketch", "sketch.DemandSketch.query_with_stats"),
    "exact-cuts": (
        "flow.max_flow", "structured.mincut_partition",
        "verify.mincut_partition", "structured.compose", "splice.splice",
        "splice.unsplice_route", "structured.sp_sparsifier",
        "structured.mimick_small", "structured.treewidth_sparsifier",
        "verify.certify_cuts", "network.TerminalNetwork.make"),
}

# (layer, 'time' for inclusive or 'self' for self time) reported as a share
TIME_METRICS = (
    ("lp.simplex_min", "time"), ("flow.concurrent_flow", "self"),
    ("flow.max_flow", "time"), ("flow.mincut_partition", "self"),
    ("network.make", "time"), ("sketch.build_sketch", "self"),
    ("sketch.query", "time"), ("sampling.sample_sparsifier", "time"),
    ("merging.ratio_type_sparsifier", "time"),
    ("merging.profile_bucket_sparsifier", "self"), ("verify.certify", "self"),
    ("structured.sp_sparsifier", "self"), ("structured.mimick_small", "self"),
    ("structured.treewidth_sparsifier", "self"), ("splice.compose", "time"),
    ("splice.splice", "time"), ("splice.unsplice_route", "time"),
    ("verify.certify_cuts", "self"),
)
CALL_METRICS = ("lp.simplex_min", "flow.concurrent_flow", "flow.max_flow",
                "flow.mincut_partition", "network.make", "sketch.query")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent, job]
        self.stack: list[int] = []
        self.job = -1
        self.active = False
        self.site_calls: Counter = Counter()
        self.open: Counter = Counter()  # open spans per name
        self.counts: Counter = Counter()
        self.max_gap = 0.0
        self._seen_keys: set = set()
        self.sites: list[str] = []

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        modules = {name: mod for name, mod in list(sys.modules.items())
                   if name == "flowsparse" or name.startswith("flowsparse.")}
        for layer, modname, attr in TARGETS:
            owner_name, _, fname = attr.rpartition(".")
            owner = modules[modname]
            if owner_name:
                owner = getattr(owner, owner_name)
            orig = getattr(owner, fname)
            if owner_name:
                site = f"{modname.rpartition('.')[2]}.{attr}"
                wrapped = self._wrap(layer, site, orig)
                raw = owner.__dict__[fname]
                setattr(owner, fname,
                        staticmethod(wrapped) if isinstance(raw, staticmethod) else wrapped)
                self.sites.append(site)
            for mname, mod in modules.items():
                for name, val in list(vars(mod).items()):
                    if val is orig:
                        site = f"{mname.rpartition('.')[2]}.{name}"
                        setattr(mod, name, self._wrap(layer, site, orig))
                        self.sites.append(site)

    def _wrap(self, layer: str, site: str, fn):
        after = getattr(self, "_after_" + layer.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self.site_calls[site] += 1
            idx = len(self.spans)
            span = [layer, time.process_time(), 0.0,
                    self.stack[-1] if self.stack else -1, self.job]
            self.spans.append(span)
            self.stack.append(idx)
            self.open[layer] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.process_time()
                self.stack.pop()
                self.open[layer] -= 1
            if after is not None:
                after(args, kwargs, result)
            return result
        return wrapper

    # -- counters taken from arguments and results ---------------------------

    def _after_lp_simplex_min(self, args, kwargs, result):
        self.counts["lp.simplex_min.pivots"] += int(result[5])

    def _after_flow_concurrent_flow(self, args, kwargs, result):
        net, demand = args[0], args[1] if len(args) > 1 else kwargs["demand"]
        if not isinstance(demand, DemandVector):
            demand = DemandVector.of(demand)
        key = (net.cache_key, demand.entries)
        if key in self._seen_keys:
            self.counts["flow.concurrent_flow.repeats"] += 1
        else:
            self._seen_keys.add(key)
            self.counts["flow.concurrent_flow.rounds"] += result.rounds
        self.max_gap = max(self.max_gap, result.duality_gap)
        if self.open["sketch.build_sketch"]:
            self.counts["sketch.build_sketch.oracle_calls"] += 1

    def _after_sketch_build_sketch(self, args, kwargs, result):
        self.counts["sketch.stored_entries"] += result.stored_entries

    def _after_sketch_query(self, args, kwargs, result):
        self.counts["sketch.query.probes"] += result[1]

    def _after_sampling_sample_sparsifier(self, args, kwargs, result):
        params = result.params_dict()
        self.counts["sampling.kept_units"] += params["kept_units"]
        self.counts["sampling.units"] += params["units"]

    def _after_verify_certify(self, args, kwargs, result):
        self.counts["verify.certify.records"] += len(result.records)

    def _after_verify_certify_cuts(self, args, kwargs, result):
        self.counts["verify.certify_cuts.bipartitions"] += len(result.records)

    # -- results ---------------------------------------------------------------

    def check_coverage(self, workload: str) -> list[str]:
        return [f"traced call site {site} saw no calls"
                for site in EXPECTED_SITES[workload] if not self.site_calls[site]]

    def layer_times(self) -> tuple[Counter, Counter, Counter]:
        """(calls, inclusive seconds, self seconds) per layer name."""
        calls, inclusive, child = Counter(), Counter(), Counter()
        for name, start, end, parent, _ in self.spans:
            calls[name] += 1
            if parent >= 0:
                child[parent] += end - start
        selfs = Counter()
        for idx, (name, start, end, parent, _) in enumerate(self.spans):
            selfs[name] += end - start - child[idx]
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                inclusive[name] += end - start
        return calls, inclusive, selfs

    def metrics(self, cpu_s: float) -> dict:
        calls, inclusive, selfs = self.layer_times()
        out = {}
        for layer, kind in TIME_METRICS:
            seconds = inclusive[layer] if kind == "time" else selfs[layer]
            out[f"{layer}.{kind}_pct"] = (100.0 * seconds / cpu_s, "%")
        for layer in CALL_METRICS:
            out[f"{layer}.calls"] = (calls[layer], "count")
        c = self.counts
        cf_calls = calls["flow.concurrent_flow"]
        out.update({
            "lp.simplex_min.pivots": (c["lp.simplex_min.pivots"], "count"),
            "flow.concurrent_flow.rounds": (c["flow.concurrent_flow.rounds"], "count"),
            "flow.concurrent_flow.repeat_frac": (
                c["flow.concurrent_flow.repeats"] / cf_calls if cf_calls else 0.0, "ratio"),
            "flow.concurrent_flow.max_gap": (self.max_gap, "ratio"),
            "sketch.build_sketch.oracle_calls": (
                c["sketch.build_sketch.oracle_calls"], "count"),
            "sketch.stored_entries": (c["sketch.stored_entries"], "count"),
            "sketch.query.probes": (c["sketch.query.probes"], "count"),
            "sampling.sample_sparsifier.kept_frac": (
                c["sampling.kept_units"] / c["sampling.units"]
                if c["sampling.units"] else 0.0, "ratio"),
            "verify.certify.records": (c["verify.certify.records"], "count"),
            "verify.certify_cuts.bipartitions": (
                c["verify.certify_cuts.bipartitions"], "count"),
        })
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            fh.write("name\tstart\tend\tparent\tjob\n")
            for name, start, end, parent, job in self.spans:
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{job}\n")
