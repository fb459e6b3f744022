"""File formats: graph JSON (the contract for every CLI command), demand
files, DIMACS max-flow import, and run manifests."""

from __future__ import annotations

import hashlib
import json
import time
from fractions import Fraction
from pathlib import Path

from .network import DemandVector, NetworkError, TerminalNetwork


def cap_to_json(c: Fraction):
    if c.denominator == 1:
        return int(c)
    return f"{c.numerator}/{c.denominator}"


def net_to_json_dict(net: TerminalNetwork, meta: dict | None = None) -> dict:
    d = {
        "vertices": list(net.vertices),
        "terminals": list(net.terminals),
        "edges": [{"u": u, "v": v, "cap": cap_to_json(c)}
                  for u, v, c in net.edges],
    }
    if meta:
        d["meta"] = meta
    return d


def net_from_json_dict(d: dict, *, allow_disconnected: bool = False) -> TerminalNetwork:
    try:
        edges = [(e["u"], e["v"], e["cap"]) for e in d["edges"]]
        return TerminalNetwork.make(d["vertices"], d["terminals"], edges,
                                    allow_disconnected=allow_disconnected)
    except (KeyError, TypeError) as exc:
        raise NetworkError(f"malformed graph JSON: {exc}") from exc


def save_net(net: TerminalNetwork, path: str, meta: dict | None = None) -> None:
    with open(path, "w") as fh:
        json.dump(net_to_json_dict(net, meta), fh, indent=1, sort_keys=True)


def load_net(path: str, *, fmt: str = "json", terminals_path: str | None = None,
             allow_disconnected: bool = False) -> TerminalNetwork:
    if fmt == "json":
        with open(path) as fh:
            return net_from_json_dict(json.load(fh),
                                      allow_disconnected=allow_disconnected)
    if fmt == "dimacs":
        return load_dimacs(path, terminals_path,
                           allow_disconnected=allow_disconnected)
    raise NetworkError(f"unknown graph format {fmt!r}")


def load_demands(path: str) -> list[DemandVector]:
    """A demand file holds either one vector (list of {s,t,d} rows) or a list
    of such vectors."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, list):
        raise NetworkError("demand file must be a JSON list")
    if data and isinstance(data[0], dict):
        data = [data]
    try:
        return [DemandVector.of({(row["s"], row["t"]): row["d"] for row in vec})
                for vec in data]
    except (KeyError, TypeError) as exc:
        raise NetworkError(f"malformed demand file: {exc!r}") from exc


def load_dimacs(path: str, terminals_path: str | None,
                *, allow_disconnected: bool = False) -> TerminalNetwork:
    """DIMACS max-flow format: 'a u v cap' arc rows become undirected edges
    (parallel arcs summed); terminals come from the sidecar file (JSON list
    or newline-separated), falling back to the instance's 'n' rows."""
    edges = []
    node_terms = []
    n_declared = None
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("c"):
                continue
            parts = line.split()
            if len(parts) < {"p": 3, "a": 4, "n": 2}.get(parts[0], 0):
                raise NetworkError(f"malformed DIMACS row: {line!r}")
            if parts[0] == "p":
                n_declared = int(parts[2])
            elif parts[0] == "a":
                edges.append((parts[1], parts[2], Fraction(parts[3])))
            elif parts[0] == "n":
                node_terms.append(parts[1])
    vertices = {u for u, _, _ in edges} | {v for _, v, _ in edges}
    if n_declared is not None and len(vertices) < n_declared:
        vertices |= {str(i) for i in range(1, n_declared + 1)}
    if terminals_path:
        text = Path(terminals_path).read_text()
        try:
            terminals = [str(x) for x in json.loads(text)]
        except json.JSONDecodeError:
            terminals = [ln.strip() for ln in text.splitlines() if ln.strip()]
    elif node_terms:
        terminals = node_terms
    else:
        raise NetworkError("dimacs import needs a terminal sidecar file")
    return TerminalNetwork.make(vertices, terminals, edges,
                                allow_disconnected=allow_disconnected)


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(out_path: str, command: str, params: dict,
                   seed: int | None, inputs: dict[str, str],
                   started: float) -> str:
    from . import __version__

    manifest = {
        "command": command,
        "parameters": {k: v for k, v in sorted(params.items())},
        "seed": seed,
        "input_hashes": {name: sha256_file(p) for name, p in sorted(inputs.items())},
        "tool_version": __version__,
        "elapsed_seconds": round(time.time() - started, 3),
    }
    path = f"{out_path}.manifest.json"
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
    return path
