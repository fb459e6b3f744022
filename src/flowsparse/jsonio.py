"""File formats: graph JSON (the contract for every CLI command), demand
files and run manifests."""

from __future__ import annotations

import hashlib
import json
import time
from fractions import Fraction

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


def read_json(path: str):
    """`json.load` of the file at `path`; nesting past the recursion limit
    raises `NetworkError`, not `RecursionError`."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise NetworkError(f"{path}: JSON nests deeper than the recursion "
                               "limit allows") from None


def save_net(net: TerminalNetwork, path: str, meta: dict | None = None) -> None:
    with open(path, "w") as fh:
        json.dump(net_to_json_dict(net, meta), fh, indent=1, sort_keys=True)


def load_net(path: str, *, allow_disconnected: bool = False) -> TerminalNetwork:
    return net_from_json_dict(read_json(path),
                              allow_disconnected=allow_disconnected)


def load_demands(path: str) -> list[DemandVector]:
    """A demand file holds either one vector (list of {s,t,d} rows) or a list
    of such vectors."""
    data = read_json(path)
    if not isinstance(data, list):
        raise NetworkError("demand file must be a JSON list")
    if data and isinstance(data[0], dict):
        data = [data]
    try:
        return [DemandVector.of({(row["s"], row["t"]): row["d"] for row in vec})
                for vec in data]
    except (KeyError, TypeError) as exc:
        raise NetworkError(f"malformed demand file: {exc!r}") from exc


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
