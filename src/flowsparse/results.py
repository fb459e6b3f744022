"""Common result wrapper for sparsifier constructions."""

from __future__ import annotations

from dataclasses import dataclass

from .flow import finite_or_none
from .network import TerminalNetwork


@dataclass(frozen=True)
class SparsifierResult:
    """A constructed sparsifier plus its provenance.

    `claimed_quality` is what the construction promises (to be certified by
    the verify module, never trusted blindly); infinite when it promises
    nothing, written as null by `meta`.
    """

    net: TerminalNetwork
    method: str
    claimed_quality: float
    params: tuple[tuple[str, object], ...] = ()
    notes: tuple[str, ...] = ()

    @staticmethod
    def of(net, method, claimed_quality, params=None, notes=()):
        items = tuple(sorted((params or {}).items()))
        return SparsifierResult(net=net, method=method,
                                claimed_quality=float(claimed_quality),
                                params=items, notes=tuple(notes))

    def params_dict(self) -> dict:
        return dict(self.params)

    def meta(self) -> dict:
        return {
            "method": self.method,
            "claimed_quality": finite_or_none(self.claimed_quality),
            "params": {k: v for k, v in self.params},
            "notes": list(self.notes),
        }
