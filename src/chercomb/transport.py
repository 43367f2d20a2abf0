"""Slot-indexed transport between single-residue contexts.

Inside one family, a member is determined by which slots of the ordered
addable list it fills, and a base-pinned tableau by its slot moves (the
slot receiving each added node).  Matching slot data across two contexts
with equally long addable lists transports members and tableaux; when the
brick fingerprints are equivalent this transport is a graded isomorphism,
which is testable: degrees, lengths, and decomposition matrices all match.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gamma import GammaContext
from .partitions import Multipartition
from .tableaux import Tableau, pinned_tableau, slot_moves


class NotComparable(ValueError):
    pass


class IncompatibleContexts(ValueError):
    pass


def sigma_indices(lam: Multipartition, gctx: GammaContext) -> tuple[int, ...]:
    """For each k, the least prefix of the addable list containing k added
    nodes of lam; equivalently the ascending slot positions of the added
    nodes."""
    return gctx.added_positions(lam)[gctx.residue]


def interval_length(lam, mu, gctx: GammaContext) -> int:
    """Sum of slot displacements between lam and the dominated mu."""
    if not gctx.leq(mu, lam):
        raise NotComparable(f"{lam} does not dominate {mu}")
    return sum(y - x for x, y in zip(sigma_indices(lam, gctx), sigma_indices(mu, gctx)))


@dataclass(frozen=True)
class TransportMap:
    source: GammaContext
    target: GammaContext

    def __post_init__(self):
        a = len(self.source.addable[self.source.residue])
        b = len(self.target.addable[self.target.residue])
        if a != b:
            raise IncompatibleContexts(f"addable lists have sizes {a} and {b}")
        ms = self.source.multiset[self.source.residue]
        mt = self.target.multiset[self.target.residue]
        if ms != mt:
            raise IncompatibleContexts(f"added-node counts differ: {ms} vs {mt}")

    def multipartition(self, lam: Multipartition) -> Multipartition:
        positions = sigma_indices(lam, self.source)
        r = self.target.residue
        return self.target.element_from_positions({r: positions})

    def tableau(self, tab: Tableau) -> Tableau:
        lam = self.multipartition(tab.shape)
        mu = self.multipartition(tab.weight)
        moves = slot_moves(tab, self.source)[self.source.residue]
        return pinned_tableau(lam, mu, self.target, {self.target.residue: moves})
