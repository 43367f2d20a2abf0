"""Slot-indexed transport between single-residue contexts.

Inside one family, a member is determined by which slots of the ordered
addable list it fills, and a base-pinned tableau by its component word (the
slot receiving each added node).  Matching slot data across two contexts
with equally long addable lists transports members and tableaux; when the
brick fingerprints are equivalent this transport is a graded isomorphism,
which is testable: degrees, lengths, and decomposition matrices all match.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gamma import GammaContext, NotInGamma
from .partitions import Multipartition
from .tableaux import Tableau


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
    a = sigma_indices(lam, gctx)
    b = sigma_indices(mu, gctx)
    if any(x > y for x, y in zip(a, b)):
        raise NotComparable(f"{lam} does not dominate {mu}")
    return sum(y - x for x, y in zip(a, b))


def component_word(tab: Tableau, gctx: GammaContext) -> tuple[int, ...]:
    """The slot receiving each added node of the shape, in slot order.

    A base-pinned tableau is uniquely determined by this word.
    """
    r = gctx.residue
    slots = gctx.addable[r]
    slot_of = {node: i for i, node in enumerate(slots, start=1)}
    word = []
    for s in sigma_indices(tab.shape, gctx):
        word.append(slot_of[tab.mapping[slots[s - 1]]])
    return tuple(word)


def tableau_from_word(lam, mu, word, gctx: GammaContext) -> Tableau:
    r = gctx.residue
    slots = gctx.addable[r]
    mapping = {node: node for node in gctx.gamma.nodes()}
    for s, t in zip(sigma_indices(lam, gctx), word):
        mapping[slots[s - 1]] = slots[t - 1]
    tab = Tableau(lam, mu, mapping)
    if sorted(word) != list(sigma_indices(mu, gctx)):
        raise NotInGamma(f"word {word} does not fill the added slots of {mu}")
    return tab


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
        word = component_word(tab, self.source)
        return tableau_from_word(lam, mu, word, self.target)
