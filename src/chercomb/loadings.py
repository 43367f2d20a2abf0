"""Loadings and the dominance order they induce.

The loading of a multipartition places one residue-labelled point on the
tilted real line per node.  A loading dominates another when, residue by
residue and at every threshold, it has at least as many points strictly to
the left.  Further left is more dominant.
"""

from __future__ import annotations

from .coords import ExactCoord
from .params import ParamContext
from .partitions import Multipartition


class DuplicateCoordinate(ValueError):
    """Two points of one loading share a coordinate (invalid weighting)."""


class Loading:
    """Sorted sequence of (coordinate, residue) points."""

    __slots__ = ("points", "_by_residue")

    def __init__(self, points):
        self.points = sorted(points)
        seen = set()
        for c, _ in self.points:
            if c in seen:
                raise DuplicateCoordinate(f"coordinate {c} occurs twice")
            seen.add(c)
        by_res: dict[int, list[ExactCoord]] = {}
        for c, r in self.points:
            by_res.setdefault(r, []).append(c)
        self._by_residue = by_res

    def coords(self) -> list[ExactCoord]:
        return [c for c, _ in self.points]

    def residue_sequence(self) -> list[int]:
        return [r for _, r in self.points]

    def residue_multiset(self) -> dict[int, int]:
        return {r: len(cs) for r, cs in self._by_residue.items()}

    def by_residue(self, residue: int) -> list[ExactCoord]:
        return self._by_residue.get(residue, [])

    def numeric_coords(self, eps_value):
        return [c.numeric(eps_value) for c in self.coords()]


def loading_of(lam: Multipartition, ctx: ParamContext) -> Loading:
    return Loading((ctx.node_coord(node), ctx.residue_of(node)) for node in lam.nodes())


def residue_multiset(lam: Multipartition, ctx: ParamContext) -> dict[int, int]:
    out: dict[int, int] = {}
    for node in lam.nodes():
        r = ctx.residue_of(node)
        out[r] = out.get(r, 0) + 1
    return out


def dominates(a: Loading, b: Loading) -> bool:
    """Whether a dominates b: per residue, per threshold, counts of a win.

    When the per-residue counts agree this is an elementwise comparison of
    the sorted coordinate lists; in general list j of b must be preceded by
    at least j+1 elements of a.
    """
    residues = set(a.residue_multiset()) | set(b.residue_multiset())
    for r in residues:
        ca = a.by_residue(r)
        cb = b.by_residue(r)
        if len(ca) < len(cb):
            return False
        for j, x in enumerate(cb):
            if ca[j] > x:
                return False
    return True


def theta_leq(mu: Multipartition, lam: Multipartition, ctx: ParamContext) -> bool:
    """mu <= lam in the theta-dominance order (lam is at least as dominant)."""
    return dominates(loading_of(lam, ctx), loading_of(mu, ctx))

