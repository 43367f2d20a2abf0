"""Splitting an adjacency-free family along residues.

Because added residues are pairwise non-adjacent, a member splits into one
single-residue member per active residue (delete the added nodes of every
other residue), tableaux split by restriction, degrees add up, and the
decomposition matrix is the entrywise product of the single-residue
matrices.  factor_check verifies the last three statements exhaustively
with both sides computed independently.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import product

from .gamma import GammaContext, build_gamma_set
from .laurent import LaurentPoly
from .partitions import Multipartition
from .peeling import gamma_peel_matrix
from .tableaux import Tableau, enumerate_sstd, pinned_tableau, slot_moves, tableau_degree


@dataclass
class FactoredContext:
    parent: GammaContext
    children: dict[int, GammaContext] = field(default_factory=dict)

    @property
    def active_residues(self) -> list[int]:
        return sorted(self.children)


def factor_context(gctx: GammaContext) -> FactoredContext:
    multiset = sorted(gctx.multiset.items())
    children = {r: build_gamma_set(gctx.gamma, [r], {r: m}, gctx.ctx) for r, m in multiset}
    return FactoredContext(gctx, children)


def psi_multipartition(lam: Multipartition, fctx: FactoredContext) -> dict[int, Multipartition]:
    """Per active residue, the child member filling the same slots as lam;
    a child's slots of its residue are the parent's, both being gamma's
    addable nodes of that residue."""
    filled = fctx.parent.added_positions(lam)
    return {r: child.element_from_positions({r: filled[r]}) for r, child in sorted(fctx.children.items())}


def psi_inverse(parts: dict[int, Multipartition], fctx: FactoredContext) -> Multipartition:
    return fctx.parent.element_from_positions(
        {r: fctx.children[r].added_positions(lam_r)[r] for r, lam_r in parts.items()}
    )


def psi_tableau(tab: Tableau, fctx: FactoredContext) -> dict[int, Tableau]:
    """Restrict a base-pinned tableau to each residue factor: the factor
    makes the same slot moves of its residue in the child family."""
    parts_shape = psi_multipartition(tab.shape, fctx)
    parts_weight = psi_multipartition(tab.weight, fctx)
    moves = slot_moves(tab, fctx.parent)
    return {
        r: pinned_tableau(parts_shape[r], parts_weight[r], child, {r: moves[r]})
        for r, child in sorted(fctx.children.items())
    }


@dataclass
class FactorReport:
    ok: bool
    pairs_checked: int
    tableaux_checked: int
    failure: str | None = None


def factor_check(fctx: FactoredContext) -> FactorReport:
    """Verify the tableau split, degree additivity and matrix factorization
    over every pair, in one pass.

    Both sides are computed independently: the left from the full context,
    the right from the per-residue contexts, with no shared caches.
    """
    gctx = fctx.parent
    ctx = gctx.ctx
    pairs = 0
    tableaux = 0

    split = {lam: psi_multipartition(lam, fctx) for lam in gctx.elements}
    child_tabs = {
        r: {(a, b): enumerate_sstd(a, b, ctx, child) for a, b in product(child.elements, repeat=2)}
        for r, child in fctx.children.items()
    }
    full = gamma_peel_matrix(gctx)
    children_matrices = {r: gamma_peel_matrix(fctx.children[r]) for r in fctx.active_residues}

    # the split of each pair's tableaux is the product of the child lists,
    # as multisets; then degree additivity, tableau by tableau; then the
    # pair's decomposition number is the product of the children's
    for lam, mu in product(gctx.elements, repeat=2):
        tabs = enumerate_sstd(lam, mu, ctx, gctx)
        pairs += 1
        parts = [psi_tableau(tab, fctx) for tab in tabs]
        lists = [child_tabs[r][split[lam][r], split[mu][r]] for r in fctx.active_residues]
        if Counter(tuple(p.values()) for p in parts) != Counter(product(*lists)):
            return FactorReport(
                False,
                pairs,
                tableaux,
                f"tableau split mismatch at ({lam}, {mu}): {len(tabs)} tableaux "
                f"vs child lists of sizes {[len(x) for x in lists]}",
            )
        for tab, part in zip(tabs, parts):
            tableaux += 1
            total = sum(tableau_degree(t, ctx) for t in part.values())
            degree = tableau_degree(tab, ctx)
            if total != degree:
                return FactorReport(
                    False,
                    pairs,
                    tableaux,
                    f"degree additivity fails at ({lam}, {mu}): {degree} != {total}",
                )
        expected = LaurentPoly.one()
        for r in fctx.active_residues:
            expected = expected * children_matrices[r].entry(split[lam][r], split[mu][r])
        if full.entry(lam, mu) != expected:
            return FactorReport(
                False,
                pairs,
                tableaux,
                f"matrix factorization fails at ({lam}, {mu}): "
                f"{full.entry(lam, mu)} != {expected}",
            )
    return FactorReport(True, pairs, tableaux)
