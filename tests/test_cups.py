"""The cup-diagram inverse: a third computation of the decomposition matrix.

Residue by residue, read a member's slots left to right: a filled slot
opens, and a free slot closes the most recent open one; each matched pair
(a, b) is a cup.  Moving any set C of lam's cups from a to b gives a
member mu, and E[lam, mu] = (-t)^|C| is the monomial cup-diagram matrix
(Brundan and Stroppel, Khovanov's diagram algebra I, Moscow Math. J. 11,
2011, section 5).  Its inverse D, found by a unitriangular solve along the
family order, is the graded decomposition matrix.  The oracle reads only
the family's slots, its order and LaurentPoly: no terrain, tableau or
peel code.
"""

import random
from itertools import combinations

import pytest

from chercomb import LaurentPoly, build_gamma_set, family_entries
from chercomb.selfcheck import random_single_residue_context


def cups(gctx, lam):
    """lam's cups as (residue, a, b), a its filled slot and b the free one."""
    out = []
    for r, filled in gctx.added_positions(lam).items():
        opened = []
        for slot in range(1, len(gctx.addable[r]) + 1):
            if slot in filled:
                opened.append(slot)
            elif opened:
                out.append((r, opened.pop(), slot))
    return out


def cup_inverse_entries(gctx):
    """The nonzero entries d[(lam, mu)] of D = E^-1, solved from the last
    member up: row lam of D is e_lam minus E[lam, mu] times row mu of D,
    over the mu that move at least one of lam's cups, each later in the
    order.  A row is a dict (mu, exponent) -> coefficient."""
    rows = {}
    for lam in reversed(gctx.elements):
        filled = gctx.added_positions(lam)
        row = {(lam, 0): 1}
        lam_cups = cups(gctx, lam)
        for size in range(1, len(lam_cups) + 1):
            sign = (-1) ** (size + 1)  # -E[lam, mu] = -(-t)^size
            for chosen in combinations(lam_cups, size):
                moved = {r: set(slots) for r, slots in filled.items()}
                for r, a, b in chosen:
                    moved[r].remove(a)
                    moved[r].add(b)
                mu = gctx.element_from_positions({r: tuple(sorted(s)) for r, s in moved.items()})
                for (nu, e), c in rows[mu].items():
                    row[(nu, e + size)] = row.get((nu, e + size), 0) + sign * c
        rows[lam] = row
    entries = {}
    for lam, row in rows.items():
        for (nu, e), c in row.items():
            if c:
                entries.setdefault((lam, nu), {})[e] = c
    return {pair: LaurentPoly(coeffs) for pair, coeffs in entries.items()}


@pytest.mark.parametrize("added, members", [(3, 120), (6, 210)])
def test_cup_inverse_equals_nested_on_flotw(gctx_flotw_bipartition, added, members):
    base = gctx_flotw_bipartition
    gctx = build_gamma_set(base.gamma, [0], {0: added}, base.ctx)
    assert len(gctx) == members
    assert cup_inverse_entries(gctx) == family_entries(gctx, "nested")


def test_cup_inverse_equals_both_engines_on_flotw2(gctx_flotw_bipartition):
    base = gctx_flotw_bipartition
    gctx = build_gamma_set(base.gamma, [0], {0: 2}, base.ctx)
    assert cup_inverse_entries(gctx) == family_entries(gctx, "both")


def test_cup_inverse_equals_both_engines_on_two_residue_families(gctx_admissible_pair, gctx_runner):
    for gctx in (gctx_admissible_pair, gctx_runner):
        assert len(gctx.multiset) == 2
        assert cup_inverse_entries(gctx) == family_entries(gctx, "both")


def test_cup_inverse_equals_both_engines_on_random_families():
    rng = random.Random(17)
    moved = 0
    for _ in range(40):
        gctx = random_single_residue_context(rng)
        entries = cup_inverse_entries(gctx)
        assert entries == family_entries(gctx, "both"), gctx.gamma
        moved += len(entries) > len(gctx)
    assert moved > 10
