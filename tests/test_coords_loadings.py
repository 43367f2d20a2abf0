from fractions import Fraction

import pytest

from chercomb import (
    DuplicateCoordinate,
    Loading,
    ParamContext,
    ValidationError,
    coord,
    dominates,
    loading_of,
    mp,
    theta_leq,
)
from chercomb.partitions import Node


def test_exact_coord_order():
    assert coord(0, 2) < coord(1, 0)
    assert coord(1, 0) < coord(1, 1)
    assert coord("1/2", 7) < coord(1, 0)
    assert coord("-97/100", 0) < coord(0, 0)
    assert str(coord(5, 2)) == "5+2e"
    assert coord(-1, 3).numeric(Fraction(1, 100)) == Fraction(-97, 100)


def test_coord_of_node_examples():
    ctx = ParamContext(5, [0], ["0"], "1")
    assert ctx.node_coord(Node(1, 1, 1)) == coord(0, 2)
    assert ctx.node_coord(Node(3, 1, 1)) == coord(2, 4)
    two = ParamContext(5, [0, 0], ["0", "1/2"], "1")
    assert two.node_coord(Node(1, 2, 1)) == coord(-1, 3)
    assert two.node_coord(Node(1, 2, 1)).numeric(Fraction(1, 100)) == Fraction(-97, 100)


def test_weighting_validation():
    with pytest.raises(ValidationError):
        ParamContext(4, [0, 0], ["0", "2"], "1")
    with pytest.raises(ValidationError):
        ParamContext(2, [0], ["0"], "1")
    ParamContext("infinity", [3], ["0"], "1")


def test_loading_fixture():
    ctx = ParamContext(4, [0, 0], ["0", "1/2"], "1")
    lam = mp([2, 1], [1, 1, 1])
    ld = loading_of(lam, ctx)
    numeric = ld.numeric_coords(Fraction(1, 100))
    assert numeric == [
        Fraction(-97, 100),
        Fraction(2, 100),
        Fraction(52, 100),
        Fraction(103, 100),
        Fraction(153, 100),
        Fraction(254, 100),
    ]
    # residue pattern (kappa1+1, kappa1, kappa2, kappa1-1, kappa2-1, kappa2-2)
    k1, k2 = ctx.multicharge
    assert ld.residue_sequence() == [
        ctx.residue(k1 + 1),
        k1,
        k2,
        ctx.residue(k1 - 1),
        ctx.residue(k2 - 1),
        ctx.residue(k2 - 2),
    ]


def test_empty_loading():
    ctx = ParamContext(3, [0], ["0"], "1")
    assert loading_of(mp([]), ctx).points == []


def test_duplicate_coordinate_rejected():
    pt = (coord(0, 2), 0)
    with pytest.raises(DuplicateCoordinate):
        Loading([pt, pt])


def sweep_dominates(a, b):
    """Literal threshold-sweep oracle for the dominance comparison."""
    residues = set(a.residue_multiset()) | set(b.residue_multiset())
    thresholds = sorted(set(a.coords()) | set(b.coords())) + [coord(10**9, 0)]
    for r in residues:
        for t in thresholds:
            above = sum(1 for x in a.by_residue(r) if x <= t)
            below = sum(1 for x in b.by_residue(r) if x <= t)
            if above < below:
                return False
    return True


def test_dominance_examples(gctx_admissible_pair):
    ctx = gctx_admissible_pair.ctx
    top_loading = loading_of(gctx_admissible_pair.top, ctx)
    for lam in gctx_admissible_pair.elements:
        assert dominates(top_loading, loading_of(lam, ctx))
        assert dominates(loading_of(lam, ctx), loading_of(lam, ctx))
    top, bottom = gctx_admissible_pair.top, gctx_admissible_pair.bottom
    assert theta_leq(bottom, top, ctx) and not theta_leq(top, bottom, ctx)


def test_row_vs_column_incomparable():
    # (2) and (1,1) carry different residues on their second node for e >= 3
    ctx = ParamContext(3, [0], ["0"], "1")
    assert not theta_leq(mp([2]), mp([1, 1]), ctx)
    assert not theta_leq(mp([1, 1]), mp([2]), ctx)
    assert theta_leq(mp([2]), mp([2]), ctx)


def test_dominance_agrees_with_sweep(gctx_hook):
    ctx = gctx_hook.ctx
    loadings = [loading_of(m, ctx) for m in gctx_hook.elements]
    for a in loadings:
        for b in loadings:
            assert dominates(a, b) == sweep_dominates(a, b)
