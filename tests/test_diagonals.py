import pytest

from chercomb import (
    NotAdmissible,
    ParamContext,
    chi_sequence,
    coord,
    empty_multipartition,
    format_chi,
    i_diagonals,
    mp,
    parse_chi,
)
from chercomb.diagonals import CENTRE, LEFT, RIGHT, TOP_LOWER, TOP_UPPER, VISIBLE


def test_empty_base_single_diagonal():
    ctx = ParamContext(4, [2], ["0"], "1")
    (diag,) = i_diagonals(empty_multipartition(1), 2, ctx)
    assert diag.visible and diag.side == CENTRE and diag.b1 == 0
    assert format_chi(chi_sequence(empty_multipartition(1), 2, ctx)) == "+d6^0"


def test_level1_example_diagonals():
    ctx = ParamContext(5, [0], ["0"], "1")
    gamma = mp([10, 9, 9, 6, 4, 4, 3, 2, 1, 1])
    diags = i_diagonals(gamma, 0, ctx)
    assert [d.x for d in diags] == [
        coord(-10, 10),
        coord(-5, 11),
        coord(0, 8),
        coord(5, 9),
        coord(10, 10),
    ]
    assert [d.b1 for d in diags] == [0, 2, 4, 2, 0]
    assert [d.side for d in diags] == [LEFT, LEFT, CENTRE, RIGHT, RIGHT]
    assert format_chi(chi_sequence(gamma, 0, ctx)) == "+d4^0,+d4^3,+d6^0,+d5^0,+d5^0"


def test_brick_count_identities():
    ctx = ParamContext(5, [0], ["0"], "1")
    for gamma in (
        mp([10, 9, 9, 6, 4, 4, 3, 2, 1, 1]),
        mp([30] * 6 + [28, 20, 19, 19, 15, 11, 9, 7] + [3] * 6),
        mp([5, 1, 1, 1, 1]),
    ):
        for diag in i_diagonals(gamma, 0, ctx):
            # one bottom brick; a top brick exactly when the diagonal is invisible
            assert diag.side in (LEFT, RIGHT, CENTRE)
            if diag.visible:
                assert diag.top_kind == VISIBLE
                assert diag.b1 == len(diag.nodes)
            else:
                assert diag.top_kind in (TOP_LOWER, TOP_UPPER)
                assert diag.b1 == len(diag.nodes) - 1


def test_schur_pair_sequences(ctx_e5):
    big = mp([30] * 6 + [28, 20, 19, 19, 15, 11, 9, 7] + [3] * 6)
    small = mp([10] * 4 + [9] + [5] * 4 + [3] * 3 + [1] * 8)
    assert (
        format_chi(chi_sequence(big, 0, ctx_e5))
        == "+d4^0,+d4^2,+d4^3,+d4^3,+d4^2,+d4^0,-d6^0,-d5^3,-d5^3,+d5^2,+d5^0"
    )
    assert (
        format_chi(chi_sequence(small, 0, ctx_e5))
        == "+d4^0,+d4^0,-d6^0,-d5^3,-d5^3,+d5^2,+d5^0"
    )


def test_flotw_bipartition_sequences(gctx_flotw_bipartition):
    gctx = gctx_flotw_bipartition
    expected = "+d4^0,+d4^0,-d4^0,+d4^0,+d4^0,+d5^0,-d5^0,-d5^0,+d5^0,+d5^0"
    assert format_chi(chi_sequence(gctx.gamma, 0, gctx.ctx)) == expected
    other = ParamContext(4, [1], ["0"], "1")
    partner = mp([19, 18, 17, 17, 17, 16, 13, 12, 11, 8, 8, 8, 7, 6, 5, 2, 2])
    assert format_chi(chi_sequence(partner, 0, other)) == expected


def test_two_red_lines_sequences():
    ctx = ParamContext(5, [0, 0], ["0", "1/2"], "1")
    gamma = mp([10, 8, 7, 5, 5, 5, 3, 3, 3], [5, 4, 3, 3, 3, 3, 3, 2, 1, 1])
    assert (
        format_chi(chi_sequence(gamma, 0, ctx))
        == "+d4^0,+d4^0,+d4^0,+d6^2,+d6^2,+d5^2,+d5^0,+d5^0"
    )
    other = ParamContext(5, [1], ["0"], "1")
    partner = mp([14, 12, 11, 9, 8, 5, 5, 3, 2, 1, 1])
    assert (
        format_chi(chi_sequence(partner, 0, other))
        == "+d4^0,+d4^0,+d4^0,+d5^2,+d5^0,+d5^0"
    )


def test_x_coordinate_definitions_agree():
    # the top vertex of the top residue-node, the left vertex of the top
    # lower-neighbour node, and the right vertex of the top upper-neighbour
    # node must all give the same x whenever they exist
    from chercomb.coords import ExactCoord
    from chercomb.partitions import Node

    cases = [
        (ParamContext(5, [0], ["0"], "1"), mp([10, 9, 9, 6, 4, 4, 3, 2, 1, 1]), 0),
        (ParamContext(5, [0], ["0"], "1"), mp([30] * 6 + [28, 20, 19, 19, 15, 11, 9, 7] + [3] * 6), 0),
        (
            ParamContext(5, [0, 0], ["0", "1/2"], "1"),
            mp([10, 8, 7, 5, 5, 5, 3, 3, 3], [5, 4, 3, 3, 3, 3, 3, 2, 1, 1]),
            0,
        ),
        (ParamContext(3, [2, 1], ["0", "1"], "2"), mp([7, 5, 3, 1, 1], [5, 5, 4, 2, 2, 1, 1]), 0),
    ]
    for ctx, gamma, residue in cases:
        for diag in i_diagonals(gamma, residue, ctx):
            theta = ctx.theta[diag.comp - 1]
            base = theta + ctx.g * diag.offset
            candidates = []
            if diag.nodes:
                top = diag.nodes[-1]
                candidates.append(ExactCoord(base, top.row + top.col))
            # the witnesses flanking the top position of the stack: the
            # lower-residue neighbour's left vertex and the upper-residue
            # neighbour's right vertex
            if diag.visible:
                slot = Node(
                    (diag.nodes[-1].row + 1) if diag.nodes else (diag.offset + 1 if diag.offset >= 0 else 1),
                    (diag.nodes[-1].col + 1) if diag.nodes else (1 if diag.offset >= 0 else 1 - diag.offset),
                    diag.comp,
                )
                lower = Node(slot.row, slot.col - 1, diag.comp)
                upper = Node(slot.row - 1, slot.col, diag.comp)
                if slot.col > 1 and gamma.contains(lower):
                    candidates.append(ExactCoord(base, lower.row + lower.col - 1))
                if slot.row > 1 and gamma.contains(upper):
                    candidates.append(ExactCoord(base, upper.row + upper.col - 1))
            else:
                top = diag.nodes[-1]
                lower = Node(top.row + 1, top.col, diag.comp)
                upper = Node(top.row, top.col + 1, diag.comp)
                if gamma.contains(lower):
                    candidates.append(ExactCoord(base, lower.row + lower.col - 1))
                if gamma.contains(upper):
                    candidates.append(ExactCoord(base, upper.row + upper.col - 1))
            assert candidates, f"diagonal {diag} has no witnessing node"
            assert all(c == diag.x for c in candidates), (diag, candidates)


def test_inadmissible_raises(ctx_e5):
    with pytest.raises(NotAdmissible):
        i_diagonals(mp([1]), 0, ctx_e5)


def test_serialization_round_trip(ctx_e5):
    gamma = mp([10, 9, 9, 6, 4, 4, 3, 2, 1, 1])
    seq = chi_sequence(gamma, 0, ctx_e5)
    assert parse_chi(format_chi(seq)) == seq
    with_empties = parse_chi("+d4^0,o,-o,-d6^2")
    assert format_chi(with_empties) == "+d4^0,o,-o,-d6^2"
    assert parse_chi("") == ()
    with pytest.raises(ValueError):
        parse_chi("+d7^0")


def test_infinite_quantum_char():
    ctx = ParamContext("infinity", [0], ["0"], "1")
    gamma = mp([3, 3, 1])
    # residue -1 nodes sit on the single offset 1 diagonal band
    seq = chi_sequence(gamma, -1, ctx)
    assert len(seq) >= 1
    for diag in i_diagonals(gamma, -1, ctx):
        assert diag.side in (LEFT, RIGHT, CENTRE)
