import random
import re
from fractions import Fraction

import pytest

from chercomb import (
    AdjacencyViolation,
    MultisetTooLarge,
    NotAdmissible,
    NotInGamma,
    ParamContext,
    addable_nodes,
    build_gamma_set,
    empty_multipartition,
    is_admissible,
    loading_of,
    mp,
    removable_nodes,
    residue_multiset,
)
from chercomb.gamma import saturation_check
from chercomb.partitions import Multipartition, Node
from chercomb.selfcheck import random_single_residue_context


def test_partition_validation():
    with pytest.raises(ValueError):
        mp([1, 2])
    with pytest.raises(ValueError):
        mp([3, 0])
    with pytest.raises(ValueError):
        Multipartition([])


def test_partition_rejects_fractional_parts():
    with pytest.raises(ValueError, match="expected an integer, got 5.5"):
        mp([5.5, 1.2])
    assert mp([5.0, 1]) == mp([5, 1])


@pytest.mark.parametrize(
    "build",
    [
        lambda: ParamContext(Fraction(7, 2), [0], ["0"], "1"),
        lambda: mp([Fraction(11, 2)]),
        lambda: build_gamma_set(mp([5, 1, 1, 1, 1]), [0], {0: 1.5}, ParamContext(5, [0], ["0"], "1")),
    ],
    ids=["e", "part", "multiset_count"],
)
def test_integer_fields_reject_fractions(build):
    with pytest.raises(ValueError, match="expected an integer, got (7/2|11/2|1.5)"):
        build()


def test_integer_fields_accept_integral_values():
    assert ParamContext("5", [Fraction(4, 2)], ["0"], "1").e == 5
    assert mp([Fraction(4, 2), 1.0]) == mp([2, 1])
    gctx = build_gamma_set(mp([5, 1, 1, 1, 1]), [0], {0: Fraction(2)}, ParamContext(5, [0], ["0"], "1"))
    assert gctx.multiset == {0: 2}


def test_residue_of():
    ctx = ParamContext(4, [0, 3], ["0", "7"], "0.99")
    assert ctx.residue_of(Node(1, 1, 1)) == 0
    assert ctx.residue_of(Node(1, 4, 2)) == 2
    ctx5 = ParamContext(5, [0], ["0"], "1")
    assert ctx5.residue_of(Node(6, 1, 1)) == 0
    inf = ParamContext("infinity", [2], ["0"], "1")
    assert inf.residue_of(Node(3, 1, 1)) == 0
    assert inf.residue_of(Node(1, 5, 1)) == 6


def test_residue_of_bad_component():
    ctx = ParamContext(4, [0], ["0"], "1")
    with pytest.raises(Exception):
        ctx.residue_of(Node(1, 1, 2))


def test_residue_multiset(ctx_admissible_pair):
    ctx, gamma = ctx_admissible_pair
    assert residue_multiset(gamma, ctx) == {0: 5, 1: 4, 2: 5, 3: 3}
    ctx3 = ParamContext(3, [2], ["0"], "1")
    assert residue_multiset(mp([]), ctx3) == {}
    assert residue_multiset(mp([1]), ctx3) == {2: 1}


def test_addable_removable_basics():
    ctx = ParamContext(5, [0], ["0"], "1")
    assert addable_nodes(empty_multipartition(1), ctx) == [Node(1, 1, 1)]
    assert removable_nodes(empty_multipartition(1), ctx) == []
    hook = mp([5, 1, 1, 1, 1])
    assert addable_nodes(hook, ctx, [0]) == [Node(1, 6, 1), Node(2, 2, 1), Node(6, 1, 1)]
    # the level-1 partition of the diagonal example has no removable 0-node
    assert removable_nodes(mp([10, 9, 9, 6, 4, 4, 3, 2, 1, 1]), ctx, [0]) == []


def test_removable_by_component(ctx_level10):
    ctx = ParamContext(4, [1] * 6, [f"{78 * k}/11" for k in range(6)], "1")
    nu = mp([1], [1], [], [], [], [1])
    rem = removable_nodes(nu, ctx, [1])
    assert [n.comp for n in rem] == [1, 2, 6]


def test_add_remove_round_trip(gctx_admissible_pair):
    ctx = gctx_admissible_pair.ctx
    for lam in gctx_admissible_pair.elements[:5]:
        for node in addable_nodes(lam, ctx):
            assert lam.with_node(node).without_node(node) == lam
        for node in removable_nodes(lam, ctx):
            assert lam.without_node(node).with_node(node) == lam


def test_is_admissible(ctx_admissible_pair):
    ctx, gamma = ctx_admissible_pair
    assert is_admissible(gamma, [1, 3], ctx)
    ctx1 = ParamContext(4, [2], ["0"], "1")
    assert not is_admissible(mp([1]), [2], ctx1)
    with pytest.raises(AdjacencyViolation):
        is_admissible(gamma, [1, 2], ctx)


def test_build_gamma_set_trivial(ctx_e5):
    gamma = mp([2, 1])
    gctx = build_gamma_set(gamma, [0], {}, ctx_e5)
    assert gctx.elements == [gamma]
    assert gctx.top == gctx.bottom == gamma


def test_build_gamma_set_admissible_pair(gctx_admissible_pair):
    gctx = gctx_admissible_pair
    assert len(gctx) == 20
    assert gctx.top == mp([4, 3, 2, 1, 1], [5, 2, 2, 1])
    assert gctx.bottom == mp([3, 2, 1, 1, 1, 1], [5, 2, 2, 2, 1])
    assert mp([4, 3, 1, 1, 1, 1], [5, 2, 2, 1]) in gctx
    assert mp([3, 2, 1, 1, 1, 1], [5, 2, 2, 2, 1]) in gctx


def test_build_gamma_set_runner(gctx_runner):
    assert len(gctx_runner) == 20  # 2 * C(5,3)
    assert len(gctx_runner.addable[1]) == 2
    assert len(gctx_runner.addable[3]) == 5


def test_build_gamma_set_errors(ctx_e5):
    ctx = ParamContext(4, [2], ["0"], "1")
    with pytest.raises(NotAdmissible):
        build_gamma_set(mp([1]), [2], {2: 1}, ctx)
    with pytest.raises(MultisetTooLarge):
        build_gamma_set(mp([5, 1, 1, 1, 1]), [0], {0: 4}, ctx_e5)
    with pytest.raises(AdjacencyViolation):
        build_gamma_set(mp([]), [1, 2], {1: 1}, ctx)


def test_membership_invariants(gctx_admissible_pair):
    gctx = gctx_admissible_pair
    gamma, ctx = gctx.gamma, gctx.ctx
    want = dict(residue_multiset(gamma, ctx))
    for r, m in gctx.multiset.items():
        want[r] = want.get(r, 0) + m
    for lam in gctx.elements:
        assert lam.contains_diagram(gamma)
        assert lam.size == gamma.size + sum(gctx.multiset.values())
        assert residue_multiset(lam, ctx) == want


def test_dominance_extremes(gctx_admissible_pair):
    gctx = gctx_admissible_pair
    for lam in gctx.elements:
        assert gctx.leq(lam, gctx.top)
        assert gctx.leq(gctx.bottom, lam)


def test_saturation_small():
    ctx = ParamContext(3, [0], ["0"], "1")
    gctx = build_gamma_set(mp([2]), [2], {2: 1}, ctx)
    assert saturation_check(gctx)
    ctx2 = ParamContext(3, [0, 0], ["0", "1/3"], "1")
    gctx2 = build_gamma_set(empty_multipartition(2), [0], {0: 1}, ctx2)
    assert saturation_check(gctx2)
    gctx3 = build_gamma_set(mp([3, 1, 1]), [0], {0: 2}, ctx)
    assert saturation_check(gctx3)


def test_singleton_residue_moves(ctx_e5):
    # with S = {i}, every member's removable i-nodes are exactly its added nodes
    gctx = build_gamma_set(mp([5, 1, 1, 1, 1]), [0], {0: 2}, ctx_e5)
    for lam in gctx.elements:
        added = set(lam.diagram_difference(gctx.gamma))
        assert set(removable_nodes(lam, ctx_e5, [0])) == added
        remaining = [n for n in gctx.addable[0] if n not in added]
        assert addable_nodes(lam, ctx_e5, [0]) == remaining


def full_loading_key(lam, ctx):
    """The order families were once sorted by: coordinate sums over every
    node of the loading, then the parts."""
    points = loading_of(lam, ctx).points
    return (sum(c.base for c, _ in points), sum(c.eps for c, _ in points), lam.comps)


def assert_slots_match_diagrams(gctx):
    """Stored slot positions agree with the diagram difference from gamma,
    and the family is in full-loading order."""
    ctx = gctx.ctx
    for lam in gctx.elements:
        added = set(lam.diagram_difference(gctx.gamma))
        want = {
            r: tuple(i for i, node in enumerate(nodes, start=1) if node in added)
            for r, nodes in gctx.addable.items()
        }
        stored = gctx.added_positions(lam)
        assert stored == want and list(stored) == sorted(gctx.residue_set), lam
        for r in gctx.residue_set:
            of_r = [n for n in added if ctx.residue_of(n) == r]
            assert gctx.added_nodes(lam, r) == sorted(of_r, key=ctx.node_coord)
        assert gctx.element_from_positions(stored) is lam
    assert gctx.elements == sorted(gctx.elements, key=lambda lam: full_loading_key(lam, ctx))


def test_stored_slots_flotw_family():
    ctx = ParamContext(3, [2, 1], ["0", "1"], "2")
    gctx = build_gamma_set(mp([7, 5, 3, 1, 1], [5, 5, 4, 2, 2, 1, 1]), [0], {0: 2}, ctx)
    assert len(gctx) == 45
    assert_slots_match_diagrams(gctx)


def test_stored_slots_two_residues(gctx_admissible_pair):
    gctx = gctx_admissible_pair
    assert_slots_match_diagrams(gctx)
    with pytest.raises(NotInGamma, match="is not in the index set over"):
        gctx.added_positions(gctx.gamma)


def test_stored_slots_one_member(ctx_e5):
    gctx = build_gamma_set(mp([2, 1]), [0], {0: 0}, ctx_e5)
    assert gctx.elements == [mp([2, 1])]
    assert gctx.added_positions(mp([2, 1])) == {0: ()}
    assert_slots_match_diagrams(gctx)


@pytest.mark.parametrize("seed", [3, 17])
def test_stored_slots_random_families(seed):
    rng = random.Random(seed)
    for _ in range(60):
        assert_slots_match_diagrams(random_single_residue_context(rng))


@pytest.mark.parametrize(
    "slots",
    [
        {0: (1,)},
        {0: (1, 1)},
        {0: (9,)},
        {0: (1, 2), 7: (1,)},
        {0: (1,), 5: (2,)},
        {0: (1, 2), 5: (1, 2)},
    ],
    ids=["short", "repeated", "slot-9", "residue-outside-S", "split-residue", "doubled-residue"],
)
def test_element_from_positions_rejects_non_members(ctx_e5, slots):
    # the hook family with two 0-nodes added: three slots, three members
    gctx = build_gamma_set(mp([5, 1, 1, 1, 1]), [0], {0: 2}, ctx_e5)
    with pytest.raises(NotInGamma, match=re.escape(str(slots))):
        gctx.element_from_positions(slots)


def test_element_from_positions_reduces_residue_keys(ctx_e5):
    # at e = 5 the key 5 names residue 0, as it does for added_nodes
    gctx = build_gamma_set(mp([5, 1, 1, 1, 1]), [0], {0: 2}, ctx_e5)
    lam = gctx.element_from_positions({0: (1, 2)})
    assert gctx.element_from_positions({5: (1, 2)}) == lam
    assert gctx.element_from_positions({-5: (1, 2)}) == lam
    assert gctx.added_nodes(lam, 5) == gctx.added_nodes(lam, 0)


def brute_force_covers(gctx):
    """Hasse edges from the definition: mu < lam with nothing strictly
    between, lam-major along the order."""
    strict = [(lam, mu) for lam, mu in gctx.comparable_pairs() if lam != mu]
    below = set(strict)
    return [
        (lam, mu)
        for lam, mu in strict
        if not any((lam, xi) in below and (xi, mu) in below for xi in gctx.elements)
    ]


def test_covers_match_brute_force_flotw_family():
    ctx = ParamContext(3, [2, 1], ["0", "1"], "2")
    gctx = build_gamma_set(mp([7, 5, 3, 1, 1], [5, 5, 4, 2, 2, 1, 1]), [0], {0: 2}, ctx)
    covers = gctx.covers()
    assert len(covers) > len(gctx) and covers == brute_force_covers(gctx)


def test_covers_match_brute_force_two_residues(gctx_admissible_pair):
    covers = gctx_admissible_pair.covers()
    assert covers and covers == brute_force_covers(gctx_admissible_pair)


def test_covers_match_brute_force_random_families():
    rng = random.Random(23)
    for _ in range(60):
        gctx = random_single_residue_context(rng)
        assert gctx.covers() == brute_force_covers(gctx), gctx.gamma
