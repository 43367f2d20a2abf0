"""The integer-keyed tableau degree against an independent oracle.

`fraction_degree` is the crossing count as first written, over exact
`Fraction` coordinates and all strand pairs; the production
`tableau_degree` must agree with it on every tableau.  The key-order tests
check the packing `node_key` relies on directly.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from chercomb import (
    ParamContext,
    addable_nodes,
    build_gamma_set,
    empty_multipartition,
    enumerate_sstd,
    mp,
    tableau_degree,
)
from chercomb.params import KEY_EPS_BOUND, ValidationError
from chercomb.partitions import Node
from chercomb.selfcheck import random_single_residue_context
from chercomb.tableaux import Tableau


def fraction_degree(tab: Tableau, ctx: ParamContext) -> int:
    """Signed crossing count of the minimal monotone diagram of the tableau."""
    strands = []
    for node in tab.shape.nodes():
        strands.append(
            (ctx.node_coord(node), ctx.node_coord(tab.image(node)), ctx.residue_of(node))
        )
    moving = [s for s in strands if s[0] != s[1]]
    vertical = [s for s in strands if s[0] == s[1]]
    if not moving:
        return 0
    g = ctx.g
    deg = 0

    # strand pairs of equal residue: -2 per crossing; pairs of verticals
    # are parallel and skipped
    for i, a in enumerate(moving):
        for b in moving[i + 1 :]:
            if a[2] == b[2] and _cross(a[0], a[1], b[0], b[1]):
                deg -= 2
        for b in vertical:
            if a[2] == b[2] and _cross(a[0], a[1], b[0], b[1]):
                deg -= 2

    # black strand x over ghost of y: +1 when res(y) = res(x) - 1; a strand
    # is parallel to its own ghost and to every other vertical's ghost
    def ghost_hits(x, y) -> bool:
        return ctx.residue(x[2] - 1) == y[2] and _cross(
            x[0], x[1], y[0].shift(-g), y[1].shift(-g)
        )

    for i, x in enumerate(moving):
        for j, y in enumerate(moving):
            if i != j and ghost_hits(x, y):
                deg += 1
        for y in vertical:
            if ghost_hits(x, y):
                deg += 1
    for x in vertical:
        for y in moving:
            if ghost_hits(x, y):
                deg += 1

    # black strand over a red line of its own residue: +1
    for a in moving:
        for k in range(1, ctx.level + 1):
            if a[2] != ctx.multicharge[k - 1]:
                continue
            red = ctx.red_line(k)
            if (a[0] < red) != (a[1] < red):
                deg += 1

    return deg


def _cross(s1, t1, s2, t2) -> bool:
    return (s1 < s2) != (t1 < t2)


def assert_family_matches(gctx):
    ctx = gctx.ctx
    count = 0
    for lam in gctx.elements:
        for mu in gctx.elements:
            for tab in enumerate_sstd(lam, mu, ctx, gctx):
                assert tableau_degree(tab, ctx) == fraction_degree(tab, ctx), tab
                count += 1
    return count


def test_degree_matches_oracle_on_flotw_family():
    ctx = ParamContext(3, [2, 1], ["0", "1"], "2")
    gamma = mp([7, 5, 3, 1, 1], [5, 5, 4, 2, 2, 1, 1])
    gctx = build_gamma_set(gamma, [0], {0: 2}, ctx)
    assert len(gctx) == 45
    assert assert_family_matches(gctx) > 45


@pytest.mark.parametrize("family", ["gctx_runner", "gctx_admissible_pair"])
def test_degree_matches_oracle_on_two_residue_families(family, request):
    """Strands of residues 1 and 3 move together: the runner family over an
    empty base, and a base whose pinned nodes carry every residue."""
    assert assert_family_matches(request.getfixturevalue(family)) == 270


def flotw_tableaux(ctx):
    gamma = mp([7, 5, 3, 1, 1], [5, 5, 4, 2, 2, 1, 1])
    gctx = build_gamma_set(gamma, [0], {0: 2}, ctx)
    return [tab for mu in gctx.elements for tab in enumerate_sstd(gctx.top, mu, ctx, gctx)]


def test_degree_same_with_shape_keys_memoized():
    """A degree does not depend on whether the shape's keys were listed
    before: each fresh context lists them in the call, the warm one once."""
    params = (3, [2, 1], ["0", "1"], "2")
    warm = ParamContext(*params)
    tabs = flotw_tableaux(warm)
    assert any(node != target for tab in tabs for node, target in tab.mapping.items())
    for tab in tabs:
        keys = warm.shape_keys(tab.shape)
        assert warm.shape_keys(tab.shape) is keys
        fresh = ParamContext(*params)
        assert tableau_degree(tab, fresh) == tableau_degree(tab, warm) == fraction_degree(tab, warm)


def test_shape_keys_memo_is_per_context():
    """Contexts that differ only in theta key the same shape apart."""
    a = ParamContext(3, [2, 1], ["0", "1"], "2")
    b = ParamContext(3, [2, 1], ["0", "3"], "2")
    tabs = flotw_tableaux(a)
    lam = tabs[0].shape
    assert a.shape_keys(lam) != b.shape_keys(lam)
    for ctx in (a, b):
        expected = {}
        for node in sorted(lam.nodes(), key=ctx.node_coord):
            expected.setdefault(ctx.residue_of(node), []).append(ctx.node_key(node))
        assert ctx.shape_keys(lam) == expected
        for tab in tabs:
            assert tableau_degree(tab, ctx) == fraction_degree(tab, ctx), tab


@pytest.mark.parametrize("seed", [7, 99, 20240])
def test_degree_matches_oracle_on_random_families(seed):
    rng = random.Random(seed)
    for _ in range(20):
        assert_family_matches(random_single_residue_context(rng))


def multipartitions_of(size, ctx):
    """Every multipartition of `size` with ctx.level components."""
    shapes = {empty_multipartition(ctx.level)}
    for _ in range(size):
        shapes = {lam.with_node(n) for lam in shapes for n in addable_nodes(lam, ctx)}
    return sorted(shapes, key=repr)


@pytest.mark.parametrize(
    "e, charges, theta, g",
    [
        (None, [0, 1, 0], ["0", "1/3", "4/5"], "3/2"),
        (None, [2, 0, 1], ["0", "2/7", "5/9"], "2/3"),
        (4, [0, 3, 1], ["0", "1/5", "7/3"], "5/4"),
    ],
    ids=["e_inf_a", "e_inf_b", "e4"],
)
def test_degree_matches_oracle_unrestricted(e, charges, theta, g):
    """Semistandard tableaux of the general enumerator, plus one random
    residue-preserving bijection per pair, semistandard or not."""
    ctx = ParamContext(e, charges, theta, g)
    rng = random.Random(5)
    shapes = multipartitions_of(4, ctx)
    for lam in shapes:
        for mu in shapes:
            for tab in enumerate_sstd(lam, mu, ctx):
                assert tableau_degree(tab, ctx) == fraction_degree(tab, ctx), tab
            targets = {}
            for node in mu.nodes():
                targets.setdefault(ctx.residue_of(node), []).append(node)
            mapping = {}
            for node in lam.nodes():
                pool = targets.get(ctx.residue_of(node))
                if not pool:
                    break
                mapping[node] = pool.pop(rng.randrange(len(pool)))
            else:
                tab = Tableau(lam, mu, mapping)
                assert tableau_degree(tab, ctx) == fraction_degree(tab, ctx), tab


@st.composite
def keyed_contexts(draw):
    level = draw(st.integers(min_value=1, max_value=3))
    e = draw(st.sampled_from([3, 4, 5, None]))
    charges = [draw(st.integers(min_value=0, max_value=6)) for _ in range(level)]
    theta = [Fraction(draw(st.integers(-40, 40)), draw(st.integers(1, 9))) for _ in range(level)]
    g = Fraction(draw(st.integers(1, 12)), draw(st.integers(1, 7)))
    try:
        return ParamContext(e, charges, theta, g)
    except ValidationError:
        return ParamContext(e, charges[:1], theta[:1], g)


@st.composite
def nodes(draw, level):
    return Node(
        draw(st.integers(1, 60)), draw(st.integers(1, 60)), draw(st.integers(1, level))
    )


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_node_key_order_matches_coord_order(data):
    ctx = data.draw(keyed_contexts())
    a = data.draw(nodes(ctx.level))
    b = data.draw(nodes(ctx.level))
    ka, kb = ctx.node_key(a), ctx.node_key(b)
    ca, cb = ctx.node_coord(a), ctx.node_coord(b)
    assert (ka < kb) == (ca < cb) and (ka == kb) == (ca == cb)
    ghost = ca.shift(-ctx.g)
    assert (ka - ctx.ghost_shift < kb) == (ghost < cb)
    assert (ka - ctx.ghost_shift == kb) == (ghost == cb)
    for k in range(1, ctx.level + 1):
        red = ctx.theta[k - 1] * ctx.key_scale * KEY_EPS_BOUND
        assert red in ctx.red_keys[ctx.multicharge[k - 1]]
        assert (ka < red) == (ca < ctx.red_line(k))


def test_node_key_rejects_eps_at_bound():
    ctx = ParamContext(3, [0], ["0"], "1")
    assert ctx.node_key(Node(KEY_EPS_BOUND - 2, 1)) % KEY_EPS_BOUND == KEY_EPS_BOUND - 1
    big = Node(KEY_EPS_BOUND - 1, 1)
    with pytest.raises(ValidationError, match=r"node \(1048575,1,1\)"):
        ctx.node_key(big)
