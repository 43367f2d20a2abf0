import random
from itertools import accumulate, product
from math import prod

import pytest

from chercomb import (
    LaurentPoly,
    ParamContext,
    UnbalancedDecoration,
    addable_nodes,
    build_gamma_set,
    decorate,
    empty_multipartition,
    filled_edges,
    latticed_paths,
    mp,
    nested_decomposition_number,
    slot_word,
    terrain_of,
    well_nested_families,
)
from chercomb.gamma import strip_residues
from chercomb.selfcheck import random_single_residue_context
from chercomb.terrain import root_codes

from conftest import comparable_pairs


def directions(terrain):
    _, word = terrain
    return "".join("/" if s > 0 else "v" for s in word)


def test_terrain_examples(ctx_level10, decoration_pair):
    ctx6 = ParamContext(4, [1] * 6, [f"{78 * k}/11" for k in range(6)], "1")
    nu = mp([1], [1], [], [], [], [1])
    assert directions(terrain_of(nu, 1, ctx6)) == "//vvv/"
    mu, _ = decoration_pair
    assert directions(terrain_of(mu, 1, ctx_level10)) == "//vv/v/v//"
    empty_ctx = ParamContext(4, [2], ["0"], "1")
    assert directions(terrain_of(empty_multipartition(1), 2, empty_ctx)) == "v"


@pytest.mark.parametrize(
    "e, charges, theta, g, residues",
    [
        (3, [0], ["0"], "1", range(3)),
        (4, [0, 1], ["0", "1/2"], "1", range(4)),
        (None, [0, 2], ["0", "1/3"], "1", range(-3, 5)),
        (3, [2, 1], ["0", "1"], "2", range(3)),
    ],
    ids=["e3", "e4", "e_inf", "flotw"],
)
def test_terrain_nodes_and_filled_edges_exhaustive(e, charges, theta, g, residues):
    """Up to size 4: the terrain is the addable nodes of mu's residue-r
    core, up exactly on mu's nodes, and filled_edges accepts an equal-size
    pair exactly when the two share that core.  Every node an accepted pair
    moves is then an edge, so the residue and size checks are the whole of
    its validation."""
    ctx = ParamContext(e, charges, theta, g)
    by_size = [[empty_multipartition(ctx.level)]]
    for _ in range(4):
        grown = {lam.with_node(n) for lam in by_size[-1] for n in addable_nodes(lam, ctx)}
        by_size.append(list(grown))
    for r in residues:
        for shapes in by_size:
            core = {lam: strip_residues(lam, [r], ctx) for lam in shapes}
            for mu in shapes:
                nodes, word = terrain_of(mu, r, ctx)
                assert nodes == addable_nodes(core[mu], ctx, [r])
                up = {n for n, s in zip(nodes, word) if s > 0}
                assert up == set(mu.diagram_difference(core[mu]))
                for lam in shapes:
                    try:
                        filled_edges(nodes, mu, lam, r, ctx)
                        accepted = True
                    except UnbalancedDecoration:
                        accepted = False
                    assert accepted == (core[lam] == core[mu]), (r, mu, lam)
                    if accepted:
                        moved = lam.diagram_difference(mu) + mu.diagram_difference(lam)
                        assert set(moved) <= set(nodes), (r, mu, lam)


def test_decoration_figure(ctx_level10, decoration_pair, node_decorate):
    mu, lam = decoration_pair
    dt = node_decorate(mu, lam, 1, ctx_level10)
    assert dt.opens == (3, 4, 6)
    assert dt.closes == (5, 9, 10)
    assert dt.pairs == ((4, 5), (6, 9), (3, 10))


def test_decoration_trivial(ctx_level10, decoration_pair, node_decorate):
    mu, _ = decoration_pair
    dt = node_decorate(mu, mu, 1, ctx_level10)
    assert dt.pairs == ()
    fams = well_nested_families(dt)
    assert len(fams) == 1 and fams[0].norm == 0


def test_decorate_rejects_filled_edge_outside_word():
    with pytest.raises(UnbalancedDecoration, match=r"filled edges \[7\]"):
        decorate((-1, 1), {1, 7})


def test_decorate_rejects_step_other_than_unit():
    with pytest.raises(UnbalancedDecoration, match="step 2 at edge 2"):
        decorate((-1, 2), {1})


def test_root_codes_cut_at_outermost_pairs():
    # mu fills slots 3, 4 and 6, lam fills 1, 2 and 5
    dt = decorate((-1, -1, 1, 1, -1, 1), {1, 2, 5})
    assert dt.pairs == ((2, 3), (1, 4), (5, 6))
    assert list(root_codes(bytes([2, 2, 1, 1, 2, 1]))) == [bytes([2, 2, 1, 1]), bytes([2, 1])]
    # slots both fill (3) or neither fills (0) lie inside or between roots
    code = bytes([0, 2, 3, 1, 0, 3, 2, 0, 2, 1, 1, 3])
    assert list(root_codes(code)) == [bytes([2, 3, 1]), bytes([2, 0, 2, 1, 1])]


def outermost_pairs(dt):
    """The decoration's pairs that no other pair contains, left to right."""
    return sorted(p for p in dt.pairs if not any(o[0] < p[0] and p[1] < o[1] for o in dt.pairs))


def pairs_within(dt, lo, hi):
    """The decoration's pairs inside the stretch lo..hi, re-based to start at 1."""
    return tuple((a - lo + 1, b - lo + 1) for a, b in dt.pairs if lo <= a and b <= hi)


def test_root_codes_match_outermost_pairs(gctx_flotw_bipartition):
    """On every comparable pair the code cut gives the stretches of the
    decoration's outermost pairs, and each root's code decorates to the
    pairs inside it, re-based."""
    gctx = gctx_flotw_bipartition
    split = 0
    for lam, mu in comparable_pairs(gctx):
        word, filled = slot_word(mu, gctx), gctx.added_positions(lam)[0]
        dt = decorate(word, filled)
        code = bytes((s == 1) + 2 * (j in filled) for j, s in enumerate(word, start=1))
        roots = list(root_codes(code))
        outer = outermost_pairs(dt)
        assert roots == [code[lo - 1 : hi] for lo, hi in outer], (lam, mu)
        for root, (lo, hi) in zip(roots, outer):
            inside = decorate(
                tuple(1 if c & 1 else -1 for c in root), {j for j, c in enumerate(root, start=1) if c & 2}
            )
            assert inside.steps == word[lo - 1 : hi]
            assert inside.pairs == pairs_within(dt, lo, hi)
        split += len(roots) > 1
    assert split > 0


def test_decoration_reversed_raises(ctx_level10, decoration_pair, node_decorate):
    mu, lam = decoration_pair
    with pytest.raises(UnbalancedDecoration):
        node_decorate(lam, mu, 1, ctx_level10)


def test_latticed_paths_figure(ctx_level10, decoration_pair, node_decorate):
    mu, lam = decoration_pair
    dt = node_decorate(mu, lam, 1, ctx_level10)
    by_pair = {p: latticed_paths(dt, p) for p in dt.pairs}
    assert [q.norm for q in by_pair[(4, 5)]] == [1]
    assert sorted(q.norm for q in by_pair[(6, 9)]) == [1, 3]
    assert sorted(q.norm for q in by_pair[(3, 10)]) == [3, 5, 5, 7]


def test_well_nested_families_figure(ctx_level10, decoration_pair, node_decorate):
    mu, lam = decoration_pair
    dt = node_decorate(mu, lam, 1, ctx_level10)
    assert prod(len(latticed_paths(dt, p)) for p in dt.pairs) == 8
    fams = well_nested_families(dt)
    assert len(fams) == 6
    coeffs = {}
    for f in fams:
        coeffs[f.norm] = coeffs.get(f.norm, 0) + 1
    assert LaurentPoly(coeffs) == LaurentPoly({11: 1, 9: 2, 7: 2, 5: 1})


def test_cascaded_flattening(node_decorate):
    # two common added nodes between the pair give U,U,D,D inside it:
    # flattening the inner ridge exposes a wider generalized ridge
    ctx = ParamContext(3, [0], ["0"], "1")
    gamma = mp([10, 8, 6, 4, 2])  # staircase: six addable 1-slots
    gctx = build_gamma_set(gamma, [1], {1: 3}, ctx)
    slots = gctx.addable[1]
    lam = gamma.with_nodes([slots[0], slots[1], slots[2]])
    mu = gamma.with_nodes([slots[1], slots[2], slots[5]])
    dt = node_decorate(mu, lam, 1, ctx)
    assert dt.pairs == ((1, 6),)
    paths = latticed_paths(dt, (1, 6))
    assert sorted(p.norm for p in paths) == [1, 3, 5]
    assert nested_decomposition_number(lam, mu, gctx).value == LaurentPoly({1: 1, 3: 1, 5: 1})


def test_nested_identity(gctx_hook):
    lam = gctx_hook.elements[0]
    assert nested_decomposition_number(lam, lam, gctx_hook).value == LaurentPoly.one()


def test_nested_zero_when_not_dominated(gctx_hook):
    top, bottom = gctx_hook.top, gctx_hook.bottom
    assert nested_decomposition_number(bottom, top, gctx_hook).value == LaurentPoly.zero()


def test_nested_hook_family(gctx_hook):
    top, mid, bottom = gctx_hook.elements
    assert nested_decomposition_number(top, mid, gctx_hook).value == LaurentPoly({1: 1})
    assert nested_decomposition_number(top, bottom, gctx_hook).value == LaurentPoly({2: 1})
    assert nested_decomposition_number(mid, bottom, gctx_hook).value == LaurentPoly({1: 1})


def test_nested_level_one_big():
    ctx = ParamContext(3, [0], ["0"], "1")
    lam = mp([10, 10, 9, 9, 8, 8, 7, 7, 6, 5, 5, 5, 4, 4, 3, 2, 2, 1, 1])
    mu = mp([10, 10, 9, 9, 8, 7, 7, 6, 6, 6, 5, 4, 4, 4, 3, 2, 2, 2, 1, 1])
    from chercomb import gamma_context_for_pair

    gctx = gamma_context_for_pair(lam, mu, 2, ctx)
    value = nested_decomposition_number(lam, mu, gctx).value
    assert value == LaurentPoly({11: 1, 9: 2, 7: 2, 5: 1})


def test_nested_flotw_bipartition(gctx_flotw_bipartition, node_decorate):
    # the bracketed terrain here is D,D,D,U,U,D,U,U,U,U with pairs
    # {(2,5),(6,7),(1,8)}; the ridge (5,6) inside (1,8) flattens, so the
    # norm-11 generic family has a norm-9 companion (see the ledger note on
    # acceptance criterion 5b)
    gctx = gctx_flotw_bipartition
    lam = mp([8, 5, 3, 1, 1, 1], [6, 5, 5, 3, 2, 1, 1, 1])
    mu = mp([7, 5, 4, 2, 1, 1], [5, 5, 5, 2, 2, 2, 1, 1])
    dt = node_decorate(mu, lam, 0, gctx.ctx)
    assert dt.pairs == ((2, 5), (6, 7), (1, 8))
    value = nested_decomposition_number(lam, mu, gctx).value
    assert value == LaurentPoly({9: 1, 11: 1})


def test_field_validity_flag(gctx_hook, gctx_runner):
    lam, mu = gctx_hook.top, gctx_hook.bottom
    assert nested_decomposition_number(lam, mu, gctx_hook).valid_any_field
    ctx = ParamContext(5, [0, 0], ["0", "1/2"], "1")
    gamma = mp([10, 8, 7, 5, 5, 5, 3, 3, 3], [5, 4, 3, 3, 3, 3, 3, 2, 1, 1])
    gctx = build_gamma_set(gamma, [0], {0: 3}, ctx)
    res = nested_decomposition_number(gctx.top, gctx.bottom, gctx)
    assert res.valid_any_field is False  # the residue occurs twice in the multicharge
    # several residues added: the paper states no rule, so there is no flag
    res = nested_decomposition_number(gctx_runner.top, gctx_runner.bottom, gctx_runner)
    assert res.valid_any_field is None


def test_paths_match_generic_outside_pair(ctx_level10, decoration_pair, node_decorate):
    mu, lam = decoration_pair
    dt = node_decorate(mu, lam, 1, ctx_level10)
    generic = dt.steps
    for pair in dt.pairs:
        lo, hi = pair
        for path in latticed_paths(dt, pair):
            for j, step in enumerate(path.steps, start=1):
                if j <= lo or j >= hi:
                    assert step == generic[j - 1]
                assert step in (generic[j - 1], 0)


def test_norm_bounds_and_generic_norm(ctx_level10, decoration_pair, node_decorate):
    mu, lam = decoration_pair
    dt = node_decorate(mu, lam, 1, ctx_level10)
    generic_norm = sum(p[1] - p[0] for p in dt.pairs)
    fams = well_nested_families(dt)
    assert max(f.norm for f in fams) == generic_norm
    for pair in dt.pairs:
        inner = pair[1] - pair[0] - 1
        for path in latticed_paths(dt, pair):
            assert 1 <= path.norm <= inner + 1


def assert_slot_decoration_matches(gctx, node_decorate):
    """Every comparable pair decorates the same from the slot word as from
    coordinates, and every reversed strict pair fails both ways."""
    r = gctx.residue
    pairs = comparable_pairs(gctx)
    for lam, mu in pairs:
        by_slots = decorate(slot_word(mu, gctx), gctx.added_positions(lam)[r])
        by_nodes = node_decorate(mu, lam, r, gctx.ctx)
        assert by_slots == by_nodes, (lam, mu)
        if lam != mu:
            with pytest.raises(UnbalancedDecoration):
                decorate(slot_word(lam, gctx), gctx.added_positions(mu)[r])
            with pytest.raises(UnbalancedDecoration):
                node_decorate(lam, mu, r, gctx.ctx)
    return len(pairs)


def test_slot_decoration_matches_coordinates_on_flotw_family(gctx_flotw_bipartition, node_decorate):
    base = gctx_flotw_bipartition
    gctx = build_gamma_set(base.gamma, [0], {0: 2}, base.ctx)
    assert len(gctx) == 45
    assert assert_slot_decoration_matches(gctx, node_decorate) > 45


@pytest.mark.parametrize("seed", [7, 99, 20240])
def test_slot_decoration_matches_coordinates_on_random_families(seed, node_decorate):
    rng = random.Random(seed)
    for _ in range(40):
        assert_slot_decoration_matches(random_single_residue_context(rng), node_decorate)


def path_norm(path):
    """1 plus the nonzero steps on the edges strictly inside the path's
    pair, read off its steps."""
    lo, hi = path.pair
    return 1 + sum(1 for edge in range(lo + 1, hi) if path.steps[edge - 1] != 0)


def brute_force_families(dt):
    """Every choice of one latticed path per pair, kept when each path rides
    weakly above the path of every pair strictly containing its own, as
    (norm from the steps, paths) in the engine's order."""
    pairs = dt.pairs
    containing = [
        (i, j)
        for i, (lo, hi) in enumerate(pairs)
        for j, (outer_lo, outer_hi) in enumerate(pairs)
        if outer_lo < lo and hi < outer_hi
    ]

    def heights(path):
        return (0, *accumulate(path.steps))

    kept = [
        (sum(path_norm(p) for p in choice), choice)
        for choice in product(*(latticed_paths(dt, p) for p in pairs))
        if all(
            all(x >= y for x, y in zip(heights(choice[i]), heights(choice[j])))
            for i, j in containing
        )
    ]
    kept.sort(key=lambda k: (-k[0], tuple(p.steps for p in k[1])))
    return kept


def nested_families(dt):
    """The engine's well-nested families as (stored norm, paths)."""
    return [(f.norm, f.paths) for f in well_nested_families(dt)]


def assert_families_match_brute_force(gctx):
    r = gctx.residue
    nested = 0
    for lam, mu in comparable_pairs(gctx):
        dt = decorate(slot_word(mu, gctx), gctx.added_positions(lam)[r])
        assert nested_families(dt) == brute_force_families(dt), (lam, mu)
        nested += any(o[0] < i[0] and i[1] < o[1] for i in dt.pairs for o in dt.pairs)
    return nested


def test_well_nested_families_match_brute_force_flotw_family(gctx_flotw_bipartition):
    base = gctx_flotw_bipartition
    gctx = build_gamma_set(base.gamma, [0], {0: 2}, base.ctx)
    assert assert_families_match_brute_force(gctx) > 0


def test_well_nested_families_match_brute_force_three_deep(gctx_flotw_bipartition):
    # four added nodes: the smaller inputs never nest three pairs deep around
    # a ridge, so checking against the wrong enclosing pair would pass there
    base = gctx_flotw_bipartition
    gctx = build_gamma_set(base.gamma, [0], {0: 4}, base.ctx)
    deep = 0
    for lam, mu in comparable_pairs(gctx):
        dt = decorate(slot_word(mu, gctx), gctx.added_positions(lam)[0])
        if max((sum(o[0] <= p[0] and p[1] <= o[1] for o in dt.pairs) for p in dt.pairs), default=0) >= 3:
            deep += 1
            assert nested_families(dt) == brute_force_families(dt), (lam, mu)
    assert deep > 1000


def test_well_nested_families_match_brute_force_random_families():
    rng = random.Random(41)
    nested = sum(assert_families_match_brute_force(random_single_residue_context(rng)) for _ in range(40))
    assert nested > 0


def test_well_nested_families_match_brute_force_figure(ctx_level10, decoration_pair, node_decorate):
    dt = node_decorate(*decoration_pair, 1, ctx_level10)
    assert dt.pairs == ((4, 5), (6, 9), (3, 10))
    assert nested_families(dt) == brute_force_families(dt)


def assert_stored_norms(gctx):
    """Every stored path norm is 1 plus its nonzero steps strictly inside
    its pair, and every family norm is the sum over its paths.  Returns the
    number of flattened paths seen."""
    r = gctx.residue
    flattened = 0
    for lam, mu in comparable_pairs(gctx):
        dt = decorate(slot_word(mu, gctx), gctx.added_positions(lam)[r])
        for pair in dt.pairs:
            for path in latticed_paths(dt, pair):
                assert path.norm == path_norm(path), (lam, mu, path)
                flattened += 0 in path.steps
        for fam in well_nested_families(dt):
            assert fam.norm == sum(path_norm(p) for p in fam.paths), (lam, mu, fam)
    return flattened


def test_stored_norms_flotw_family(gctx_flotw_bipartition):
    base = gctx_flotw_bipartition
    gctx = build_gamma_set(base.gamma, [0], {0: 2}, base.ctx)
    assert assert_stored_norms(gctx) > 0


def test_stored_norms_random_families():
    rng = random.Random(99)
    assert sum(assert_stored_norms(random_single_residue_context(rng)) for _ in range(40)) > 0


def assert_product_over_roots(gctx):
    """On every comparable pair, the engine's product over outermost pairs
    equals the norm generating function of the whole decoration's
    well-nested families, enumerated at once.  Returns the number of pairs
    with more than one outermost pair."""
    split = 0
    for lam, mu in comparable_pairs(gctx):
        if lam == mu:
            continue
        dt = decorate(slot_word(mu, gctx), gctx.added_positions(lam)[gctx.residue])
        coeffs = {}
        for fam in well_nested_families(dt):
            coeffs[fam.norm] = coeffs.get(fam.norm, 0) + 1
        assert nested_decomposition_number(lam, mu, gctx).value == LaurentPoly(coeffs), (lam, mu)
        split += len(outermost_pairs(dt)) > 1
    return split


def staircase_context(m, k):
    """S(m, k): e=3, level 1, gamma = (2m, 2m-2, ..., 2) with its m+1
    addable nodes of residue 2m mod 3, k of them filled."""
    ctx = ParamContext(3, [0], ["0"], "1")
    r = 2 * m % 3
    return build_gamma_set(mp([2 * (m - i) for i in range(m)]), [r], {r: k}, ctx)


def test_product_over_roots_flotw_family(gctx_flotw_bipartition):
    assert len(gctx_flotw_bipartition) == 210
    assert assert_product_over_roots(gctx_flotw_bipartition) > 0


def test_product_over_roots_staircase():
    gctx = staircase_context(9, 5)
    assert len(gctx) == 252
    assert assert_product_over_roots(gctx) > 0


def test_product_over_roots_random_families():
    rng = random.Random(2024)
    assert sum(assert_product_over_roots(random_single_residue_context(rng)) for _ in range(40)) > 0


def test_segment_memo_is_order_free(gctx_flotw_bipartition):
    """Two fresh contexts, one filled along the pairs and one against them,
    give the same numbers and end with the same memo."""
    base = gctx_flotw_bipartition
    forward, backward = (build_gamma_set(base.gamma, [0], {0: 6}, base.ctx) for _ in range(2))
    pairs = comparable_pairs(forward)
    want = {(lam, mu): nested_decomposition_number(lam, mu, forward).value for lam, mu in pairs}
    got = {
        (lam, mu): nested_decomposition_number(lam, mu, backward).value
        for lam, mu in reversed(pairs)
    }
    assert got == want
    assert backward.segment_norms == forward.segment_norms


def test_segment_memo_holds_each_distinct_root_once(gctx_flotw_bipartition):
    """After the whole FLOTW matrix the memo holds one entry per distinct
    root: as many as the distinct (segment word, re-based pairs) keys the
    decorations cut into."""
    base = gctx_flotw_bipartition
    gctx = build_gamma_set(base.gamma, [0], {0: 6}, base.ctx)
    segments = set()
    for lam, mu in comparable_pairs(gctx):
        nested_decomposition_number(lam, mu, gctx)
        dt = decorate(slot_word(mu, gctx), gctx.added_positions(lam)[0])
        segments.update((dt.steps[lo - 1 : hi], pairs_within(dt, lo, hi)) for lo, hi in outermost_pairs(dt))
    assert len(gctx.segment_norms) == len(segments) == 2342
