import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from chercomb import (
    EngineDisagreement,
    LaurentPoly,
    NonSaturatedPoset,
    ParamContext,
    PositivityViolation,
    addable_nodes,
    build_gamma_set,
    decomp_number,
    empty_multipartition,
    family_entries,
    gamma_peel_matrix,
    interval_peel_matrix,
    mp,
    peel_matrix,
    verify_reassembly,
)
from chercomb.gamma import strip_residues
from chercomb.peeling import gamma_characters
from chercomb.selfcheck import random_single_residue_context

from conftest import comparable_pairs


def test_single_element_matrix(ctx_e5):
    gctx = build_gamma_set(mp([2, 1]), [0], {}, ctx_e5)
    matrix = gamma_peel_matrix(gctx)
    assert matrix.entry(gctx.gamma, gctx.gamma) == LaurentPoly.one()
    assert len(matrix.order) == 1


def test_hook_family_matrix(gctx_hook):
    matrix = gamma_peel_matrix(gctx_hook)
    top, mid, bottom = gctx_hook.elements
    t = LaurentPoly({1: 1})
    assert matrix.entry(top, mid) == t
    assert matrix.entry(mid, bottom) == t
    assert matrix.entry(top, bottom) == LaurentPoly({2: 1})
    for lam in gctx_hook.elements:
        assert matrix.entry(lam, lam) == LaurentPoly.one()
        assert matrix.simple_character(lam, lam) == LaurentPoly.one()
    verify_reassembly(matrix, gctx_hook.leq, gamma_characters(gctx_hook))


def test_reassembly_admissible_pair(gctx_admissible_pair):
    matrix = gamma_peel_matrix(gctx_admissible_pair)
    verify_reassembly(matrix, gctx_admissible_pair.leq, gamma_characters(gctx_admissible_pair))


def test_cref_entry():
    ctx = ParamContext(5, [1], ["0"], "1")
    gamma = mp([14, 12, 11, 9, 8, 5, 5, 3, 2, 1, 1])
    gctx = build_gamma_set(gamma, [0], {0: 3}, ctx)
    lam = mp([15, 12, 12, 9, 8, 5, 5, 3, 3, 1, 1])
    mu = mp([14, 12, 11, 9, 9, 5, 5, 3, 3, 1, 1, 1])
    matrix = gamma_peel_matrix(gctx)
    assert matrix.entry(lam, mu) == LaurentPoly({5: 1})
    res = decomp_number(lam, mu, gctx, engine="both")
    assert res.value == LaurentPoly({5: 1}) and res.agree


def test_interval_matches_full(gctx_hook):
    full = gamma_peel_matrix(gctx_hook)
    for lam in gctx_hook.elements:
        for mu in gctx_hook.elements:
            if gctx_hook.leq(mu, lam):
                part = interval_peel_matrix(lam, mu, gctx_hook)
                assert part.entry(lam, mu) == full.entry(lam, mu)


def test_decomp_number_engines(gctx_hook):
    top, mid, bottom = gctx_hook.elements
    res = decomp_number(top, bottom, gctx_hook, engine="both")
    assert res.agree and res.value == LaurentPoly({2: 1})
    assert decomp_number(top, top, gctx_hook).value == LaurentPoly.one()
    nested_only = decomp_number(top, mid, gctx_hook, engine="nested")
    peel_only = decomp_number(top, mid, gctx_hook, engine="kn")
    assert nested_only.value == peel_only.value == LaurentPoly({1: 1})


def test_nonsaturated_poset_detected():
    order = ["a", "b"]

    def leq(x, y):
        return x == y  # claim incomparability while a character is nonzero

    def characters(x, y):
        if x == y:
            return LaurentPoly.one()
        if (x, y) == ("a", "b"):
            return LaurentPoly({1: 1})
        return LaurentPoly.zero()

    with pytest.raises(NonSaturatedPoset):
        peel_matrix(order, lambda m, l: leq(l, m) or (m, l) == ("a", "b"), characters)


def test_positivity_violation_propagates():
    order = ["a", "b"]

    def leq(mu, lam):
        return mu == lam or (lam, mu) == ("a", "b")

    def characters(lam, mu):
        if lam == mu:
            return LaurentPoly.one()
        if (lam, mu) == ("a", "b"):
            return LaurentPoly({-1: 2})  # mirror exceeds positive side
        return LaurentPoly.zero()

    with pytest.raises(PositivityViolation):
        peel_matrix(order, leq, characters)


def test_engine_disagreement_is_not_silent(gctx_hook, monkeypatch):
    import chercomb.peeling as peeling

    top, _, bottom = gctx_hook.elements

    def fake_nested(lam, mu, gctx):
        from chercomb.terrain import NestedResult

        return NestedResult(LaurentPoly({7: 1}), True)

    monkeypatch.setattr(peeling, "nested_decomposition_number", fake_nested)
    with pytest.raises(EngineDisagreement):
        peeling.decomp_number(top, bottom, gctx_hook, engine="both")
    with pytest.raises(EngineDisagreement):
        peeling.family_entries(gctx_hook, "both")


def test_family_entries_engines(gctx_hook):
    kn = family_entries(gctx_hook, "kn")
    assert family_entries(gctx_hook, "nested") == kn == family_entries(gctx_hook, "both")
    a, b, c = gctx_hook.elements
    t = LaurentPoly.monomial
    assert kn == {(a, a): t(0), (b, b): t(0), (c, c): t(0), (a, b): t(1), (b, c): t(1), (a, c): t(2)}
    with pytest.raises(ValueError, match="unknown engine"):
        family_entries(gctx_hook, "lattice")


def test_engines_list_entries_in_one_order(gctx_hook, gctx_runner):
    # every engine lists its entries lam-major along the family order, the
    # order `decomp --matrix` writes its rows in
    rng = random.Random(2525)
    families = [gctx_hook, gctx_runner] + [random_single_residue_context(rng) for _ in range(40)]
    for gctx in families:
        kn = list(family_entries(gctx, "kn").items())
        assert list(family_entries(gctx, "nested").items()) == kn, gctx.gamma
        assert list(family_entries(gctx, "both").items()) == kn, gctx.gamma


@pytest.mark.parametrize("engine", ["kn", "nested", "both"])
def test_family_entries_nonzero_exactly_on_comparable_pairs(request, engine):
    # family_entries reads every pair with mu at or after lam and keeps the
    # nonzero entries: the engines decide dominance, so the kept pairs are
    # the leq scan's, in its order
    rng = random.Random(4126)
    families = [request.getfixturevalue(f) for f in ("gctx_hook", "gctx_runner", "gctx_admissible_pair")]
    families += [random_single_residue_context(rng) for _ in range(40)]
    for gctx in families:
        assert list(family_entries(gctx, engine)) == comparable_pairs(gctx), gctx.gamma


def test_family_entries_share_equal_values(gctx_flotw_bipartition, gctx_hook):
    entries = family_entries(gctx_flotw_bipartition, "nested")
    assert len(entries) == 13860
    assert len({id(v) for v in entries.values()}) == len(set(entries.values())) == 169
    kn = family_entries(gctx_hook, "kn")
    assert len({id(v) for v in kn.values()}) == len(set(kn.values())) == 3


def _linear_extension(gctx, pick):
    """A linear extension of the family's dominance order that takes
    maximal[pick] among the maximal members left at each step."""
    rest = list(gctx.elements)
    order = []
    while rest:
        maximal = [x for x in rest if not any(y != x and gctx.leq(x, y) for y in rest)]
        order.append(maximal[pick])
        rest.remove(maximal[pick])
    return order


@pytest.mark.parametrize("family", ["gctx_hook", "gctx_admissible_pair", "gctx_runner"])
def test_peel_independent_of_linear_extension(request, family):
    gctx = request.getfixturevalue(family)
    first, last = _linear_extension(gctx, 0), _linear_extension(gctx, -1)
    chain = all(gctx.leq(x, y) or gctx.leq(y, x) for x in gctx.elements for y in gctx.elements)
    assert (first == last) == chain
    known: dict = {}
    real = gamma_characters(gctx)

    def characters(lam, mu):
        if (lam, mu) not in known:
            known[(lam, mu)] = real(lam, mu)
        return known[(lam, mu)]

    a = peel_matrix(first, gctx.leq, characters)
    b = peel_matrix(last, gctx.leq, characters)
    assert a.d == b.d and a.simple == b.simple


def test_peel_asks_each_pair_once(gctx_admissible_pair):
    gctx = gctx_admissible_pair
    asked = Counter()
    real = gamma_characters(gctx)

    def characters(lam, mu):
        asked[(lam, mu)] += 1
        return real(lam, mu)

    peel_matrix(gctx.elements, gctx.leq, characters)
    elements = gctx.elements
    assert asked == Counter({(lam, mu): 1 for lam in elements for mu in elements if lam != mu})


def random_two_residue_context(rng):
    """Draw a family of at most 40 members adding nodes of two non-adjacent
    residues, each with two to five slots, over a random base."""
    while True:
        e = rng.choice([4, 5, 6, None])
        level = rng.randint(1, 3)
        multicharge = [rng.randrange(e or 7) for _ in range(level)]
        g = Fraction(rng.choice([1, 2, 3]), rng.choice([1, 2]))
        if rng.random() < 0.5:
            theta = [(20 * g + Fraction(1, 3)) * k for k in range(level)]  # well-separated
        else:
            theta = [Fraction(k, level + 1) * g for k in range(level)]  # FLOTW-style
        try:
            ctx = ParamContext(e, multicharge, theta, g)
        except ValueError:
            continue
        comps = [sorted((rng.randint(1, 5) for _ in range(rng.randint(0, 4))), reverse=True) for _ in range(level)]
        base = mp(*comps)
        present = sorted({ctx.residue_of(node) for node in addable_nodes(base, ctx)})
        apart = [(a, b) for a, b in combinations(present, 2) if not ctx.residues_adjacent(a, b)]
        if not apart:
            continue
        residues = rng.choice(apart)
        base = strip_residues(base, residues, ctx)
        slots = {r: len(addable_nodes(base, ctx, [r])) for r in residues}
        if all(2 <= a <= 5 for a in slots.values()):
            # a residue filling all its slots or none would leave one factor trivial
            multiset = {r: rng.randint(1, a - 1) for r, a in slots.items()}
            gctx = build_gamma_set(base, residues, multiset, ctx)
            if len(gctx) <= 40:
                return gctx


def mixed_entries(entries) -> int:
    """How many entries are not a single power of t."""
    return sum(list(value.coeffs.values()) != [1] for value in entries.values())


def test_engines_agree_on_random_two_residue_families():
    rng = random.Random(404)
    pairs = mixed = 0
    for _ in range(40):
        gctx = random_two_residue_context(rng)
        assert len(gctx.multiset) == 2
        nested = family_entries(gctx, "nested")
        assert nested == family_entries(gctx, "kn"), gctx.gamma
        pairs += len(nested) - len(gctx)
        mixed += mixed_entries(nested)
    assert pairs > 1000 and mixed > 100


def test_engines_agree_on_level10_two_residue_family():
    """e=5, charges (0, 2) five times over an empty base: five slots of
    each residue, three 0-nodes and two 2-nodes added."""
    ctx = ParamContext(5, [0, 2] * 5, [f"{j}/11" for j in range(10)], "1")
    gctx = build_gamma_set(empty_multipartition(10), [0, 2], {0: 3, 2: 2}, ctx)
    assert len(gctx) == 100
    nested = family_entries(gctx, "nested")
    assert nested == family_entries(gctx, "kn")
    assert len(nested) == 2500 and mixed_entries(nested) == 475
