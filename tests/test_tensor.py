from collections import Counter

import pytest

from chercomb import (
    LaurentPoly,
    ParamContext,
    build_gamma_set,
    enumerate_sstd,
    factor_check,
    factor_context,
    mp,
    nested_decomposition_number,
    psi_inverse,
    psi_multipartition,
    psi_tableau,
)
from chercomb import tensor

from conftest import comparable_pairs


def test_single_residue_factor_is_trivial(gctx_hook):
    fctx = factor_context(gctx_hook)
    assert fctx.active_residues == [0]
    report = factor_check(fctx)
    assert report.ok


def test_runner_factorization(gctx_runner):
    fctx = factor_context(gctx_runner)
    assert len(fctx.children[1]) * len(fctx.children[3]) == len(gctx_runner)
    report = factor_check(fctx)
    assert report.ok, report.failure
    assert report.pairs_checked == 400


@pytest.mark.parametrize("family", ["gctx_runner", "gctx_admissible_pair"])
def test_nested_is_product_over_residues(family, request):
    """Each closed-formula entry of a two-residue family is the product of
    the closed-formula entries of its single-residue factors, each a
    separate context with its own codes and memo."""
    gctx = request.getfixturevalue(family)
    fctx = factor_context(gctx)
    parts = {lam: psi_multipartition(lam, fctx) for lam in gctx.elements}
    nonzero = 0
    for lam in gctx.elements:
        for mu in gctx.elements:
            value = nested_decomposition_number(lam, mu, gctx).value
            product = LaurentPoly.one()
            for r, child in fctx.children.items():
                product = product * nested_decomposition_number(parts[lam][r], parts[mu][r], child).value
            assert value == product, (lam, mu)
            nonzero += bool(value)
    assert nonzero == len(comparable_pairs(gctx))


def test_runner_character_product(gctx_runner):
    ctx = gctx_runner.ctx
    fctx = factor_context(gctx_runner)
    lam = mp([1], [1], [], [1], [1], [], [])
    mu = mp([], [], [1], [], [1], [1], [1])
    parts_l = psi_multipartition(lam, fctx)
    parts_m = psi_multipartition(mu, fctx)
    product = LaurentPoly.one()
    for r in fctx.active_residues:
        from chercomb import delta_character

        product = product * delta_character(
            parts_l[r], parts_m[r], ctx, gctx=fctx.children[r]
        )
    assert product == LaurentPoly({2: 1, 4: 1})


def test_psi_round_trip(gctx_runner, gctx_admissible_pair):
    for gctx in (gctx_runner, gctx_admissible_pair):
        fctx = factor_context(gctx)
        for lam in gctx.elements:
            parts = psi_multipartition(lam, fctx)
            assert psi_inverse(parts, fctx) == lam
            for r, part in parts.items():
                assert part in fctx.children[r]


def test_psi_of_base(gctx_runner):
    fctx = factor_context(gctx_runner)
    gamma = gctx_runner.gamma
    # the base is not itself a member (nodes were added), but each factor of
    # any member restricted away from its residue is the base plus that residue
    lam = gctx_runner.elements[0]
    parts = psi_multipartition(lam, fctx)
    for r, part in parts.items():
        assert part.meet(gamma) == gamma
        assert part.size == gamma.size + gctx_runner.multiset[r]


def test_psi_tableau_degrees_add(gctx_runner):
    ctx = gctx_runner.ctx
    fctx = factor_context(gctx_runner)
    lam = mp([1], [1], [], [1], [1], [], [])
    mu = mp([], [], [1], [], [1], [1], [1])
    for tab in enumerate_sstd(lam, mu, ctx, gctx_runner):
        split = psi_tableau(tab, fctx)
        assert sum(part.degree(ctx) for part in split.values()) == tab.degree(ctx)
        for r, part in split.items():
            assert part.is_semistandard(ctx)


def test_admissible_pair_factorization(gctx_admissible_pair):
    report = factor_check(factor_context(gctx_admissible_pair))
    assert report.ok, report.failure
    assert report.pairs_checked == 400


def test_dominance_respected_by_split(gctx_runner):
    gctx = gctx_runner
    fctx = factor_context(gctx)
    for lam in gctx.elements:
        for mu in gctx.elements:
            split_l = psi_multipartition(lam, fctx)
            split_m = psi_multipartition(mu, fctx)
            whole = gctx.leq(mu, lam)
            parts = all(
                fctx.children[r].leq(split_m[r], split_l[r])
                for r in fctx.active_residues
            )
            assert whole == parts


def test_factor_check_enumerates_each_child_pair_once(monkeypatch, gctx_runner):
    fctx = factor_context(gctx_runner)
    real = tensor.enumerate_sstd
    calls = Counter()

    def counting(lam, mu, ctx, gctx=None):
        calls["parent" if gctx is fctx.parent else "child"] += 1
        return real(lam, mu, ctx, gctx)

    monkeypatch.setattr(tensor, "enumerate_sstd", counting)
    report = factor_check(fctx)
    assert report.ok and (report.pairs_checked, report.tableaux_checked) == (400, 270)
    # 2 and 10 members in the children: 2^2 + 10^2 distinct child pairs
    assert calls == {"parent": 400, "child": 104}


def test_factor_check_compares_splits_not_counts(monkeypatch, gctx_runner):
    # every tableau of a pair is given the first one's split: the counts
    # still match, the multisets do not
    real = tensor.psi_tableau
    first = {}

    def first_split(tab, fctx):
        return first.setdefault((tab.shape, tab.weight), real(tab, fctx))

    monkeypatch.setattr(tensor, "psi_tableau", first_split)
    report = factor_check(factor_context(gctx_runner))
    assert not report.ok and report.failure.startswith("tableau split mismatch")
