"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Everything is exact (rational arithmetic, integer Laurent coefficients);
there are no tolerances to tune.  Criterion 5(b) asserts the required
reference value t^11 and is left red on purpose: the lattice-path
construction itself yields a second well-nested family of norm 9 for that
pair (flatten the ridge inside the outer parenthesis pair), and the
independent character-peeling engine concurs, so the computed value is
t^9 + t^11.  Forcing t^11 would contradict criteria 4, 6, and 7.
"""

import random
from fractions import Fraction
from math import prod

import pytest

from chercomb import (
    LaurentPoly,
    ParamContext,
    TransportMap,
    build_gamma_set,
    chi_equivalent,
    chi_sequence,
    decomp_number,
    delta_character,
    enumerate_sstd,
    factor_check,
    factor_context,
    format_chi,
    gamma_context_for_pair,
    interval_length,
    latticed_paths,
    loading_of,
    mp,
    sigma_indices,
    well_nested_families,
)
from chercomb.gamma import GammaContext
from chercomb.peeling import (
    gamma_characters,
    gamma_peel_matrix,
    interval_peel_matrix,
    verify_reassembly,
)
from chercomb.selfcheck import cross_validate, random_single_residue_context


def report(num: int, ok: bool, detail: str = ""):
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_loading_fixture():
    ctx = ParamContext(4, [0, 0], ["0", "1/2"], "1")
    ld = loading_of(mp([2, 1], [1, 1, 1]), ctx)
    numeric = ld.numeric_coords(Fraction(1, 100))
    expected = [Fraction(n, 100) for n in (-97, 2, 52, 103, 153, 254)]
    k1, k2 = ctx.multicharge
    residues_ok = ld.residue_sequence() == [
        ctx.residue(k1 + 1),
        k1,
        k2,
        ctx.residue(k1 - 1),
        ctx.residue(k2 - 1),
        ctx.residue(k2 - 2),
    ]
    report(
        1,
        numeric == expected and residues_ok,
        f"numeric D = {[str(x) for x in numeric]}",
    )


def test_criterion_02_tableau_uniqueness_and_degree():
    ctx4 = ParamContext(4, [0], ["0"], "1")
    ctx5 = ParamContext(5, [0], ["0"], "1")
    first = enumerate_sstd(mp([3, 1]), mp([2, 1, 1]), ctx4)
    second = enumerate_sstd(mp([6, 1, 1, 1, 1]), mp([5, 1, 1, 1, 1, 1]), ctx5)
    third = enumerate_sstd(mp([6, 2, 2, 1, 1]), mp([5, 2, 2, 1, 1, 1]), ctx5)
    ok = (
        len(first) == 1
        and len(second) == 1
        and second[0].degree(ctx5) == 2
        and len(third) == 1
    )
    report(
        2,
        ok,
        f"counts {len(first)},{len(second)},{len(third)}; middle degree "
        f"{second[0].degree(ctx5)}",
    )


def test_criterion_03_family_construction():
    ctx = ParamContext(4, [0, 3], ["0", "7"], "0.99")
    gctx = build_gamma_set(mp([3, 2, 1, 1, 1], [4, 2, 2, 1]), [1, 3], {1: 1, 3: 3}, ctx)
    ok = (
        len(gctx) == 20
        and gctx.top == mp([4, 3, 2, 1, 1], [5, 2, 2, 1])
        and gctx.bottom == mp([3, 2, 1, 1, 1, 1], [5, 2, 2, 2, 1])
        and mp([4, 3, 1, 1, 1, 1], [5, 2, 2, 1]) in gctx
        and mp([3, 2, 1, 1, 1, 1], [5, 2, 2, 2, 1]) in gctx
    )
    report(3, ok, f"|family| = {len(gctx)}, extremes {gctx.top} / {gctx.bottom}")


def test_criterion_04_terrain_machinery(node_decorate):
    ctx = ParamContext(4, [1] * 10, [f"{78 * k}/11" for k in range(10)], "1")
    mu = mp([1], [1], [], [], [1], [], [1], [], [1], [1])
    lam = mp([1], [1], [1], [1], [], [1], [1], [], [], [])
    dt = node_decorate(mu, lam, 1, ctx)
    norms = {p: sorted(q.norm for q in latticed_paths(dt, p)) for p in dt.pairs}
    fams = well_nested_families(dt)
    coeffs: dict[int, int] = {}
    for f in fams:
        coeffs[f.norm] = coeffs.get(f.norm, 0) + 1
    ok = (
        dt.pairs == ((4, 5), (6, 9), (3, 10))
        and norms[(4, 5)] == [1]
        and norms[(6, 9)] == [1, 3]
        and norms[(3, 10)] == [3, 5, 5, 7]
        and prod(len(latticed_paths(dt, p)) for p in dt.pairs) == 8
        and len(fams) == 6
        and LaurentPoly(coeffs) == LaurentPoly({5: 1, 7: 2, 9: 2, 11: 1})
    )
    report(4, ok, f"pairs {dt.pairs}, families 8 raw / {len(fams)} nested, sum {LaurentPoly(coeffs)}")


def test_criterion_05_decomposition_numbers():
    # (a) level-1, e=3, moving residue 2
    ctx_a = ParamContext(3, [0], ["0"], "1")
    lam_a = mp([10, 10, 9, 9, 8, 8, 7, 7, 6, 5, 5, 5, 4, 4, 3, 2, 2, 1, 1])
    mu_a = mp([10, 10, 9, 9, 8, 7, 7, 6, 6, 6, 5, 4, 4, 4, 3, 2, 2, 2, 1, 1])
    res_a = decomp_number(lam_a, mu_a, gamma_context_for_pair(lam_a, mu_a, 2, ctx_a), "both")
    want_a = LaurentPoly({5: 1, 7: 2, 9: 2, 11: 1})
    ok_a = res_a.agree and res_a.value == want_a

    # (b) the FLOTW bipartition family and its level-1 partner
    ctx_b = ParamContext(3, [2, 1], ["0", "1"], "2")
    gctx_b = build_gamma_set(mp([7, 5, 3, 1, 1], [5, 5, 4, 2, 2, 1, 1]), [0], {0: 6}, ctx_b)
    lam_b = mp([8, 5, 3, 1, 1, 1], [6, 5, 5, 3, 2, 1, 1, 1])
    mu_b = mp([7, 5, 4, 2, 1, 1], [5, 5, 5, 2, 2, 2, 1, 1])
    res_b = decomp_number(lam_b, mu_b, gctx_b, "both")
    ctx_b1 = ParamContext(4, [1], ["0"], "1")
    gctx_b1 = build_gamma_set(
        mp([19, 18, 17, 17, 17, 16, 13, 12, 11, 8, 8, 8, 7, 6, 5, 2, 2]), [0], {0: 6}, ctx_b1
    )
    tmap_b = TransportMap(gctx_b, gctx_b1)
    res_b1 = decomp_number(
        tmap_b.multipartition(lam_b), tmap_b.multipartition(mu_b), gctx_b1, "both"
    )
    want_b = LaurentPoly({11: 1})
    ok_b = res_b.agree and res_b1.agree and res_b.value == want_b and res_b1.value == want_b

    # (c) the two-red-line family and its level-1 partner
    ctx_c = ParamContext(5, [1], ["0"], "1")
    lam_c = mp([15, 12, 12, 9, 8, 5, 5, 3, 3, 1, 1])
    mu_c = mp([14, 12, 11, 9, 9, 5, 5, 3, 3, 1, 1, 1])
    res_c = decomp_number(lam_c, mu_c, gamma_context_for_pair(lam_c, mu_c, 0, ctx_c), "both")
    ok_c = res_c.agree and res_c.value == LaurentPoly({5: 1})

    detail = (
        f"(a) {res_a.value} {'ok' if ok_a else 'MISMATCH'}; "
        f"(b) computed {res_b.value} / transported {res_b1.value}, engines agree, "
        f"{'ok' if ok_b else 'required value t^11 contradicts the norm-9 well-nested family'}; "
        f"(c) {res_c.value} {'ok' if ok_c else 'MISMATCH'}"
    )
    report(5, ok_a and ok_b and ok_c, detail)


def test_criterion_06_oracle_equivalence():
    run = cross_validate(count=200, seed=20240)
    report(
        6,
        run.ok and run.contexts == 200,
        f"{run.contexts} contexts, {run.pairs} entrywise agreements"
        + (f"; first failure: {run.failure}" if run.failure else ""),
    )


def test_criterion_07_matrix_invariants():
    checked = 0

    def verify(gctx: GammaContext):
        nonlocal checked
        matrix = gamma_peel_matrix(gctx)
        matrix.check_invariants(gctx.leq)
        verify_reassembly(matrix, gctx.leq, gamma_characters(gctx))
        one = LaurentPoly.one()
        for lam in gctx.elements:
            assert matrix.entry(lam, lam) == one
        checked += 1

    ctx5 = ParamContext(5, [0], ["0"], "1")
    verify(build_gamma_set(mp([5, 1, 1, 1, 1]), [0], {0: 1}, ctx5))
    verify(build_gamma_set(mp([5, 1, 1, 1, 1]), [0], {0: 2}, ctx5))
    ctx_cref = ParamContext(5, [1], ["0"], "1")
    verify(build_gamma_set(mp([14, 12, 11, 9, 8, 5, 5, 3, 2, 1, 1]), [0], {0: 3}, ctx_cref))
    ctx_pair = ParamContext(4, [0, 3], ["0", "7"], "0.99")
    verify(build_gamma_set(mp([3, 2, 1, 1, 1], [4, 2, 2, 1]), [1, 3], {1: 1, 3: 3}, ctx_pair))
    rng = random.Random(777)
    for _ in range(5):
        verify(random_single_residue_context(rng))
    report(7, True, f"{checked} matrices: unitriangular, positive, bar-invariant, reassembled")


def test_criterion_08_chi_sequences():
    ctx5 = ParamContext(5, [0], ["0"], "1")
    flat = format_chi(chi_sequence(mp([10, 9, 9, 6, 4, 4, 3, 2, 1, 1]), 0, ctx5))
    ok_flat = flat == "+d4^0,+d4^3,+d6^0,+d5^0,+d5^0"

    big = chi_sequence(mp([30] * 6 + [28, 20, 19, 19, 15, 11, 9, 7] + [3] * 6), 0, ctx5)
    small = chi_sequence(mp([10] * 4 + [9] + [5] * 4 + [3] * 3 + [1] * 8), 0, ctx5)
    ok_schur_seqs = (
        format_chi(big)
        == "+d4^0,+d4^2,+d4^3,+d4^3,+d4^2,+d4^0,-d6^0,-d5^3,-d5^3,+d5^2,+d5^0"
        and format_chi(small) == "+d4^0,+d4^0,-d6^0,-d5^3,-d5^3,+d5^2,+d5^0"
    )
    schur_rep = chi_equivalent(big, small)
    ok_schur = schur_rep.status == "equivalent" and schur_rep.rules_used == {"ii", "v"}

    ctx_b = ParamContext(3, [2, 1], ["0", "1"], "2")
    ctx_b1 = ParamContext(4, [1], ["0"], "1")
    seq_b = chi_sequence(mp([7, 5, 3, 1, 1], [5, 5, 4, 2, 2, 1, 1]), 0, ctx_b)
    seq_b1 = chi_sequence(
        mp([19, 18, 17, 17, 17, 16, 13, 12, 11, 8, 8, 8, 7, 6, 5, 2, 2]), 0, ctx_b1
    )
    ok_equal = seq_b == seq_b1

    ctx_c = ParamContext(5, [0, 0], ["0", "1/2"], "1")
    ctx_c1 = ParamContext(5, [1], ["0"], "1")
    seq_c = chi_sequence(
        mp([10, 8, 7, 5, 5, 5, 3, 3, 3], [5, 4, 3, 3, 3, 3, 3, 2, 1, 1]), 0, ctx_c
    )
    seq_c1 = chi_sequence(mp([14, 12, 11, 9, 8, 5, 5, 3, 2, 1, 1]), 0, ctx_c1)
    cref_rep = chi_equivalent(seq_c, seq_c1)
    ok_cref = cref_rep.status == "equivalent" and cref_rep.rules_used == {"iv", "v"}

    report(
        8,
        ok_flat and ok_schur_seqs and ok_schur and ok_equal and ok_cref,
        f"signatures verbatim; equivalences via {sorted(schur_rep.rules_used)} and "
        f"{sorted(cref_rep.rules_used)}",
    )


def test_criterion_09_transport():
    # slot profiles and interval length
    ctx_s = ParamContext(4, [0, 3], ["0", "7"], "0.99")
    gctx_s = build_gamma_set(mp([3, 2, 1, 1, 1], [4, 2, 2, 1]), [3], {3: 3}, ctx_s)
    lam_s = mp([4, 2, 2, 1, 1], [5, 2, 2, 1])
    mu_s = mp([4, 2, 1, 1, 1, 1], [4, 2, 2, 1, 1])
    ok_sigma = (
        sigma_indices(mu_s, gctx_s) == (1, 4, 5)
        and sigma_indices(lam_s, gctx_s) == (1, 2, 3)
        and interval_length(lam_s, mu_s, gctx_s) == 4
    )

    # degree-preserving tableau bijection between the two small contexts
    ctx_h = ParamContext(5, [0], ["0"], "0.99")
    source = build_gamma_set(mp([5, 1, 1, 1, 1]), [0], {0: 1}, ctx_h)
    ctx_t = ParamContext(11, [1, 1, 1], ["-5", "0", "4"], "0.99")
    target = build_gamma_set(mp([], [2, 1], []), [1], {1: 1}, ctx_t)
    tmap = TransportMap(source, target)
    ok_bijection = True
    for lam in source.elements:
        for mu in source.elements:
            tabs = enumerate_sstd(lam, mu, source.ctx, source)
            images = [tmap.tableau(t) for t in tabs]
            expected = enumerate_sstd(
                tmap.multipartition(lam), tmap.multipartition(mu), target.ctx, target
            )
            ok_bijection &= sorted(images, key=repr) == sorted(expected, key=repr)
            ok_bijection &= all(
                t.degree(source.ctx) == i.degree(target.ctx) for t, i in zip(tabs, images)
            )

    # transported peeling matrices agree for the signature-equivalent pairs
    ctx5 = ParamContext(5, [0], ["0"], "1")
    big = build_gamma_set(mp([30] * 6 + [28, 20, 19, 19, 15, 11, 9, 7] + [3] * 6), [0], {0: 2}, ctx5)
    small = build_gamma_set(mp([10] * 4 + [9] + [5] * 4 + [3] * 3 + [1] * 8), [0], {0: 2}, ctx5)
    tmap_schur = TransportMap(big, small)
    mat_big, mat_small = gamma_peel_matrix(big), gamma_peel_matrix(small)
    ok_schur = all(
        mat_big.entry(a, b)
        == mat_small.entry(tmap_schur.multipartition(a), tmap_schur.multipartition(b))
        for a in big.elements
        for b in big.elements
    )

    ctx_c = ParamContext(5, [0, 0], ["0", "1/2"], "1")
    cref = build_gamma_set(
        mp([10, 8, 7, 5, 5, 5, 3, 3, 3], [5, 4, 3, 3, 3, 3, 3, 2, 1, 1]), [0], {0: 3}, ctx_c
    )
    ctx_c1 = ParamContext(5, [1], ["0"], "1")
    cref1 = build_gamma_set(mp([14, 12, 11, 9, 8, 5, 5, 3, 2, 1, 1]), [0], {0: 3}, ctx_c1)
    tmap_cref = TransportMap(cref, cref1)
    mat_c, mat_c1 = gamma_peel_matrix(cref), gamma_peel_matrix(cref1)
    ok_cref = all(
        mat_c.entry(a, b)
        == mat_c1.entry(tmap_cref.multipartition(a), tmap_cref.multipartition(b))
        for a in cref.elements
        for b in cref.elements
    )

    # the big FLOTW family: compare on the dominance interval of its pair
    ctx_b = ParamContext(3, [2, 1], ["0", "1"], "2")
    gctx_b = build_gamma_set(mp([7, 5, 3, 1, 1], [5, 5, 4, 2, 2, 1, 1]), [0], {0: 6}, ctx_b)
    lam_b = mp([8, 5, 3, 1, 1, 1], [6, 5, 5, 3, 2, 1, 1, 1])
    mu_b = mp([7, 5, 4, 2, 1, 1], [5, 5, 5, 2, 2, 2, 1, 1])
    ctx_b1 = ParamContext(4, [1], ["0"], "1")
    gctx_b1 = build_gamma_set(
        mp([19, 18, 17, 17, 17, 16, 13, 12, 11, 8, 8, 8, 7, 6, 5, 2, 2]), [0], {0: 6}, ctx_b1
    )
    tmap_b = TransportMap(gctx_b, gctx_b1)
    mat_b = interval_peel_matrix(lam_b, mu_b, gctx_b)
    mat_b1 = interval_peel_matrix(
        tmap_b.multipartition(lam_b), tmap_b.multipartition(mu_b), gctx_b1
    )
    ok_flotw = all(
        mat_b.entry(a, b)
        == mat_b1.entry(tmap_b.multipartition(a), tmap_b.multipartition(b))
        for a in mat_b.order
        for b in mat_b.order
    )

    report(
        9,
        ok_sigma and ok_bijection and ok_schur and ok_cref and ok_flotw,
        f"slots (1,4,5)/(1,2,3), length 4; degree-preserving bijection; "
        f"matrices identical (6x6, 10x10, {len(mat_b.order)}-interval)",
    )


def test_criterion_10_tensor_factorization():
    ctx_r = ParamContext(4, [3, 1, 3, 3, 3, 1, 3], ["-3", "-1", "1", "3", "5", "9", "11"], "0.99")
    from chercomb import empty_multipartition

    runner = build_gamma_set(empty_multipartition(7), [1, 3], {1: 1, 3: 3}, ctx_r)
    lam = mp([1], [1], [], [1], [1], [], [])
    mu = mp([], [], [1], [], [1], [1], [1])
    char = delta_character(lam, mu, ctx_r, gctx=runner)
    run_report = factor_check(factor_context(runner))

    ctx_p = ParamContext(4, [0, 3], ["0", "7"], "0.99")
    pair = build_gamma_set(mp([3, 2, 1, 1, 1], [4, 2, 2, 1]), [1, 3], {1: 1, 3: 3}, ctx_p)
    pair_report = factor_check(factor_context(pair))

    ok = (
        len(runner) == 20
        and char == LaurentPoly({2: 1, 4: 1})
        and run_report.ok
        and run_report.pairs_checked == 400
        and pair_report.ok
        and pair_report.pairs_checked == 400
    )
    report(
        10,
        ok,
        f"|family| 20, character {char}, degree additivity + matrix product over "
        f"{run_report.pairs_checked}+{pair_report.pairs_checked} pairs",
    )
