import random

import pytest

from chercomb import (
    IncompatibleContexts,
    NotComparable,
    ParamContext,
    TransportMap,
    build_gamma_set,
    delta_character,
    enumerate_sstd,
    interval_length,
    mp,
    nested_decomposition_number,
    sigma_indices,
)
from chercomb.selfcheck import random_single_residue_context


@pytest.fixture(scope="module")
def gctx_sigma_example():
    ctx = ParamContext(4, [0, 3], ["0", "7"], "0.99")
    gamma = mp([3, 2, 1, 1, 1], [4, 2, 2, 1])
    return build_gamma_set(gamma, [3], {3: 3}, ctx)


def test_sigma_examples(gctx_sigma_example):
    gctx = gctx_sigma_example
    lam = mp([4, 2, 2, 1, 1], [5, 2, 2, 1])
    mu = mp([4, 2, 1, 1, 1, 1], [4, 2, 2, 1, 1])
    assert sigma_indices(lam, gctx) == (1, 2, 3)
    assert sigma_indices(mu, gctx) == (1, 4, 5)
    assert interval_length(lam, mu, gctx) == 4
    assert interval_length(lam, lam, gctx) == 0
    with pytest.raises(NotComparable):
        interval_length(mu, lam, gctx)


def test_sigma_extremes(gctx_sigma_example):
    gctx = gctx_sigma_example
    a = len(gctx.addable[gctx.residue])
    m = gctx.multiset[gctx.residue]
    assert sigma_indices(gctx.top, gctx) == tuple(range(1, m + 1))
    assert sigma_indices(gctx.bottom, gctx) == tuple(range(a - m + 1, a + 1))
    assert interval_length(gctx.top, gctx.bottom, gctx) == m * (a - m)


def test_identity_transport(gctx_hook):
    tmap = TransportMap(gctx_hook, gctx_hook)
    for lam in gctx_hook.elements:
        assert tmap.multipartition(lam) == lam


@pytest.fixture(scope="module")
def isomorphism_pair(ctx_e5=None):
    ctx = ParamContext(5, [0], ["0"], "0.99")
    source = build_gamma_set(mp([5, 1, 1, 1, 1]), [0], {0: 1}, ctx)
    ctxb = ParamContext(11, [1, 1, 1], ["-5", "0", "4"], "0.99")
    target = build_gamma_set(mp([], [2, 1], []), [1], {1: 1}, ctxb)
    return source, target


def test_transport_multipartitions(isomorphism_pair):
    source, target = isomorphism_pair
    tmap = TransportMap(source, target)
    images = [tmap.multipartition(lam) for lam in source.elements]
    assert images == [
        mp([1], [2, 1], []),
        mp([], [2, 2], []),
        mp([], [2, 1], [1]),
    ]


def test_transport_degree_preserving_bijection(isomorphism_pair):
    source, target = isomorphism_pair
    tmap = TransportMap(source, target)
    for lam in source.elements:
        for mu in source.elements:
            tabs = enumerate_sstd(lam, mu, source.ctx, source)
            images = [tmap.tableau(t) for t in tabs]
            expected = enumerate_sstd(
                tmap.multipartition(lam), tmap.multipartition(mu), target.ctx, target
            )
            assert sorted(images, key=repr) == sorted(expected, key=repr)
            for tab, image in zip(tabs, images):
                assert tab.degree(source.ctx) == image.degree(target.ctx)


def test_incompatible_contexts(gctx_hook):
    ctx = ParamContext(5, [0], ["0"], "1")
    bigger = build_gamma_set(mp([10, 9, 9, 6, 4, 4, 3, 2, 1, 1]), [0], {0: 1}, ctx)
    with pytest.raises(IncompatibleContexts):
        TransportMap(gctx_hook, bigger)


def test_transport_preserves_characters_and_decomposition_numbers():
    """Families with equal slot and added counts have the same characters
    and decomposition numbers under transport, across e, level and theta."""
    rng = random.Random(5)
    groups = {}
    for _ in range(400):
        gctx = random_single_residue_context(rng)
        key = (len(gctx.addable[gctx.residue]), gctx.multiset[gctx.residue])
        groups.setdefault(key, []).append(gctx)
    pairs = 0
    for families in groups.values():
        for source, target in zip(families, families[1:]):
            a, b = source.ctx, target.ctx
            if (a.e, a.level, a.theta) == (b.e, b.level, b.theta):
                continue
            tmap = TransportMap(source, target)
            for lam in source.elements:
                for mu in source.elements:
                    lam2, mu2 = tmap.multipartition(lam), tmap.multipartition(mu)
                    assert delta_character(lam, mu, a, gctx=source) == delta_character(
                        lam2, mu2, b, gctx=target
                    ), (lam, mu, lam2, mu2)
                    assert (
                        nested_decomposition_number(lam, mu, source).value
                        == nested_decomposition_number(lam2, mu2, target).value
                    ), (lam, mu, lam2, mu2)
                    pairs += 1
    assert len(groups) >= 10 and pairs > 5000
