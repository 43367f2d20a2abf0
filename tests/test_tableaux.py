from chercomb import (
    LaurentPoly,
    delta_character,
    enumerate_sstd,
    identity_tableau,
    mp,
    tableau_degree,
)
from chercomb.partitions import Node
from chercomb.tableaux import Tableau


def test_identity_tableau_unique(ctx_e5):
    lam = mp([3, 2])
    tabs = enumerate_sstd(lam, lam, ctx_e5)
    assert tabs == [identity_tableau(lam)]
    assert tabs[0].degree(ctx_e5) == 0


def test_unique_tableaux_examples(ctx_e4, ctx_e5):
    assert len(enumerate_sstd(mp([3, 1]), mp([2, 1, 1]), ctx_e4)) == 1
    tabs = enumerate_sstd(mp([6, 1, 1, 1, 1]), mp([5, 1, 1, 1, 1, 1]), ctx_e5)
    assert len(tabs) == 1
    assert tabs[0].degree(ctx_e5) == 2
    assert len(enumerate_sstd(mp([6, 2, 2, 1, 1]), mp([5, 2, 2, 1, 1, 1]), ctx_e5)) == 1


def test_mismatched_content_empty(ctx_e5):
    assert enumerate_sstd(mp([2]), mp([1, 1]), ctx_e5) == []
    assert delta_character(mp([2]), mp([1, 1]), ctx_e5) == LaurentPoly.zero()


def test_semistandard_and_residue_checks(ctx_e5, gctx_hook):
    for lam in gctx_hook.elements:
        for mu in gctx_hook.elements:
            for tab in enumerate_sstd(lam, mu, ctx_e5, gctx_hook):
                assert tab.is_residue_preserving(ctx_e5)
                assert tab.is_semistandard(ctx_e5)


def test_restricted_matches_general(gctx_hook, gctx_runner):
    for gctx in (gctx_hook, gctx_runner):
        ctx = gctx.ctx
        for lam in gctx.elements:
            for mu in gctx.elements:
                general = enumerate_sstd(lam, mu, ctx)
                restricted = enumerate_sstd(lam, mu, ctx, gctx)
                assert sorted(general, key=repr) == sorted(restricted, key=repr)
                assert sorted(t.degree(ctx) for t in general) == sorted(
                    t.degree(ctx) for t in restricted
                )


def test_nonempty_sstd_implies_dominance(gctx_admissible_pair):
    gctx = gctx_admissible_pair
    ctx = gctx.ctx
    for lam in gctx.elements:
        for mu in gctx.elements:
            if lam != mu and enumerate_sstd(lam, mu, ctx, gctx):
                assert gctx.leq(mu, lam)


def test_degree_orientation_flip(ctx_e5, gctx_hook):
    # swapping the roles of the two boundaries leaves every crossing count alone
    for lam in gctx_hook.elements:
        for mu in gctx_hook.elements:
            for tab in enumerate_sstd(lam, mu, ctx_e5, gctx_hook):
                flipped = Tableau(mu, lam, {b: a for a, b in tab.mapping.items()})
                assert tableau_degree(flipped, ctx_e5) == tab.degree(ctx_e5)


def test_runner_degrees(gctx_runner):
    ctx = gctx_runner.ctx
    lam = mp([1], [1], [], [1], [1], [], [])
    mu = mp([], [], [1], [], [1], [1], [1])
    tabs = enumerate_sstd(lam, mu, ctx, gctx_runner)
    assert sorted(t.degree(ctx) for t in tabs) == [2, 4]
    assert delta_character(lam, mu, ctx, gctx=gctx_runner) == LaurentPoly({2: 1, 4: 1})


def test_delta_character_diagonal(gctx_hook):
    ctx = gctx_hook.ctx
    for lam in gctx_hook.elements:
        assert delta_character(lam, lam, ctx, gctx=gctx_hook) == LaurentPoly.one()


def test_gamma_strands_pinned(gctx_hook, ctx_e5):
    lam, mu = mp([6, 1, 1, 1, 1]), mp([5, 1, 1, 1, 1, 1])
    (tab,) = enumerate_sstd(lam, mu, ctx_e5, gctx_hook)
    for node in gctx_hook.gamma.nodes():
        assert tab.mapping[node] == node
    assert tab.mapping[Node(1, 6, 1)] == Node(6, 1, 1)
