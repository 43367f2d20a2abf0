import random
from itertools import permutations

import pytest

from chercomb import (
    LaurentPoly,
    delta_character,
    enumerate_sstd,
    mp,
    tableau_degree,
)
from chercomb.partitions import Node
from chercomb.tableaux import Tableau, iter_index_bijections, pinned_tableau, slot_moves


def test_identity_tableau_unique(ctx_e5):
    lam = mp([3, 2])
    tabs = enumerate_sstd(lam, lam, ctx_e5)
    assert tabs == [Tableau(lam, lam, {node: node for node in lam.nodes()})]
    assert tabs[0].degree(ctx_e5) == 0


def test_unique_tableaux_examples(ctx_e4, ctx_e5):
    assert len(enumerate_sstd(mp([3, 1]), mp([2, 1, 1]), ctx_e4)) == 1
    tabs = enumerate_sstd(mp([6, 1, 1, 1, 1]), mp([5, 1, 1, 1, 1, 1]), ctx_e5)
    assert len(tabs) == 1
    assert tabs[0].degree(ctx_e5) == 2
    assert len(enumerate_sstd(mp([6, 2, 2, 1, 1]), mp([5, 2, 2, 1, 1, 1]), ctx_e5)) == 1


def test_map_not_onto_weight_is_not_semistandard(ctx_e5):
    # a node left out of the map is read as fixed, and (1,2) is no node of (1,1)
    assert not Tableau(mp([2]), mp([1, 1]), {}).is_semistandard(ctx_e5)
    lam = mp([3, 2])
    twice = {Node(1, 3, 1): Node(1, 2, 1)}  # (1,2) and (1,3) both go to (1,2)
    assert not Tableau(lam, lam, twice).is_semistandard(ctx_e5)


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
        assert tab.image(node) == node
    assert tab.image(Node(1, 6, 1)) == Node(6, 1, 1)


@pytest.mark.parametrize("family", ["gctx_hook", "gctx_admissible_pair", "gctx_runner"])
def test_tableau_stores_moving_strands_only(request, family):
    # a tableau built from a total map equals, and hashes like, the one
    # built from its moves; a pinned one holds no node of gamma and at most
    # one entry per added node
    gctx = request.getfixturevalue(family)
    added = sum(gctx.multiset.values())
    gamma_nodes = set(gctx.gamma.nodes())
    for lam in gctx.elements:
        for mu in gctx.elements:
            for tab in enumerate_sstd(lam, mu, gctx.ctx, gctx):
                assert gamma_nodes.isdisjoint(tab.mapping) and len(tab.mapping) <= added
                total = {node: tab.image(node) for node in lam.nodes()}
                moves = {node: target for node, target in total.items() if node != target}
                assert moves == tab.mapping
                for built in (Tableau(lam, mu, total), Tableau(lam, mu, moves)):
                    assert built == tab and hash(built) == hash(tab)
                    assert built.mapping == moves


@pytest.mark.parametrize("family", ["gctx_hook", "gctx_admissible_pair", "gctx_runner"])
def test_slot_moves_round_trip(request, family):
    # every base-pinned tableau is rebuilt from its slot moves, and each
    # residue's moves are one of the rook placements between the slot sets
    gctx = request.getfixturevalue(family)
    for lam in gctx.elements:
        src = gctx.added_positions(lam)
        for mu in gctx.elements:
            dst = gctx.added_positions(mu)
            for tab in enumerate_sstd(lam, mu, gctx.ctx, gctx):
                moves = slot_moves(tab, gctx)
                assert pinned_tableau(lam, mu, gctx, moves) == tab
                assert moves.keys() == gctx.addable.keys()
                for r, pairs in moves.items():
                    assert pairs in iter_index_bijections(src[r], dst[r])


def brute_force_bijections(sources, targets):
    return [
        tuple(zip(sources, p))
        for p in permutations(targets)
        if all(t >= s for s, t in zip(sources, p))
    ]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_index_bijections_match_brute_force(seed):
    rng = random.Random(seed)
    for _ in range(150):
        n = rng.randint(0, 7)
        sources = tuple(sorted(rng.sample(range(1, 11), n)))
        targets = tuple(sorted(rng.sample(range(1, 11), n)))
        got = list(iter_index_bijections(sources, targets))
        assert got == brute_force_bijections(sources, targets)


def test_index_bijections_unequal_lengths():
    assert list(iter_index_bijections((1, 2), (3,))) == []
    assert list(iter_index_bijections((), (1,))) == []
    assert list(iter_index_bijections((4,), ())) == []
