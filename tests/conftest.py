"""Shared contexts used across the suite."""

import json

import pytest

from chercomb import (
    ParamContext,
    build_gamma_set,
    decorate,
    empty_multipartition,
    filled_edges,
    mp,
    terrain_of,
)


def comparable_pairs(gctx):
    """Every (lam, mu) with mu <= lam, diagonal included, lam-major along
    the family order: the pairwise `leq` scan over the full square.  It is
    the oracle for the pairs `family_entries` keeps, and lists the pairs
    the tests walk."""
    elements = gctx.elements
    return [(lam, mu) for lam in elements for mu in elements if gctx.leq(mu, lam)]


@pytest.fixture
def field_validity_calls(monkeypatch):
    """The families field_validity is called on, in call order, wherever
    the library calls it from."""
    import chercomb.peeling as peeling
    import chercomb.terrain as terrain

    calls, original = [], terrain.field_validity

    def counted(gctx):
        calls.append(gctx)
        return original(gctx)

    monkeypatch.setattr(terrain, "field_validity", counted)
    monkeypatch.setattr(peeling, "field_validity", counted)
    return calls


# The criterion-5(b) FLOTW base with two 0-nodes added: 45 members, some
# of them incomparable.
FLOTW2_CONTEXT = {
    "e": 3,
    "multicharge": [2, 1],
    "theta": ["0", "1"],
    "g": "2",
    "gamma": [[7, 5, 3, 1, 1], [5, 5, 4, 2, 2, 1, 1]],
    "residues": [0],
    "multiset": {"0": 2},
}


@pytest.fixture
def flotw2_file(tmp_path):
    """FLOTW2_CONTEXT as a context file."""
    path = tmp_path / "flotw2.json"
    path.write_text(json.dumps(FLOTW2_CONTEXT))
    return str(path)


# Criterion 8's pair: two e=5 level-one bases, two 0-nodes added, whose χ
# sequences rewrite into each other by rules ii and v.
CHI_PAIR_GAMMAS = (
    [30] * 6 + [28, 20, 19, 19, 15, 11, 9, 7] + [3] * 6,
    [10] * 4 + [9] + [5] * 4 + [3] * 3 + [1] * 8,
)


@pytest.fixture
def chi_pair_files(tmp_path):
    """Criterion 8's pair as two context files."""
    paths = []
    for name, gamma in zip("ab", CHI_PAIR_GAMMAS):
        path = tmp_path / f"{name}.json"
        doc = {"e": 5, "multicharge": [0], "theta": ["0"], "g": "1", "gamma": [gamma]}
        path.write_text(json.dumps({**doc, "residues": [0], "multiset": {"0": 2}}))
        paths.append(str(path))
    return paths


@pytest.fixture(scope="session")
def ctx_e5():
    return ParamContext(5, [0], ["0"], "1")


@pytest.fixture(scope="session")
def ctx_e4():
    return ParamContext(4, [0], ["0"], "1")


@pytest.fixture(scope="session")
def ctx_admissible_pair():
    """e=4 two-component context with gamma admissible for S={1,3}."""
    ctx = ParamContext(4, [0, 3], ["0", "7"], "0.99")
    gamma = mp([3, 2, 1, 1, 1], [4, 2, 2, 1])
    return ctx, gamma


@pytest.fixture(scope="session")
def gctx_admissible_pair(ctx_admissible_pair):
    ctx, gamma = ctx_admissible_pair
    return build_gamma_set(gamma, [1, 3], {1: 1, 3: 3}, ctx)


@pytest.fixture(scope="session")
def gctx_hook(ctx_e5):
    """gamma = (5,1^4): the three-element family of the isomorphism example."""
    return build_gamma_set(mp([5, 1, 1, 1, 1]), [0], {0: 1}, ctx_e5)


@pytest.fixture(scope="session")
def ctx_level10():
    """Ten components, unit charges, well-separated weighting."""
    return ParamContext(4, [1] * 10, [f"{78 * k}/11" for k in range(10)], "1")


@pytest.fixture(scope="session")
def decoration_pair():
    mu = mp([1], [1], [], [], [1], [], [1], [], [1], [1])
    lam = mp([1], [1], [1], [1], [], [1], [1], [], [], [])
    return mu, lam


@pytest.fixture(scope="session")
def gctx_runner():
    ctx = ParamContext(4, [3, 1, 3, 3, 3, 1, 3], ["-3", "-1", "1", "3", "5", "9", "11"], "0.99")
    return build_gamma_set(empty_multipartition(7), [1, 3], {1: 1, 3: 3}, ctx)


@pytest.fixture(scope="session")
def gctx_flotw_bipartition():
    """e=3 FLOTW bipartition family with ten addable 0-slots."""
    ctx = ParamContext(3, [2, 1], ["0", "1"], "2")
    gamma = mp([7, 5, 3, 1, 1], [5, 5, 4, 2, 2, 1, 1])
    return build_gamma_set(gamma, [0], {0: 6}, ctx)


@pytest.fixture(scope="session")
def node_decorate():
    """Decorate mu's terrain from node-level input, as `terrain --decorate`
    does: the coordinate terrain, the boundary check, then the word match."""

    def run(mu, lam, residue, ctx):
        nodes, word = terrain_of(mu, residue, ctx)
        return decorate(word, filled_edges(nodes, mu, lam, residue, ctx))

    return run
