"""Property tests: order axioms, bijection round trips, engine agreement."""

import random
import types
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from chercomb import (
    LaurentPoly,
    ParamContext,
    addable_nodes,
    dominates,
    enumerate_sstd,
    loading_of,
    mp,
    removable_nodes,
    theta_leq,
)
from chercomb.coords import ExactCoord
from chercomb.diagonals import ChiSymbol, empty_symbol, format_chi
from chercomb.equivalence import EMPTY_CHAR, PAIR, SINGLE, decode, encode, neighbours, step, visible_invariant
from chercomb.partitions import Multipartition
from chercomb.selfcheck import random_single_residue_context


@st.composite
def partitions(draw, max_size=8):
    total = draw(st.integers(min_value=0, max_value=max_size))
    part = []
    cap = total
    while total > 0:
        p = draw(st.integers(min_value=1, max_value=min(cap, total)))
        part.append(p)
        cap = p
        total -= p
    return tuple(part)


@st.composite
def multipartitions(draw, max_level=2, max_size=8):
    level = draw(st.integers(min_value=1, max_value=max_level))
    return Multipartition([draw(partitions(max_size=max_size)) for _ in range(level)])


@st.composite
def contexts(draw, max_level=2):
    e = draw(st.sampled_from([3, 4, 5, None]))
    level = draw(st.integers(min_value=1, max_value=max_level))
    modulus = e if e is not None else 6
    charges = [draw(st.integers(min_value=0, max_value=modulus - 1)) for _ in range(level)]
    scale = draw(st.sampled_from([Fraction(100), Fraction(1, 3)]))
    theta = [k * (scale + Fraction(1, 7)) for k in range(level)]
    return ParamContext(e, charges, theta, Fraction(1))


@st.composite
def coords_strategy(draw):
    return ExactCoord(Fraction(draw(st.integers(-30, 30)), draw(st.integers(1, 9))), draw(st.integers(0, 20)))


@given(coords_strategy(), coords_strategy(), coords_strategy())
def test_exact_coord_total_order(a, b, c):
    assert (a < b) or (b < a) or a == b
    if a < b and b < c:
        assert a < c
    assert not (a < a)


@given(contexts(), multipartitions())
@settings(max_examples=60, deadline=None)
def test_node_coords_injective(ctx, lam):
    lam = Multipartition(lam.comps[: ctx.level])
    coords = [ctx.node_coord(n) for n in lam.nodes()]
    assert len(coords) == len(set(coords))


@given(contexts(), multipartitions())
@settings(max_examples=60, deadline=None)
def test_no_ties_between_nodes_ghosts_and_red_lines(ctx, lam):
    lam = Multipartition(lam.comps[: ctx.level])
    coords = [ctx.node_coord(n) for n in lam.nodes()]
    ghosts = [c.shift(-ctx.g) for c in coords]
    reds = [ctx.red_line(k) for k in range(1, ctx.level + 1)]
    combined = coords + ghosts + reds
    assert len(combined) == len(set(combined))


@given(contexts(), multipartitions())
@settings(max_examples=60, deadline=None)
def test_add_remove_round_trip(ctx, lam):
    lam = Multipartition(lam.comps[: ctx.level])
    for node in addable_nodes(lam, ctx):
        assert lam.with_node(node).without_node(node) == lam
    for node in removable_nodes(lam, ctx):
        assert lam.without_node(node).with_node(node) == lam


@given(contexts(), st.data())
@settings(max_examples=40, deadline=None)
def test_dominance_axioms(ctx, data):
    lams = [
        Multipartition(data.draw(multipartitions()).comps[: ctx.level])
        for _ in range(3)
    ]
    loadings = [loading_of(l, ctx) for l in lams]
    for a in loadings:
        assert dominates(a, a)
    a, b, c = loadings
    if dominates(a, b) and dominates(b, c):
        assert dominates(a, c)
    if dominates(a, b) and dominates(b, a):
        # antisymmetry holds up to equality of the loadings themselves
        assert [p for p in a.points] == [p for p in b.points]


def small_family(rng):
    """A random single-residue family within the bounds these tests check:
    level at most 2, at most 4 addable slots and 2 added nodes, and at
    most 10 nodes in all; larger draws are drawn again."""
    while True:
        gctx = random_single_residue_context(rng)
        added = sum(gctx.multiset.values())
        if gctx.ctx.level <= 2 and len(gctx.addable[gctx.residue]) <= 4 and added <= 2:
            if gctx.gamma.size + added <= 10:
                return gctx


@given(st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_restricted_agrees_with_general(seed):
    gctx = small_family(random.Random(seed))
    ctx = gctx.ctx
    for lam in gctx.elements:
        for mu in gctx.elements:
            general = enumerate_sstd(lam, mu, ctx)
            restricted = enumerate_sstd(lam, mu, ctx, gctx)
            assert sorted(general, key=repr) == sorted(restricted, key=repr)


@given(st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_gamma_leq_matches_loading_dominance(seed):
    gctx = small_family(random.Random(seed))
    ctx = gctx.ctx
    for lam in gctx.elements:
        for mu in gctx.elements:
            assert gctx.leq(mu, lam) == theta_leq(mu, lam, ctx)


@st.composite
def chi_sequences(draw):
    syms = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from([0, 4, 5, 6]))
        if kind == 0:
            syms.append(ChiSymbol(draw(st.sampled_from([1, -1])), 0, 0))
        else:
            top = draw(st.sampled_from([0, 2, 3]))
            syms.append(ChiSymbol(draw(st.sampled_from([1, -1])), kind, top))
    return tuple(syms)


@given(chi_sequences())
@settings(max_examples=80, deadline=None)
def test_rewrites_preserve_visible_invariant(seq):
    inv = visible_invariant(seq)
    word, max_len = encode(seq), len(seq) + 2
    for nxt in neighbours(word, max_len):
        assert visible_invariant(decode(nxt)) == inv, step(word, nxt, max_len)


@given(chi_sequences(), st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_rewritten_sequences_detected_equivalent(seq, seed):
    from chercomb import chi_equivalent

    rng = random.Random(seed)
    state = encode(seq)
    for _ in range(rng.randint(1, 3)):
        options = neighbours(state, max_len=len(seq) + 6)
        if not options:
            break
        state = rng.choice(options)
    report = chi_equivalent(seq, decode(state), depth=6)
    assert report.status == "equivalent"


REWRITE = Path(__file__).resolve().parents[1] / "perfbench" / "rewrite.py"


def _load_rewrite():
    """perfbench/rewrite.py, rules i-v written independently of the search,
    as a module read without writing bytecode."""
    module = types.ModuleType("perfbench_rewrite")
    module.__file__ = str(REWRITE)
    exec(compile(REWRITE.read_text(encoding="utf-8"), str(REWRITE), "exec"), module.__dict__)
    return module


rewrite = _load_rewrite()


@given(chi_sequences())
@settings(max_examples=200, deadline=None)
def test_neighbours_match_rewrite_oracle(seq):
    # every move of rules i-v but one kind: the search never expands o into
    # a centred pair (s d6^j, s d6^j), it only cancels such a pair into o
    word, max_len = encode(seq), len(seq) + 1
    found = {(step(word, nxt, max_len)[0], format_chi(decode(nxt))) for nxt in neighbours(word, max_len)}
    tokens = rewrite.tokens(format_chi(seq))
    oracle, expansions = set(), set()
    for rule, moves in rewrite.moves(tokens).items():
        for pos, before, after in moves:
            move = (rule, ",".join(rewrite.apply(tokens, pos, before, after)))
            oracle.add(move)
            if rule == "iv" and before == ("o",):
                expansions.add(move)
    assert found == oracle - expansions


NEG_EMPTY_CHAR = encode((empty_symbol(-1),))


@st.composite
def words(draw):
    """Search words with runs of o and -o among single symbols."""
    runs = st.builds(str.__mul__, st.sampled_from([EMPTY_CHAR, NEG_EMPTY_CHAR]), st.integers(1, 4))
    return "".join(draw(st.lists(st.one_of(st.sampled_from(sorted(SINGLE)), runs), max_size=6)))


def first_move(word, nxt, max_len):
    """Brute force: every symbol move, every pair move, then every o
    insertion, each by position; the first that gives nxt."""
    n = len(word)
    moves = [(rule, p, 1, rep) for p, ch in enumerate(word) for rule, rep, _ in SINGLE[ch]]
    moves += [(rule, p, 2, rep) for p in range(n - 1) for rule, rep, _ in PAIR[word[p : p + 2]]]
    moves += [("v", p, 0, EMPTY_CHAR) for p in range(n + 1)]
    for rule, p, width, rep in moves:
        out = word[:p] + rep + word[p + width :]
        if len(out) <= max_len and out == nxt:
            return rule, p, width, rep
    return None


@given(words(), st.integers(0, 2))
@settings(max_examples=200, deadline=None)
def test_step_is_the_first_move_to_each_neighbour(word, extra):
    max_len = len(word) + extra
    for nxt in neighbours(word, max_len):
        rule, p, width, rep = step(word, nxt, max_len)
        assert word[:p] + rep + word[p + width :] == nxt
        assert (rule, p, width, rep) == first_move(word, nxt, max_len)
    with pytest.raises(ValueError):  # no move lengthens a word by two
        step(word, word + EMPTY_CHAR * 2, max_len + 2)


# two criterion-8 signatures, the Schur pair's
SIGNATURES = (
    "+d4^0,+d4^2,+d4^3,+d4^3,+d4^2,+d4^0,-d6^0,-d5^3,-d5^3,+d5^2,+d5^0",
    "+d4^0,+d4^0,-d6^0,-d5^3,-d5^3,+d5^2,+d5^0",
)


def test_walk_traces_replay():
    from chercomb import chi_equivalent, parse_chi

    rng = random.Random(8)
    for k in range(60):
        start = rewrite.tokens(SIGNATURES[k % 2])
        end = rewrite.walk(start, 4, rng)
        report = chi_equivalent(parse_chi(",".join(start)), parse_chi(",".join(end)))
        assert report.status == "equivalent"
        trace = [
            (s.rule, s.position, tuple(map(str, s.before)), tuple(map(str, s.after)))
            for s in report.trace
        ]
        rewrite.replay(start, end, trace)


def poly_strategy():
    return st.dictionaries(st.integers(-5, 5), st.integers(-4, 4), max_size=5).map(LaurentPoly)


@given(poly_strategy(), poly_strategy())
def test_bar_is_ring_involution(f, g):
    assert f.bar().bar() == f
    assert (f + g).bar() == f.bar() + g.bar()
    assert (f * g).bar() == f.bar() * g.bar()


@given(poly_strategy())
def test_bar_split_reassembles_when_defined(f):
    try:
        d, l = f.bar_split()
    except Exception:
        return
    assert d + l == f
    assert l.is_bar_invariant()
    assert d.in_positive_degrees() and d.has_nonnegative_coeffs()
