"""Equivalence of signed symbol sequences by local rewriting.

The five identifications:
  (i)   +-d4^j  <->  -+d5^j                       (subscript swap, sign flip)
  (ii)  -o  <->  (s d_k^2, s d_k^3) in either order, k in {4,5}
  (iii) (+d_k^j, -d_k^j) <-> (-d_k^j, +d_k^j)     j in {2,3}, k in {4,5}
  (iv)  o  <->  (s d6^j, s d6^j)                  j in {2,3}
  (v)   o  <->  (-o, -o), and o may be deleted or inserted freely

All identifications preserve the subsequence of top-kind-0 symbols once
each is normalized to  sign * (+1 for d4, -1 for d5)  with centred symbols
kept as signed markers; that invariant soundly separates inequivalent
sequences.  Equivalence itself is semi-decided by bounded bidirectional
search over the rewrite graph, returning a witness trace when found.  The
search never expands o into a centred pair: it applies (iv) only to cancel.

The search runs on words, one character per symbol: a `str` state hashes
once and compares as memory, where a tuple of symbols rehashes every field.
Two tables built at import from the rules, the moves of one symbol and of an
adjacent pair, drive it.  The parent maps send each word to the word it was
found from, so a discovered state costs its word and one dict slot; the move
between two words is recovered by `step` only along the returned trace,
where it becomes symbols again.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from os.path import commonprefix

from .diagonals import CENTRE, LEFT, RIGHT, TOP_LOWER, TOP_UPPER, VISIBLE, ChiSymbol, empty_symbol


def visible_invariant(seq) -> tuple:
    """The rewrite-invariant normalized subsequence of top-kind-0 symbols."""
    out = []
    for sym in seq:
        if sym.is_empty or sym.top != VISIBLE:
            continue
        if sym.kind == CENTRE:
            out.append(("centre", sym.sign))
        else:
            out.append(("side", sym.sign * (1 if sym.kind == LEFT else -1)))
    return tuple(out)


@dataclass(frozen=True)
class RewriteStep:
    rule: str  # 'i', 'ii', 'iii', 'iv', 'v'
    position: int
    before: tuple
    after: tuple

    def describe(self) -> str:
        frm = ",".join(str(s) for s in self.before) or "(nothing)"
        to = ",".join(str(s) for s in self.after) or "(nothing)"
        return f"({self.rule}) at {self.position}: {frm} => {to}"


def _symbol_moves(sym):
    """(rule, replacement) for one symbol, in search order."""
    if sym.is_empty:
        if sym.sign > 0:  # (v): delete a bare empty; expand it into two negatives
            return [("v", ()), ("v", (empty_symbol(-1), empty_symbol(-1)))]
        # (ii): a negative empty expands to a two-symbol pair
        tops = ((TOP_LOWER, TOP_UPPER), (TOP_UPPER, TOP_LOWER))
        return [
            ("ii", (ChiSymbol(s, kind, t0), ChiSymbol(s, kind, t1)))
            for kind, s, (t0, t1) in product((LEFT, RIGHT), (1, -1), tops)
        ]
    if sym.kind in (LEFT, RIGHT):  # (i): subscript swap with sign flip
        return [("i", (ChiSymbol(-sym.sign, LEFT + RIGHT - sym.kind, sym.top),))]
    return []


def _pair_moves(a, b):
    """(rule, replacement) for two adjacent symbols, in search order."""
    if a.is_empty or b.is_empty:  # (v): merge two negative empties
        return [("v", (empty_symbol(1),))] if a == b == empty_symbol(-1) else []
    out = []
    sided = a.kind == b.kind and a.kind in (LEFT, RIGHT)
    topped = a.top in (TOP_LOWER, TOP_UPPER)
    # (ii): cancel a top pair on one side into a negative empty
    if sided and a.sign == b.sign and {a.top, b.top} == {TOP_LOWER, TOP_UPPER}:
        out.append(("ii", (empty_symbol(-1),)))
    # (iii): transpose an opposite-sign pair of equal topped symbols
    if sided and a.top == b.top and topped and a.sign == -b.sign:
        out.append(("iii", (b, a)))
    # (iv): cancel an equal centred pair into a bare empty
    if a.kind == CENTRE == b.kind and a.sign == b.sign and a.top == b.top and topped:
        out.append(("iv", (empty_symbol(1),)))
    return out


SYMBOLS = (empty_symbol(1), empty_symbol(-1)) + tuple(
    ChiSymbol(s, kind, top)
    for kind, s, top in product((LEFT, RIGHT, CENTRE), (1, -1), (VISIBLE, TOP_LOWER, TOP_UPPER))
)
_CHAR = {sym: chr(ord("A") + n) for n, sym in enumerate(SYMBOLS)}
_SYMBOL = {ch: sym for sym, ch in _CHAR.items()}
EMPTY_CHAR = _CHAR[empty_symbol(1)]


def encode(seq) -> str:
    return "".join(_CHAR[sym] for sym in seq)


def decode(word: str) -> tuple:
    return tuple(_SYMBOL[ch] for ch in word)


def _table(moves):
    return tuple((rule, encode(rep), len(rep)) for rule, rep in moves)


# symbol -> its moves, and adjacent pair -> its moves, as (rule, word, length)
SINGLE = {_CHAR[x]: _table(_symbol_moves(x)) for x in SYMBOLS}
PAIR = {_CHAR[x] + _CHAR[y]: _table(_pair_moves(x, y)) for x, y in product(SYMBOLS, repeat=2)}


def neighbours(word, max_len):
    """Each word one identification away: symbol moves, pair moves, then o
    insertions, each by position."""
    out = []
    n = len(word)
    for p, ch in enumerate(word):
        for _rule, rep, size in SINGLE[ch]:
            if n - 1 + size <= max_len:
                out.append(word[:p] + rep + word[p + 1 :])
    for p in range(n - 1):
        for _rule, rep, size in PAIR[word[p : p + 2]]:
            if n - 2 + size <= max_len:
                out.append(word[:p] + rep + word[p + 2 :])
    if n < max_len:  # (v): insert a bare empty anywhere
        for p in range(n + 1):
            out.append(word[:p] + EMPTY_CHAR + word[p:])
    return out


_INSERT = (("v", EMPTY_CHAR, 1),)


def step(word, nxt, max_len):
    """The first move, in `neighbours` order, that takes word to nxt, as
    (rule, position, width, replacement).

    A move at p of width w keeps word[:p] and word[p + w:], so p lies
    between len(word) - w - (common suffix) and the common prefix; only
    those positions are tried."""
    n = len(word)
    if len(nxt) <= max_len:  # every move to nxt makes a word of nxt's length
        prefix = len(commonprefix((word, nxt)))
        suffix = len(commonprefix((word[::-1], nxt[::-1])))
        for width in (1, 2, 0):
            for p in range(max(0, n - width - suffix), min(prefix, n - width) + 1):
                moves = SINGLE[word[p]] if width == 1 else PAIR[word[p : p + 2]] if width else _INSERT
                for rule, rep, _size in moves:
                    if word[:p] + rep + word[p + width :] == nxt:
                        return rule, p, width, rep
    raise ValueError(f"no move within length {max_len} takes {word!r} to {nxt!r}")


@dataclass
class EquivalenceReport:
    status: str  # 'equivalent' / 'inequivalent' / 'unknown'
    trace: list[RewriteStep] | None = None
    separating_invariant: tuple | None = None
    states: int = 0  # states the search discovered, both starts included; 0 if none ran
    depth: int = 0  # search levels completed

    @property
    def rules_used(self) -> set[str]:
        return {step.rule for step in self.trace} if self.trace else set()


def build_trace(fwd, bwd, meet, max_len) -> list[RewriteStep]:
    """The steps from the forward start through meet to the backward start;
    each parent map sends a word to the word it was found from, or None."""
    steps, cur = [], meet
    while fwd[cur] is not None:
        prev = fwd[cur]
        rule, pos, width, rep = step(prev, cur, max_len)
        steps.append(RewriteStep(rule, pos, decode(prev[pos : pos + width]), decode(rep)))
        cur = prev
    steps.reverse()
    cur = meet
    while bwd[cur] is not None:  # backward steps inverted, so the trace reads a -> b
        prev = bwd[cur]
        rule, pos, width, rep = step(prev, cur, max_len)
        steps.append(RewriteStep(rule, pos, decode(rep), decode(prev[pos : pos + width])))
        cur = prev
    return steps


def chi_equivalent(a, b, depth: int = 8, max_states: int = 200_000) -> EquivalenceReport:
    """Semi-decision for sequence equivalence.

    Returns 'inequivalent' only with the separating invariant as witness,
    'equivalent' only with a full rewrite trace from a to b, and 'unknown'
    when the bounded bidirectional search exhausts its budget.
    """
    if depth < 0:
        raise ValueError(f"depth: must be at least 0, got {depth}")
    if max_states < 0:
        raise ValueError(f"max_states: must be at least 0, got {max_states}")
    a, b = tuple(a), tuple(b)
    va, vb = visible_invariant(a), visible_invariant(b)
    if va != vb:
        return EquivalenceReport("inequivalent", separating_invariant=(va, vb))
    if a == b:
        return EquivalenceReport("equivalent", trace=[])
    if all(not s.is_empty and s.top == VISIBLE for s in a + b):
        # on this fragment the invariant is complete: only the subscript
        # swap applies, so matching invariants give a direct (i)-trace
        trace = [RewriteStep("i", p, (x,), (y,)) for p, (x, y) in enumerate(zip(a, b)) if x != y]
        return EquivalenceReport("equivalent", trace=trace)

    max_len = max(len(a), len(b)) + 2 * depth
    wa, wb = encode(a), encode(b)
    # parents map each discovered word to the word it was found from
    fwd, bwd = {wa: None}, {wb: None}
    frontier_f, frontier_b = [wa], [wb]
    states = 2
    for level in range(depth):
        if not frontier_f and not frontier_b:
            return EquivalenceReport("unknown", states=states, depth=level)
        for frontier, seen, other in ((frontier_f, fwd, bwd), (frontier_b, bwd, fwd)):
            new_frontier = []
            for state in frontier:
                for nxt in neighbours(state, max_len):
                    if nxt in seen:
                        continue
                    seen[nxt] = state
                    states += 1
                    if nxt in other:
                        trace = build_trace(fwd, bwd, nxt, max_len)
                        return EquivalenceReport("equivalent", trace, states=states, depth=level)
                    new_frontier.append(nxt)
                    if states > max_states:
                        return EquivalenceReport("unknown", states=states, depth=level)
            frontier[:] = new_frontier
    return EquivalenceReport("unknown", states=states, depth=depth)
