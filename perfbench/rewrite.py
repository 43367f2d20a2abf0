"""Rules i-v of chercomb's chi equivalence, on the text form of a sequence.

A sequence is a tuple of tokens as `format_chi` writes them: `+d4^0`,
`-d6^2`, `o`, `-o`.  The rules follow the docstring of
`chercomb.equivalence`; each identification holds in both directions:

  (i)   +-d4^j  <->  -+d5^j
  (ii)  -o  <->  (s dk^2, s dk^3) in either order, k in {4,5}
  (iii) (+dk^j, -dk^j)  <->  (-dk^j, +dk^j), j in {2,3}, k in {4,5}
  (iv)  o  <->  (s d6^j, s d6^j), j in {2,3}
  (v)   o  <->  (-o, -o), and o may be deleted or inserted anywhere

This module shares no code with `chercomb.equivalence`, so a change to the
search can change neither the walks the benchmark feeds it nor the check
applied to the traces it returns.
"""

from __future__ import annotations

import random

SIGNS = ("+", "-")


def _sym(sign: str, kind: int, top: int) -> str:
    return f"{sign}d{kind}^{top}"


def _flip(sign: str) -> str:
    return "-" if sign == "+" else "+"


def _rule_table() -> dict[str, frozenset]:
    table: dict[str, set] = {rule: set() for rule in ("i", "ii", "iii", "iv", "v")}

    def both(rule, lhs, rhs):
        table[rule].add((lhs, rhs))
        table[rule].add((rhs, lhs))

    for s in SIGNS:
        for j in (0, 2, 3):
            both("i", (_sym(s, 4, j),), (_sym(_flip(s), 5, j),))
        for k in (4, 5):
            both("ii", ("-o",), (_sym(s, k, 2), _sym(s, k, 3)))
            both("ii", ("-o",), (_sym(s, k, 3), _sym(s, k, 2)))
        for j in (2, 3):
            both("iv", ("o",), (_sym(s, 6, j), _sym(s, 6, j)))
    for k in (4, 5):
        for j in (2, 3):
            both("iii", (_sym("+", k, j), _sym("-", k, j)), (_sym("-", k, j), _sym("+", k, j)))
    both("v", ("o",), ("-o", "-o"))
    both("v", ("o",), ())
    return {rule: frozenset(pairs) for rule, pairs in table.items()}


RULES = _rule_table()


def tokens(text: str) -> tuple[str, ...]:
    return tuple(t.strip() for t in text.split(",") if t.strip())


def moves(seq: tuple[str, ...]) -> dict[str, list[tuple[int, tuple, tuple]]]:
    """Every one-step rewrite of seq, by rule, as (position, before, after)."""
    out: dict[str, list] = {}
    for rule, pairs in RULES.items():
        found = []
        for lhs, rhs in sorted(pairs):
            width = len(lhs)
            for pos in range(len(seq) - width + 1):
                if seq[pos : pos + width] == lhs:
                    found.append((pos, lhs, rhs))
        if found:
            out[rule] = found
    return out


def apply(seq: tuple[str, ...], pos: int, before: tuple, after: tuple) -> tuple[str, ...]:
    return seq[:pos] + after + seq[pos + len(before) :]


def walk(seq: tuple[str, ...], steps: int, rng: random.Random) -> tuple[str, ...]:
    """A random rewrite walk: each step picks an applicable rule uniformly,
    then one of its moves uniformly."""
    for _ in range(steps):
        options = moves(seq)
        rule = rng.choice(sorted(options))
        pos, before, after = rng.choice(options[rule])
        seq = apply(seq, pos, before, after)
    return seq


class BadTrace(ValueError):
    """A rewrite trace that does not lead from a to b by rules i-v."""


def replay(a: tuple[str, ...], b: tuple[str, ...], trace) -> set[str]:
    """Apply trace, a list of (rule, position, before, after), to a.

    Raises BadTrace unless every step is an instance of its rule at a
    position where `before` occurs and the last state is b.  Returns the
    rules used.
    """
    seq = a
    for n, (rule, pos, before, after) in enumerate(trace):
        if (before, after) not in RULES.get(rule, ()):
            raise BadTrace(f"step {n}: {before} => {after} is not an instance of rule {rule!r}")
        if seq[pos : pos + len(before)] != before:
            raise BadTrace(f"step {n}: {before} does not occur at {pos} of {','.join(seq)}")
        seq = apply(seq, pos, before, after)
    if seq != b:
        raise BadTrace(f"trace ends at {','.join(seq)}, not {','.join(b)}")
    return {step[0] for step in trace}
