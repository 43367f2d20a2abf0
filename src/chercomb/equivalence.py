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
search over the rewrite graph, returning a witness trace when found.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _apply(seq, pos, width, replacement):
    return seq[:pos] + tuple(replacement) + seq[pos + width :]


def neighbours(seq, max_len):
    """All sequences one identification away, tagged with the step taken."""
    out = []

    def emit(rule, pos, width, replacement):
        new = _apply(seq, pos, width, replacement)
        if len(new) <= max_len:
            out.append((new, RewriteStep(rule, pos, seq[pos : pos + width], tuple(replacement))))

    n = len(seq)
    for p, sym in enumerate(seq):
        if sym.is_empty:
            # (v): delete a bare empty; expand it into two negatives
            if sym.sign > 0:
                emit("v", p, 1, ())
                emit("v", p, 1, (empty_symbol(-1), empty_symbol(-1)))
            else:
                # (ii): a negative empty expands to a two-symbol pair
                for kind in (LEFT, RIGHT):
                    for s in (1, -1):
                        for tops in ((TOP_LOWER, TOP_UPPER), (TOP_UPPER, TOP_LOWER)):
                            emit(
                                "ii",
                                p,
                                1,
                                (ChiSymbol(s, kind, tops[0]), ChiSymbol(s, kind, tops[1])),
                            )
            continue
        # (i): subscript swap with sign flip
        if sym.kind == LEFT:
            emit("i", p, 1, (ChiSymbol(-sym.sign, RIGHT, sym.top),))
        elif sym.kind == RIGHT:
            emit("i", p, 1, (ChiSymbol(-sym.sign, LEFT, sym.top),))

    for p in range(n - 1):
        a, b = seq[p], seq[p + 1]
        if a.is_empty or b.is_empty:
            # (v): merge two negative empties
            if a.is_empty and b.is_empty and a.sign < 0 and b.sign < 0:
                emit("v", p, 2, (empty_symbol(1),))
            continue
        # (ii): cancel a top pair on one side into a negative empty
        if (
            a.kind == b.kind
            and a.kind in (LEFT, RIGHT)
            and a.sign == b.sign
            and {a.top, b.top} == {TOP_LOWER, TOP_UPPER}
        ):
            emit("ii", p, 2, (empty_symbol(-1),))
        # (iii): transpose an opposite-sign pair of equal topped symbols
        if (
            a.kind == b.kind
            and a.kind in (LEFT, RIGHT)
            and a.top == b.top
            and a.top in (TOP_LOWER, TOP_UPPER)
            and a.sign == -b.sign
        ):
            emit("iii", p, 2, (b, a))
        # (iv): cancel an equal centred pair into a bare empty
        if (
            a.kind == CENTRE
            and b.kind == CENTRE
            and a.sign == b.sign
            and a.top == b.top
            and a.top in (TOP_LOWER, TOP_UPPER)
        ):
            emit("iv", p, 2, (empty_symbol(1),))

    # (v): insert a bare empty anywhere
    for p in range(n + 1):
        emit("v", p, 0, (empty_symbol(1),))
    return out


@dataclass
class EquivalenceReport:
    status: str  # 'equivalent' / 'inequivalent' / 'unknown'
    trace: list[RewriteStep] | None = None
    separating_invariant: tuple | None = None

    @property
    def rules_used(self) -> set[str]:
        return {step.rule for step in self.trace} if self.trace else set()


def chi_equivalent(a, b, depth: int = 8, max_states: int = 200_000) -> EquivalenceReport:
    """Semi-decision for sequence equivalence.

    Returns 'inequivalent' only with the separating invariant as witness,
    'equivalent' only with a full rewrite trace from a to b, and 'unknown'
    when the bounded bidirectional search exhausts its budget.
    """
    a, b = tuple(a), tuple(b)
    if visible_invariant(a) != visible_invariant(b):
        return EquivalenceReport(
            "inequivalent",
            separating_invariant=(visible_invariant(a), visible_invariant(b)),
        )
    if a == b:
        return EquivalenceReport("equivalent", trace=[])

    def all_visible(seq):
        return all(not s.is_empty and s.top == VISIBLE for s in seq)

    if all_visible(a) and all_visible(b):
        # on this fragment the invariant is complete: only the subscript
        # swap applies, so matching invariants give a direct (i)-trace
        trace = [
            RewriteStep("i", p, (x,), (y,))
            for p, (x, y) in enumerate(zip(a, b))
            if x != y
        ]
        return EquivalenceReport("equivalent", trace=trace)

    max_len = max(len(a), len(b)) + 2 * depth
    # parents map each discovered state to (previous state, step)
    fwd: dict = {a: None}
    bwd: dict = {b: None}
    frontier_f, frontier_b = [a], [b]
    states = 2

    def build_trace(meet):
        steps = []
        cur = meet
        while fwd[cur] is not None:
            prev, step = fwd[cur]
            steps.append(step)
            cur = prev
        steps.reverse()
        cur = meet
        while bwd[cur] is not None:
            prev, step = bwd[cur]
            # invert the backward step so the trace reads a -> b
            steps.append(
                RewriteStep(step.rule, step.position, step.after, step.before)
            )
            cur = prev
        return steps

    for _ in range(depth):
        if not frontier_f and not frontier_b:
            break
        for frontier, seen, other in ((frontier_f, fwd, bwd), (frontier_b, bwd, fwd)):
            new_frontier = []
            for state in frontier:
                for nxt, step in neighbours(state, max_len):
                    if nxt in seen:
                        continue
                    seen[nxt] = (state, step)
                    states += 1
                    if nxt in other:
                        return EquivalenceReport("equivalent", trace=build_trace(nxt))
                    new_frontier.append(nxt)
                    if states > max_states:
                        return EquivalenceReport("unknown")
            frontier[:] = new_frontier
    return EquivalenceReport("unknown")
