"""Character peeling: graded decomposition matrices from standard characters.

Over a linear extension of the dominance order, each row is forced from
its graded standard characters and its own entries: subtracting the known
composition factors leaves  d + l,  l bar-invariant (a simple character)
and d in strictly positive degrees (a decomposition number), and that
split is unique.  This engine is the independent cross-check for the
closed lattice-path formula.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations_with_replacement
from typing import Callable, NamedTuple

from .gamma import GammaContext
from .laurent import LaurentPoly
from .tableaux import delta_character
from .terrain import field_validity, nested_decomposition_number


class NonSaturatedPoset(ValueError):
    """A nonzero character on (lam, mu) with mu not placed below lam."""


class EngineDisagreement(AssertionError):
    """The two decomposition-number engines returned different answers."""


class InvariantViolation(AssertionError):
    """A peeled matrix or its reassembly broke a structural invariant."""


ENGINES = ("nested", "kn", "both")


@dataclass
class DecompositionMatrix:
    """Entries d[(lam, mu)] and simple characters simple[(nu, mu)] over an
    ordered index set; absent keys are zero."""

    order: list
    d: dict = field(default_factory=dict)
    simple: dict = field(default_factory=dict)

    def entry(self, lam, mu) -> LaurentPoly:
        return self.d.get((lam, mu), LaurentPoly.zero())

    def simple_character(self, nu, mu) -> LaurentPoly:
        return self.simple.get((nu, mu), LaurentPoly.zero())

    def check_invariants(self, leq: Callable) -> None:
        one = LaurentPoly.one()
        for lam in self.order:
            if self.entry(lam, lam) != one:
                raise InvariantViolation(f"diagonal entry at {lam} is {self.entry(lam, lam)}")
        for (lam, mu), val in self.d.items():
            if lam == mu:
                continue
            if val and not leq(mu, lam):
                raise InvariantViolation(f"nonzero entry {val} on incomparable pair")
            if not (val.in_positive_degrees() and val.has_nonnegative_coeffs()):
                raise InvariantViolation(f"entry d[{lam},{mu}] = {val} not in t.N[t]")
        for (nu, mu), val in self.simple.items():
            if not (val.is_bar_invariant() and val.has_nonnegative_coeffs()):
                raise InvariantViolation(f"simple character at ({nu},{mu}) = {val} invalid")


def peel_matrix(order, leq, characters) -> DecompositionMatrix:
    """Run the peeling recursion over an explicitly given poset.

    order       linear extension of the dominance order (most dominant first)
    leq         leq(mu, lam) for the dominance order
    characters  (lam, mu) -> LaurentPoly, the graded standard characters

    Rows are peeled bottom up, each left to right.  Each mu before lam (in
    a linear extension none is below lam) and each later mu with leq(mu,
    lam) false is a saturation probe: its character must vanish, else
    NonSaturatedPoset.  For mu below lam the character is corrected by
    d[lam, xi] * simple[xi, mu] over this row's nonzero entries so far, as
    simple[xi, mu] is stored only when mu <= xi.  Characters are asked once
    per ordered pair and leq once per pair with mu after lam; the entries
    are checked (check_invariants) against those recorded answers.  Any
    linear extension gives the same result, since the split is unique.
    """
    matrix = DecompositionMatrix(order=list(order))
    one = LaurentPoly.one()
    below = set()  # (lam, mu) with mu after lam and leq(mu, lam) true
    for i in reversed(range(len(order))):
        lam = order[i]
        matrix.d[(lam, lam)] = one
        matrix.simple[(lam, lam)] = one
        row = []  # (xi, d[lam, xi]) for this row's nonzero entries so far
        for j, mu in enumerate(order):
            if j == i:
                continue
            f = characters(lam, mu)
            if j < i or not leq(mu, lam):
                if f:
                    msg = f"nonzero character on ({lam}, {mu}): an incomparable pair, or mu before lam"
                    raise NonSaturatedPoset(msg)
                continue
            below.add((lam, mu))
            for xi, d_lx in row:
                if (xi, mu) in matrix.simple:
                    f = f - d_lx * matrix.simple[(xi, mu)]
            d, l = f.bar_split()
            if d:
                matrix.d[(lam, mu)] = d
                row.append((mu, d))
            if l:
                matrix.simple[(lam, mu)] = l
    matrix.check_invariants(lambda mu, lam: (lam, mu) in below)
    return matrix


def verify_reassembly(matrix: DecompositionMatrix, leq, characters) -> None:
    """Check Dim Delta_mu(nu) = sum_xi d[nu,xi] * DimL_mu(xi) exactly."""
    order = matrix.order
    pos = {x: i for i, x in enumerate(order)}
    for nu in order:
        for mu in order:
            if pos[mu] < pos[nu] or not leq(mu, nu):
                continue
            total = LaurentPoly.zero()
            for xi in order:
                if pos[nu] <= pos[xi] <= pos[mu] and leq(xi, nu) and leq(mu, xi):
                    total = total + matrix.entry(nu, xi) * matrix.simple_character(xi, mu)
            expected = characters(nu, mu)
            if total != expected:
                raise InvariantViolation(
                    f"reassembly fails at ({nu}, {mu}): {total} != {expected}"
                )


def gamma_characters(gctx: GammaContext):
    """Standard characters over a GammaContext, as a callable for peel_matrix."""

    def characters(lam, mu) -> LaurentPoly:
        return delta_character(lam, mu, gctx.ctx, gctx=gctx)

    return characters


def gamma_peel_matrix(gctx: GammaContext) -> DecompositionMatrix:
    """Full decomposition matrix of the subquotient indexed by the context."""
    return peel_matrix(gctx.elements, gctx.leq, gamma_characters(gctx))


def interval_peel_matrix(lam, mu, gctx: GammaContext) -> DecompositionMatrix:
    """Peel only the dominance interval [mu, lam], which is self-contained:
    characters vanish outside it, so the recursion never looks elsewhere.

    The interval is [lam] when mu == lam and empty when mu is not below
    lam, so entry(lam, mu) is then 1 or 0 without a character computed.
    Only the members from lam to mu along the order are scanned: none is
    scanned when mu comes before lam.
    """
    # in a linear extension every member of [mu, lam] lies between the two
    gctx.require(lam)
    gctx.require(mu)
    between = gctx.elements[gctx.index[lam] : gctx.index[mu] + 1]
    members = [xi for xi in between if gctx.leq(xi, lam) and gctx.leq(mu, xi)]
    return peel_matrix(members, gctx.leq, gamma_characters(gctx))


def _require_engine(engine: str) -> None:
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}")


def _disagreement(lam, mu, nested, peeled) -> EngineDisagreement:
    return EngineDisagreement(f"d[{lam},{mu}]: nested gives {nested}, peeling gives {peeled}")


def family_entries(gctx: GammaContext, engine: str) -> dict:
    """Nonzero decomposition numbers d[(lam, mu)] over the whole family,
    lam-major along the order at every engine.

    Each pair with mu at or after lam is read, and no pair list is built:
    the order is a linear extension, so every mu <= lam is among them.
    The engines decide dominance: nested is zero off the order, and so is
    the peel (check_invariants), so an entry is kept iff it is nonzero.
    Engines as in decomp_number; 'both' raises EngineDisagreement at the
    first pair where the engines differ, incomparable pairs included.
    Equal values are one shared LaurentPoly: a family has far fewer
    distinct decomposition numbers than nonzero entries.  Only the values
    are computed: field validity is the family's, not an entry's.
    """
    _require_engine(engine)
    peeled = gamma_peel_matrix(gctx) if engine != "nested" else None
    shared: dict = {}
    entries = {}
    for lam, mu in combinations_with_replacement(gctx.elements, 2):
        if engine == "kn":
            value = peeled.entry(lam, mu)
        else:
            value = nested_decomposition_number(lam, mu, gctx).value
            if peeled is not None and value != peeled.entry(lam, mu):
                raise _disagreement(lam, mu, value, peeled.entry(lam, mu))
        if value:
            entries[(lam, mu)] = shared.setdefault(value, value)
    return entries


class DecompResult(NamedTuple):
    value: LaurentPoly
    nested: LaurentPoly | None
    peeled: LaurentPoly | None
    valid_any_field: bool | None

    @property
    def agree(self) -> bool:
        return self.nested is None or self.peeled is None or self.nested == self.peeled


def decomp_number(lam, mu, gctx: GammaContext, engine: str = "both") -> DecompResult:
    """Graded decomposition number d_{lam,mu} by the chosen engine.

    Engine 'nested' is the closed lattice-path formula, 'kn' the
    character-peeling recursion, 'both' runs the two independently and
    insists on exact agreement.  valid_any_field is the family's flag,
    read once here (`field_validity`): None when several residues are
    added.
    """
    gctx.require(lam)
    gctx.require(mu)
    _require_engine(engine)
    nested = nested_decomposition_number(lam, mu, gctx).value if engine != "kn" else None
    peeled = interval_peel_matrix(lam, mu, gctx).entry(lam, mu) if engine != "nested" else None
    if nested is not None and peeled is not None and nested != peeled:
        raise _disagreement(lam, mu, nested, peeled)
    return DecompResult(peeled if nested is None else nested, nested, peeled, field_validity(gctx))
