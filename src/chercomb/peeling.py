"""Character peeling: graded decomposition matrices from standard characters.

Over a dominance-ordered index set with known graded standard characters,
simple characters and decomposition numbers are forced one interval at a
time: subtracting the already-known composition factors from a standard
character leaves  d + l  with l bar-invariant (a simple character) and d
supported in strictly positive degrees (a decomposition number), and that
split is unique.  This engine is the independent cross-check for the
closed lattice-path formula.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from .gamma import GammaContext
from .laurent import LaurentPoly
from .tableaux import delta_character
from .terrain import NestedResult, field_validity, nested_decomposition_number


class NonSaturatedPoset(ValueError):
    """A nonzero character showed up on an incomparable pair."""


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


def peel_matrix(order, leq, characters, length=None) -> DecompositionMatrix:
    """Run the peeling recursion over an explicitly given poset.

    order       linear extension of the dominance order (most dominant first)
    leq         leq(mu, lam) for the dominance order
    characters  (lam, mu) -> LaurentPoly, the graded standard characters
    length      optional (lam, mu) -> int controlling processing order;
                defaults to distance in the linear extension

    Pairs are processed by increasing length so every strictly intermediate
    decomposition number and simple character exists when needed.
    """
    pos = {x: i for i, x in enumerate(order)}
    if length is None:
        length = lambda lam, mu: pos[mu] - pos[lam]

    def char(lam, mu) -> LaurentPoly:
        val = characters(lam, mu)
        if val and lam != mu and not leq(mu, lam):
            raise NonSaturatedPoset(
                f"nonzero character on incomparable pair ({lam}, {mu})"
            )
        return val

    comparable = []
    for lam in order:
        for mu in order:
            if lam is mu or lam == mu:
                continue
            if not leq(mu, lam):
                # saturation probe: a nonzero character forces comparability
                char(lam, mu)
            elif pos[mu] >= pos[lam]:
                comparable.append((lam, mu))
    comparable.extend((x, x) for x in order)
    comparable.sort(key=lambda p: length(*p))

    matrix = DecompositionMatrix(order=list(order))
    one = LaurentPoly.one()
    below: dict = {x: [y for y in order if pos[y] >= pos[x]] for x in order}
    for lam, mu in comparable:
        if lam == mu:
            matrix.d[(lam, mu)] = one
            matrix.simple[(lam, mu)] = one
            continue
        f = char(lam, mu)
        for xi in below[lam]:
            if xi == lam or xi == mu:
                continue
            if not (leq(xi, lam) and leq(mu, xi)):
                continue
            d_lx = matrix.d.get((lam, xi))
            if d_lx:
                l_xm = matrix.simple.get((xi, mu))
                if l_xm:
                    f = f - d_lx * l_xm
        d, l = f.bar_split()
        if d:
            matrix.d[(lam, mu)] = d
        if l:
            matrix.simple[(lam, mu)] = l
    matrix.check_invariants(leq)
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
    cache: dict = {}

    def characters(lam, mu) -> LaurentPoly:
        key = (lam, mu)
        if key not in cache:
            cache[key] = delta_character(lam, mu, gctx.ctx, gctx=gctx)
        return cache[key]

    return characters


def gamma_peel_matrix(gctx: GammaContext, characters=None) -> DecompositionMatrix:
    """Full decomposition matrix of the subquotient indexed by the context.

    characters  (lam, mu) -> LaurentPoly; defaults to gamma_characters(gctx)
    """
    if characters is None:
        characters = gamma_characters(gctx)
    return peel_matrix(gctx.elements, gctx.leq, characters, length=_sigma_length(gctx))


def interval_peel_matrix(lam, mu, gctx: GammaContext) -> DecompositionMatrix:
    """Peel only the dominance interval [mu, lam], which is self-contained:
    characters vanish outside it, so the recursion never looks elsewhere."""
    members = [xi for xi in gctx.elements if gctx.leq(xi, lam) and gctx.leq(mu, xi)]
    return peel_matrix(members, gctx.leq, gamma_characters(gctx), length=_sigma_length(gctx))


def _sigma_length(gctx: GammaContext):
    """Peel order of a single-residue family: the total slot distance from
    lam's added nodes to mu's; None (order distance) otherwise."""
    if not (gctx.single_residue and gctx.multiset):
        return None
    r = gctx.residue

    def length(lam, mu) -> int:
        a = gctx.added_positions(lam)[r]
        b = gctx.added_positions(mu)[r]
        return sum(y - x for x, y in zip(a, b))

    return length


def family_entries(gctx: GammaContext, engine: str, characters=None) -> dict:
    """Nonzero decomposition numbers d[(lam, mu)] over the whole family.

    Engines as in decomp_number; 'both' raises EngineDisagreement at the
    first pair, lam-major along the order, where the engines differ.
    characters is passed to gamma_peel_matrix for 'kn' and 'both'.
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}")
    peeled = gamma_peel_matrix(gctx, characters) if engine != "nested" else None
    if engine == "kn":
        return peeled.d
    entries = {}
    for lam, mu in gctx.comparable_pairs():
        value = nested_decomposition_number(lam, mu, gctx).value
        if peeled is not None and value != peeled.entry(lam, mu):
            raise EngineDisagreement(
                f"d[{lam},{mu}]: nested gives {value}, peeling gives {peeled.entry(lam, mu)}"
            )
        if value:
            entries[(lam, mu)] = value
    return entries


class DecompResult(NamedTuple):
    value: LaurentPoly
    engine: str
    nested: LaurentPoly | None
    peeled: LaurentPoly | None
    valid_any_field: bool | None

    @property
    def agree(self) -> bool:
        return self.nested is None or self.peeled is None or self.nested == self.peeled


def decomp_number(lam, mu, gctx: GammaContext, engine: str = "both") -> DecompResult:
    """Graded decomposition number d_{lam,mu} by the chosen engine.

    Engine 'nested' is the closed lattice-path formula (single-residue
    contexts), 'kn' the character-peeling recursion, 'both' runs the two
    independently and insists on exact agreement.
    """
    gctx.require(lam)
    gctx.require(mu)
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}")
    nested: NestedResult | None = None
    peeled: LaurentPoly | None = None
    if engine in ("nested", "both"):
        nested = nested_decomposition_number(lam, mu, gctx)
    if engine in ("kn", "both"):
        if lam == mu:
            peeled = LaurentPoly.one()
        elif not gctx.leq(mu, lam):
            peeled = LaurentPoly.zero()
        else:
            matrix = interval_peel_matrix(lam, mu, gctx)
            peeled = matrix.entry(lam, mu)
    if engine == "both" and nested.value != peeled:
        raise EngineDisagreement(
            f"d[{lam},{mu}]: nested gives {nested.value}, peeling gives {peeled}"
        )
    value = nested.value if nested is not None else peeled
    flag = None
    if nested is not None:
        flag = nested.valid_any_field
    elif gctx.single_residue:
        flag = field_validity(gctx)
    return DecompResult(value, engine, nested.value if nested else None, peeled, flag)
