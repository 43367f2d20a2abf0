"""Integer Laurent polynomials in a single variable t, stored sparsely.

Graded dimensions and decomposition numbers live here.  The bar involution
(t -> 1/t) and the bar split used by the character-peeling engine are the
only operations beyond ring arithmetic.
"""

from __future__ import annotations


class PositivityViolation(Exception):
    """A bar split produced a negative coefficient or misplaced support."""


class LaurentPoly:
    """Sparse Laurent polynomial with integer coefficients.

    Coefficients are kept in a dict exponent -> nonzero coefficient, so
    equality is coefficient-wise and the representation is canonical.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        if coeffs is None:
            coeffs = {}
        self.coeffs = {e: c for e, c in dict(coeffs).items() if c != 0}

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "LaurentPoly":
        return LaurentPoly()

    @staticmethod
    def one() -> "LaurentPoly":
        return LaurentPoly({0: 1})

    @staticmethod
    def monomial(exp: int, coeff: int = 1) -> "LaurentPoly":
        return LaurentPoly({exp: coeff})

    # -- ring structure ----------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return LaurentPoly(out)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) - c
        return LaurentPoly(out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: -c for e, c in self.coeffs.items()})

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        out: dict[int, int] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPoly(out)

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    # -- queries -----------------------------------------------------------

    def constant_term(self) -> int:
        return self.coeffs.get(0, 0)

    def exponents(self):
        return sorted(self.coeffs)

    def has_nonnegative_coeffs(self) -> bool:
        return all(c >= 0 for c in self.coeffs.values())

    def is_bar_invariant(self) -> bool:
        return self == self.bar()

    def in_positive_degrees(self) -> bool:
        """True iff supported on strictly positive exponents (0 allowed only if zero)."""
        return all(e > 0 for e in self.coeffs)

    # -- bar machinery -----------------------------------------------------

    def bar(self) -> "LaurentPoly":
        """The involution t -> 1/t (exponent negation)."""
        return LaurentPoly({-e: c for e, c in self.coeffs.items()})

    def bar_split(self) -> tuple["LaurentPoly", "LaurentPoly"]:
        """Split self = d + l with l bar-invariant, d in t.Z>=0[t].

        The bar-invariant part is forced: its negative-exponent half copies
        self's, mirrored onto positive exponents, and its constant term is
        self's constant term.  Raises PositivityViolation when the leftover
        d is not a polynomial in t with nonnegative coefficients and zero
        constant term, which signals either a bug or use outside the
        guarantee that makes the split meaningful.
        """
        invariant: dict[int, int] = {}
        for e, c in self.coeffs.items():
            if e < 0:
                invariant[e] = c
                invariant[-e] = c
        c0 = self.constant_term()
        if c0:
            invariant[0] = c0
        l = LaurentPoly(invariant)
        d = self - l
        if not d.in_positive_degrees():
            raise PositivityViolation(
                f"bar split of {self} leaves nonpositive support in {d}"
            )
        if not d.has_nonnegative_coeffs():
            raise PositivityViolation(
                f"bar split of {self} leaves negative coefficient in {d}"
            )
        return d, l

    # -- formatting --------------------------------------------------------

    def __repr__(self):
        return f"LaurentPoly({self.coeffs!r})"

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for e in self.exponents():
            c = self.coeffs[e]
            if e == 0:
                term = str(c)
            else:
                mag = abs(c)
                body = "t" if e == 1 else f"t^{e}"
                term = body if mag == 1 else f"{mag}*{body}"
                if c < 0:
                    term = "-" + term
            if parts and not term.startswith("-"):
                parts.append("+" + term)
            else:
                parts.append(term)
        return "".join(parts)

    def to_sorted_dict(self) -> dict[str, int]:
        """JSON-friendly form: exponent (as string) -> coefficient, ascending."""
        return {str(e): self.coeffs[e] for e in self.exponents()}

    def to_latex(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for e in self.exponents():
            c = self.coeffs[e]
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                power = "t" if e == 1 else "t^{%d}" % e
                body = power if mag == 1 else f"{mag}{power}"
            sign = "-" if c < 0 else ("+" if parts else "")
            parts.append(sign + body)
        return "".join(parts)
