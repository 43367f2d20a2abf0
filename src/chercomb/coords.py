"""Exact x-coordinates with a symbolic infinitesimal tilt.

Every point used by the geometry (node vertices, ghost offsets, red lines)
has the form  q + m*eps  with q rational and m a nonnegative integer.
The tilt eps is never given a number: it is positive and smaller than every
rational gap that can occur, so comparison is lexicographic on (q, m).
A numeric rendering mode substitutes a user-supplied value for display.

ExactCoord stays the exact definition; `ParamContext.node_key` is its
packed order, an int per node for the tableau degree's inner loop.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple


def as_fraction(value) -> Fraction:
    """Ingest a rational given as Fraction, int, or string ('3/4', '0.99');
    a boolean is refused, not taken as 0 or 1."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, float):
        # floats are accepted but converted via str to keep '0.99' exact
        return Fraction(str(value))
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


class ExactCoord(NamedTuple):
    """A point q + m*eps on the tilted real line.

    NamedTuple field order gives the lexicographic total order directly.
    """

    base: Fraction
    eps: int

    def shift(self, dq) -> "ExactCoord":
        """Translate by a rational amount (eps part untouched)."""
        return ExactCoord(self.base + dq, self.eps)

    def numeric(self, eps_value=Fraction(1, 100)) -> Fraction:
        """Substitute a concrete tilt, for display only."""
        return self.base + self.eps * as_fraction(eps_value)

    def __str__(self):
        if self.eps == 0:
            return str(self.base)
        if self.base == 0:
            return f"{self.eps}e"
        return f"{self.base}+{self.eps}e"


def coord(base, eps: int = 0) -> ExactCoord:
    return ExactCoord(as_fraction(base), eps)
