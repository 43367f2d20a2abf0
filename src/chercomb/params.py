"""Global algebra parameters: quantum characteristic, multicharge, weighting.

The quantum characteristic is a finite integer e >= 3 or infinity (stored
as None); e = 2 is rejected because every later construction assumes the
three residue classes i-1, i, i+1 are distinct.  A weighting is valid when
no difference theta_i - theta_j is an integer multiple of the scale g.
"""

from __future__ import annotations

from fractions import Fraction

from .coords import ExactCoord, as_fraction
from .partitions import Node


class ValidationError(ValueError):
    """A context failed validation; the message carries the field path."""


INFINITY_TOKENS = {"infinity", "inf", "oo", None}


def parse_quantum_char(value):
    """Normalize a quantum characteristic to int >= 3 or None (= infinity)."""
    if value in INFINITY_TOKENS or value == float("inf"):
        return None
    e = int(value)
    if e < 3:
        raise ValidationError(
            f"e: quantum characteristic must be >= 3 or infinity, got {e}"
        )
    return e


class ParamContext:
    """Parameters (e, level, multicharge, weighting, scale) plus helpers."""

    __slots__ = ("e", "level", "multicharge", "theta", "g")

    def __init__(self, e, multicharge, theta, g):
        self.e = parse_quantum_char(e)
        self.multicharge = tuple(self.residue(int(k)) for k in multicharge)
        self.theta = tuple(as_fraction(x) for x in theta)
        self.g = as_fraction(g)
        self.level = len(self.multicharge)
        self._validate()

    def _validate(self):
        if self.level < 1:
            raise ValidationError("multicharge: level must be at least 1")
        if len(self.theta) != self.level:
            raise ValidationError(
                f"theta: expected {self.level} entries, got {len(self.theta)}"
            )
        if self.g <= 0:
            raise ValidationError(f"g: scale must be positive, got {self.g}")
        for i in range(self.level):
            for j in range(i + 1, self.level):
                diff = self.theta[i] - self.theta[j]
                if (diff / self.g).denominator == 1:
                    raise ValidationError(
                        f"theta: theta_{i+1}-theta_{j+1} = {diff} is an "
                        f"integer multiple of g = {self.g}"
                    )

    # -- residue arithmetic --------------------------------------------------

    @property
    def finite(self) -> bool:
        return self.e is not None

    def residue(self, value: int) -> int:
        return value % self.e if self.e is not None else value

    def residue_of(self, node: Node) -> int:
        """Residue kappa_k + c - r of a node (mod e when finite)."""
        if not (1 <= node.comp <= self.level):
            raise ValidationError(f"node {node}: component out of range 1..{self.level}")
        return self.residue(self.multicharge[node.comp - 1] + node.col - node.row)

    def residues_adjacent(self, a: int, b: int) -> bool:
        a, b = self.residue(a), self.residue(b)
        return a == self.residue(b + 1) or a == self.residue(b - 1)

    def check_adjacency_free(self, residues) -> frozenset[int]:
        res = frozenset(self.residue(r) for r in residues)
        for a in res:
            for b in res:
                if self.residues_adjacent(a, b):
                    raise AdjacencyViolation(
                        f"residue set {sorted(res)} contains adjacent residues {a}, {b}"
                    )
        return res

    # -- geometry --------------------------------------------------------------

    def node_coord(self, node: Node) -> ExactCoord:
        """x-coordinate theta_k + g(r-c) + (r+c)eps of a node's top vertex."""
        if not (1 <= node.comp <= self.level):
            raise ValidationError(f"node {node}: component out of range 1..{self.level}")
        base = self.theta[node.comp - 1] + self.g * (node.row - node.col)
        return ExactCoord(base, node.row + node.col)

    def red_line(self, comp: int) -> ExactCoord:
        return ExactCoord(self.theta[comp - 1], 0)

    def __repr__(self):
        e = "infinity" if self.e is None else self.e
        return (
            f"ParamContext(e={e}, multicharge={list(self.multicharge)}, "
            f"theta={[str(t) for t in self.theta]}, g={self.g})"
        )


class AdjacencyViolation(ValidationError):
    """A residue set contains two residues differing by one."""
