"""Global algebra parameters: quantum characteristic, multicharge, weighting.

The quantum characteristic is a finite integer e >= 3 or infinity (stored
as None); e = 2 is rejected because every later construction assumes the
three residue classes i-1, i, i+1 are distinct.  A weighting is valid when
no difference theta_i - theta_j is an integer multiple of the scale g.

Each context also packs node coordinates into integer keys (`node_key`)
for the tableau degree's inner loop; see `coords` for the exact order.
"""

from __future__ import annotations

from math import lcm

from .coords import ExactCoord, as_fraction
from .partitions import Node, exact_int

# Every eps part of a key must stay below this, so that q*L*KEY_EPS_BOUND + m
# orders exactly as (q, m) does.
KEY_EPS_BOUND = 1 << 20


class ValidationError(ValueError):
    """A context failed validation; the message carries the field path."""


def field_value(name: str, convert, value):
    """convert(value), with a failure reported as a ValidationError whose
    message starts with the field name."""
    try:
        return convert(value)
    except ValidationError:
        raise
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"{name}: {exc}") from exc


INFINITY_TOKENS = {"infinity", "inf", "oo", None}


def parse_quantum_char(value):
    """Normalize a quantum characteristic to int >= 3 or None (= infinity)."""
    if value in INFINITY_TOKENS or value == float("inf"):
        return None
    e = exact_int(value)
    if e < 3:
        raise ValidationError(
            f"e: quantum characteristic must be >= 3 or infinity, got {e}"
        )
    return e


class ParamContext:
    """Parameters (e, level, multicharge, weighting, scale) plus helpers."""

    __slots__ = (
        "e", "level", "multicharge", "theta", "g",
        "key_scale", "ghost_shift", "red_keys", "_keys",
    )

    def __init__(self, e, multicharge, theta, g):
        self.e = field_value("e", parse_quantum_char, e)
        self.multicharge = field_value(
            "multicharge", lambda ks: tuple(self.residue(exact_int(k)) for k in ks), multicharge
        )
        self.theta = field_value("theta", lambda xs: tuple(as_fraction(x) for x in xs), theta)
        self.g = field_value("g", as_fraction, g)
        self.level = len(self.multicharge)
        self._validate()
        # key of q + m*eps is (q*L)*KEY_EPS_BOUND + m, L the least common
        # denominator of theta and g; a ghost sits ghost_shift below its strand
        self.key_scale = lcm(self.g.denominator, *(t.denominator for t in self.theta))
        self.ghost_shift = self._scaled(self.g)
        self.red_keys = {}
        for charge, t in zip(self.multicharge, self.theta):
            self.red_keys.setdefault(charge, []).append(self._scaled(t))
        self._keys = {}

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

    def node_key(self, node: Node) -> int:
        """node_coord(node) packed into an int with the same order, memoized
        on this context."""
        key = self._keys.get(node)
        if key is None:
            c = self.node_coord(node)
            if c.eps >= KEY_EPS_BOUND:
                raise ValidationError(
                    f"node {node}: row + col = {c.eps} must be below {KEY_EPS_BOUND}"
                )
            key = self._keys[node] = self._scaled(c.base) + c.eps
        return key

    def _scaled(self, q) -> int:
        """The key of the point q + 0*eps."""
        return (q * self.key_scale).numerator * KEY_EPS_BOUND

    def __repr__(self):
        e = "infinity" if self.e is None else self.e
        return (
            f"ParamContext(e={e}, multicharge={list(self.multicharge)}, "
            f"theta={[str(t) for t in self.theta]}, g={self.g})"
        )


class AdjacencyViolation(ValidationError):
    """A residue set contains two residues differing by one."""
