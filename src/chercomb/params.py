"""Global algebra parameters: quantum characteristic, multicharge, weighting.

The quantum characteristic is a finite integer e >= 3 or infinity (stored
as None); e = 2 is rejected because every later construction assumes the
three residue classes i-1, i, i+1 are distinct.  A weighting is valid when
no difference theta_i - theta_j is an integer multiple of the scale g.

Each context also packs node coordinates into integer keys (`node_key`)
by integer arithmetic alone, from a base key per component fixed when the
context is built; the kn engine sorts nodes and counts crossings on these
keys.  It lists a shape's keys residue by residue, row by row
(`shape_keys`, memoized per shape).  `node_coord` and `coords` stay the
exact definition the keys must order as.
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
        "key_scale", "ghost_shift", "comp_keys", "red_keys", "_shape_keys",
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
        # denominator of theta and g; a ghost sits ghost_shift below its
        # strand, and component k's red line (theta_k) at comp_keys[k - 1]
        self.key_scale = lcm(self.g.denominator, *(t.denominator for t in self.theta))
        self.ghost_shift = self._scaled(self.g)
        self.comp_keys = tuple(self._scaled(t) for t in self.theta)
        self.red_keys = {}
        for charge, key in zip(self.multicharge, self.comp_keys):
            self.red_keys.setdefault(charge, []).append(key)
        self._shape_keys = {}

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
                        f"residues: {sorted(res)} contains adjacent residues {a}, {b}"
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
        """node_coord(node) packed into an int with the same order:
        theta_k*L*2^20 + ghost_shift*(r - c) + (r + c), computed from the
        component's base key without building a coordinate."""
        return self._key(*node)

    def _key(self, r: int, c: int, k: int) -> int:
        if not (1 <= k <= self.level):
            raise ValidationError(f"node ({r},{c},{k}): component out of range 1..{self.level}")
        if r + c >= KEY_EPS_BOUND:
            raise ValidationError(
                f"node ({r},{c},{k}): row + col = {r + c} must be below {KEY_EPS_BOUND}"
            )
        return self.comp_keys[k - 1] + self.ghost_shift * (r - c) + r + c

    def shape_keys(self, lam) -> dict[int, list[int]]:
        """Residue -> ascending node_keys of lam's nodes of that residue,
        memoized on this context.  Along a row the key falls by
        ghost_shift - 1 from each node to the next, and the residue rises
        by one."""
        keys = self._shape_keys.get(lam)
        if keys is None:
            keys = {}
            step = self.ghost_shift - 1
            for k, part in enumerate(lam.comps, start=1):
                for r, length in enumerate(part, start=1):
                    last = self._key(r, length, k)  # the row's least key, range-checked
                    res = self.multicharge[k - 1] + length - r  # that node's residue
                    for j in range(length):
                        keys.setdefault(self.residue(res - j), []).append(last + j * step)
            for row in keys.values():
                row.sort()
            self._shape_keys[lam] = keys
        return keys

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
