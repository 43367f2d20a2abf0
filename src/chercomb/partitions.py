"""Multipartitions, their nodes, and residue bookkeeping.

A multipartition is an l-tuple of partitions; a node (r, c, k) is the box in
row r, column c of component k (all 1-based).  Residues are integers,
reduced modulo the quantum characteristic when it is finite.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple


class Node(NamedTuple):
    row: int
    col: int
    comp: int = 1

    def __str__(self):
        return f"({self.row},{self.col},{self.comp})"


def exact_int(value) -> int:
    """int(value), refusing a number with a fractional part rather than
    truncating it."""
    if not isinstance(value, str) and value % 1:
        raise ValueError(f"expected an integer, got {value}")
    return int(value)


def _check_partition(parts) -> tuple[int, ...]:
    parts = tuple(exact_int(p) for p in parts)
    if any(p <= 0 for p in parts):
        raise ValueError(f"partition parts must be positive: {parts}")
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise ValueError(f"partition parts must weakly decrease: {parts}")
    return parts


class Multipartition:
    """Immutable l-tuple of partitions, usable as a dict key."""

    __slots__ = ("comps", "_hash")

    def __init__(self, comps):
        comps = tuple(_check_partition(c) for c in comps)
        if not comps:
            raise ValueError("a multipartition needs at least one component")
        object.__setattr__(self, "comps", comps)
        object.__setattr__(self, "_hash", hash(comps))

    def __setattr__(self, *a):
        raise AttributeError("Multipartition is immutable")

    @property
    def level(self) -> int:
        return len(self.comps)

    @property
    def size(self) -> int:
        return sum(sum(c) for c in self.comps)

    def __eq__(self, other):
        return isinstance(other, Multipartition) and self.comps == other.comps

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Multipartition({list(list(c) for c in self.comps)!r})"

    def __str__(self):
        return "|".join(
            "(" + ",".join(map(str, c)) + ")" if c else "()" for c in self.comps
        )

    # -- diagram access ------------------------------------------------------

    def row_length(self, comp: int, row: int) -> int:
        """Length of the given row (0 when beyond the partition)."""
        part = self.comps[comp - 1]
        return part[row - 1] if 1 <= row <= len(part) else 0

    def contains(self, node: Node) -> bool:
        return 1 <= node.col <= self.row_length(node.comp, node.row)

    def nodes(self) -> Iterator[Node]:
        for k, part in enumerate(self.comps, start=1):
            for r, length in enumerate(part, start=1):
                for c in range(1, length + 1):
                    yield Node(r, c, k)

    def with_node(self, node: Node) -> "Multipartition":
        if not self.is_addable(node):
            raise ValueError(f"node {node} is not addable to {self}")
        part = list(self.comps[node.comp - 1])
        if node.row == len(part) + 1:
            part.append(1)
        else:
            part[node.row - 1] += 1
        comps = list(self.comps)
        comps[node.comp - 1] = tuple(part)
        return Multipartition(comps)

    def with_nodes(self, nodes) -> "Multipartition":
        out = self
        # sort so that same-column additions of lower rows come first
        for node in sorted(nodes, key=lambda n: (n.comp, n.row)):
            out = out.with_node(node)
        return out

    def without_node(self, node: Node) -> "Multipartition":
        if not self.is_removable(node):
            raise ValueError(f"node {node} is not removable from {self}")
        part = list(self.comps[node.comp - 1])
        part[node.row - 1] -= 1
        if part[node.row - 1] == 0:
            part.pop()
        comps = list(self.comps)
        comps[node.comp - 1] = tuple(part)
        return Multipartition(comps)

    def is_addable(self, node: Node) -> bool:
        """Whether adding the node gives the diagram of a multipartition."""
        if not (1 <= node.comp <= self.level) or node.row < 1 or node.col < 1:
            return False
        here = self.row_length(node.comp, node.row)
        if node.col != here + 1:
            return False
        return node.row == 1 or self.row_length(node.comp, node.row - 1) >= node.col

    def is_removable(self, node: Node) -> bool:
        if not self.contains(node):
            return False
        if node.col != self.row_length(node.comp, node.row):
            return False
        return self.row_length(node.comp, node.row + 1) < node.col

    # -- set-like operations on diagrams -------------------------------------

    def meet(self, other: "Multipartition") -> "Multipartition":
        """Componentwise intersection of Young diagrams."""
        if self.level != other.level:
            raise ValueError("levels differ")
        comps = []
        for a, b in zip(self.comps, other.comps):
            rows = [min(x, y) for x, y in zip(a, b)]
            comps.append(tuple(p for p in rows if p > 0))
        return Multipartition(comps)

    def diagram_difference(self, other: "Multipartition") -> list[Node]:
        """Nodes of self not in other (self need not contain other)."""
        out = []
        for node in self.nodes():
            if not other.contains(node):
                out.append(node)
        return out

    def contains_diagram(self, other: "Multipartition") -> bool:
        if self.level != other.level:
            return False
        for a, b in zip(self.comps, other.comps):
            if len(b) > len(a):
                return False
            if any(x < y for x, y in zip(a, b)):
                return False
        return True


def empty_multipartition(level: int) -> Multipartition:
    return Multipartition([()] * level)


def mp(*comps) -> Multipartition:
    """Shorthand constructor: mp([3,1], [2]) or mp([5,1,1,1,1])."""
    return Multipartition(comps)
