"""Diagonals of a fixed residue, their brick decomposition, and the signed
symbol sequence that fingerprints a subquotient up to graded isomorphism.

For an admissible base multipartition, each diagonal carrying the working
residue decomposes into one bottom brick (left of, right of, or centred on
its red line), a stack of full middle bricks, and, when the diagonal has no
addable node of the residue, a single top brick containing whichever
neighbour the top node kept.  The sequence of signed symbols, read in
x-order across all components, is the fingerprint.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coords import ExactCoord
from .gamma import NotAdmissible, addable_nodes, is_admissible
from .params import ParamContext
from .partitions import Multipartition, Node

LEFT, RIGHT, CENTRE = 4, 5, 6  # bottom-brick kinds, by side of the red line
VISIBLE, TOP_LOWER, TOP_UPPER = 0, 2, 3  # top kinds: none, kept lower / upper neighbour


@dataclass(frozen=True)
class IDiagonal:
    comp: int
    offset: int  # r - c of the residue-i positions
    nodes: tuple[Node, ...]  # the i-nodes, bottom to top
    visible: bool
    side: int  # LEFT / RIGHT / CENTRE
    top_kind: int  # VISIBLE / TOP_LOWER / TOP_UPPER
    x: ExactCoord

    @property
    def b1(self) -> int:
        return len(self.nodes) if self.visible else len(self.nodes) - 1

    @property
    def sign(self) -> int:
        return -1 if self.b1 % 2 else 1


def i_diagonals(gamma: Multipartition, residue: int, ctx: ParamContext) -> list[IDiagonal]:
    """All diagonals of the given residue meeting the diagram or its addable
    nodes, in x-order."""
    r = ctx.residue(residue)
    if not is_admissible(gamma, [r], ctx):
        raise NotAdmissible(f"{gamma} has removable nodes of residue {r}")
    addable = addable_nodes(gamma, ctx, [r])
    out = []
    for k in range(1, gamma.level + 1):
        out.extend(_component_diagonals(gamma, k, r, ctx, addable))
    out.sort(key=lambda d: d.x)
    return out


def _component_diagonals(gamma, comp, residue, ctx, addable):
    # offsets r - c carrying the component's residue-i nodes or its addable ones
    offsets = {
        row - col
        for row, length in enumerate(gamma.comps[comp - 1], start=1)
        for col in range(1, length + 1)
        if ctx.residue_of(Node(row, col, comp)) == residue
    }
    addable_offset = {node.row - node.col: node for node in addable if node.comp == comp}
    offsets.update(addable_offset)

    diagonals = []
    for offset in offsets:
        nodes = []
        row = offset + 1 if offset >= 0 else 1
        col = row - offset
        while gamma.contains(Node(row, col, comp)):
            nodes.append(Node(row, col, comp))
            row += 1
            col += 1
        addable = addable_offset.get(offset)
        if addable is None and not nodes:
            continue
        visible = addable is not None
        if visible:
            top_kind = VISIBLE
            anchor = addable
            eps = anchor.row + anchor.col - 2
        else:
            top = nodes[-1]
            has_upper = gamma.contains(Node(top.row, top.col + 1, comp))
            has_lower = gamma.contains(Node(top.row + 1, top.col, comp))
            # admissibility forces exactly one neighbour on an invisible top
            top_kind = TOP_UPPER if has_upper else TOP_LOWER
            eps = top.row + top.col
        side = CENTRE if offset == 0 else (LEFT if offset < 0 else RIGHT)
        base = ctx.theta[comp - 1] + ctx.g * offset
        diagonals.append(
            IDiagonal(
                comp=comp,
                offset=offset,
                nodes=tuple(nodes),
                visible=visible,
                side=side,
                top_kind=top_kind,
                x=ExactCoord(base, eps),
            )
        )
    return diagonals


# ---------------------------------------------------------------------------
# signed symbol sequences
# ---------------------------------------------------------------------------

EMPTY = "o"  # the formal symbol created by cancelling a pair


@dataclass(frozen=True)
class ChiSymbol:
    """One entry of the fingerprint: sign * d_kind^top, or a formal empty."""

    sign: int  # +1 / -1
    kind: int  # LEFT / RIGHT / CENTRE, or 0 for the formal empty
    top: int = 0  # VISIBLE / TOP_LOWER / TOP_UPPER

    @property
    def is_empty(self) -> bool:
        return self.kind == 0

    def __str__(self):
        if self.is_empty:
            return EMPTY if self.sign > 0 else "-" + EMPTY
        s = "+" if self.sign > 0 else "-"
        return f"{s}d{self.kind}^{self.top}"


def empty_symbol(sign: int = 1) -> ChiSymbol:
    return ChiSymbol(sign, 0, 0)


def symbol_of(diag: IDiagonal) -> ChiSymbol:
    return ChiSymbol(diag.sign, diag.side, diag.top_kind)


ChiSequence = tuple  # of ChiSymbol


def chi_sequence(gamma: Multipartition, residue: int, ctx: ParamContext) -> ChiSequence:
    return tuple(symbol_of(d) for d in i_diagonals(gamma, residue, ctx))


def format_chi(seq) -> str:
    return ",".join(str(s) for s in seq)


def parse_chi(text: str) -> ChiSequence:
    """Inverse of format_chi; accepts entries like +d4^0, -d6^2, o, -o."""
    out = []
    text = text.strip()
    if not text:
        return ()
    for raw in text.split(","):
        token = raw.strip()
        sign = 1
        if token.startswith(("+", "-")):
            sign = -1 if token[0] == "-" else 1
            token = token[1:]
        if token == EMPTY:
            out.append(empty_symbol(sign))
            continue
        if not token.startswith("d") or "^" not in token:
            raise ValueError(f"cannot parse symbol {raw!r}")
        kind_str, top_str = token[1:].split("^", 1)
        kind, top = int(kind_str), int(top_str)
        if kind not in (LEFT, RIGHT, CENTRE) or top not in (VISIBLE, TOP_LOWER, TOP_UPPER):
            raise ValueError(f"symbol {raw!r} out of range")
        out.append(ChiSymbol(sign, kind, top))
    return tuple(out)
