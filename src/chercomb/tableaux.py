"""Semistandard tableaux between multipartitions and their degrees.

A tableau of shape lambda and weight mu assigns to every node of lambda a
point of mu's loading with the same residue.  Semistandardness is three
exact-coordinate inequalities.  The degree of a tableau is the signed
crossing count of the monotone strand diagram that joins each lambda-node
coordinate (south) to its assigned mu-coordinate (north):

  * two strands of equal residue crossing:          -2
  * black strand over a ghost one residue down:     +1
  * black strand over a red line of its residue:    +1

Ghosts are strands shifted left by the scale g; monotone strands with no
bigons cross if and only if their endpoints interleave, so the count is
well-defined without drawing anything.

The count runs over integer keys, not coordinates: `ParamContext.node_key`
packs q + m*eps into (q*L)*2^20 + m, L the least common denominator of
theta and g, which orders exactly as the coordinates do while every eps
part (row + col) stays below 2^20; a larger node raises ValidationError.
A key is integer arithmetic from its component's base key, and a ghost
shift is one integer subtraction.

A tableau stores only its moving strands (node != target); every node it
leaves out is a vertical strand, and `Tableau.image` reads any node's
target.  A base-pinned tableau thus holds its slot moves and nothing of
gamma.  Only moving strands are visited; two vertical strands never
cross, so every crossing has a moving strand on one side.  Moving
strands are grouped by residue, and a moving strand meets only its own
residue and the two next to it.  Pairs of moving strands are compared
directly.  The vertical strands of residue r are the shape's residue-r
nodes less the moving sources, so the ones a moving strand passes are
counted by bisection in the shape's ascending keys
(`ParamContext.shape_keys`, memoized per shape), less the moving sources
in the same range, counted by bisection in the residue's moving sources,
sorted once per tableau.  No two of a strand, a ghost and a red line share a
key: a node (r, c) and the ghost of (r', c') in its component would need
r - c = r' - c' - 1 and r + c = r' + c', which differ in parity; other
components differ by a non-multiple of g in the base (the weighting's
validation); and a red line has eps 0.  A vertical key never equals a
moving strand's end in a bijection, so "strictly between" is exact, and
a base-pinned tableau costs its moving strands however large its base.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import product

from .gamma import GammaContext
from .laurent import LaurentPoly
from .loadings import residue_multiset
from .params import ParamContext
from .partitions import Node


class Tableau:
    """A residue-preserving bijection from nodes of the shape to nodes of
    the weight, stored as its moving strands: `mapping` holds each node
    sent elsewhere, and every node it leaves out is sent to itself."""

    __slots__ = ("shape", "weight", "mapping")

    def __init__(self, shape, weight, mapping):
        self.shape = shape
        self.weight = weight
        # fixed points are dropped here and nowhere else, so a tableau has
        # one stored form however it was built
        self.mapping = {node: target for node, target in mapping.items() if node != target}

    def __eq__(self, other):
        return (
            isinstance(other, Tableau)
            and self.shape == other.shape
            and self.weight == other.weight
            and self.mapping == other.mapping
        )

    def __hash__(self):
        return hash((self.shape, self.weight, frozenset(self.mapping.items())))

    def __repr__(self):
        moved = {str(a): str(b) for a, b in sorted(self.mapping.items())}
        return f"Tableau({self.shape} -> {self.weight}, moved={moved})"

    def image(self, node: Node) -> Node:
        """The node of the weight that `node` of the shape is sent to."""
        return self.mapping.get(node, node)

    def degree(self, ctx: ParamContext) -> int:
        return tableau_degree(self, ctx)

    def is_residue_preserving(self, ctx: ParamContext) -> bool:
        return all(
            ctx.residue_of(a) == ctx.residue_of(b) for a, b in self.mapping.items()
        )

    def is_semistandard(self, ctx: ParamContext) -> bool:
        """Direct check of the three defining inequalities, after checking
        that the shape's nodes go one-to-one onto the weight's: a node left
        out of `mapping` is read as fixed, so a partial map is caught here."""
        g = ctx.g
        image = self.image
        if sorted(map(image, self.shape.nodes())) != sorted(self.weight.nodes()):
            return False
        for node in self.shape.nodes():
            v = ctx.node_coord(image(node))
            r, c, k = node
            if r == 1 and c == 1 and not v > ctx.red_line(k):
                return False
            if r > 1 and not v > ctx.node_coord(image(Node(r - 1, c, k))).shift(g):
                return False
            if c > 1 and not v > ctx.node_coord(image(Node(r, c - 1, k))).shift(-g):
                return False
        return True


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def enumerate_sstd(lam, mu, ctx: ParamContext, gctx: GammaContext | None = None):
    """All semistandard tableaux of shape lam and weight mu.

    With a GammaContext the base nodes are pinned in place and only the
    added nodes are matched (to weakly-right targets), which keeps the
    search small however large the base is; the two modes agree wherever
    both apply.
    """
    if gctx is not None:
        return _enumerate_restricted(lam, mu, gctx)
    return _enumerate_general(lam, mu, ctx)


def _enumerate_general(lam, mu, ctx):
    if lam.size != mu.size or residue_multiset(lam, ctx) != residue_multiset(mu, ctx):
        return []
    by_res: dict[int, list[Node]] = {}
    for node in sorted(mu.nodes(), key=ctx.node_coord):
        by_res.setdefault(ctx.residue_of(node), []).append(node)

    cells = sorted(lam.nodes(), key=lambda n: ctx.node_coord(n))
    g = ctx.g
    assignment: dict[Node, Node] = {}
    used: set[Node] = set()
    results: list[Tableau] = []

    def ok(cell: Node, value: Node) -> bool:
        v = ctx.node_coord(value)
        r, c, k = cell
        if r == 1 and c == 1 and not v > ctx.red_line(k):
            return False
        up = Node(r - 1, c, k)
        if r > 1 and up in assignment:
            if not v > ctx.node_coord(assignment[up]).shift(g):
                return False
        left = Node(r, c - 1, k)
        if c > 1 and left in assignment:
            if not v > ctx.node_coord(assignment[left]).shift(-g):
                return False
        down = Node(r + 1, c, k)
        if down in assignment:
            if not ctx.node_coord(assignment[down]) > v.shift(g):
                return False
        right = Node(r, c + 1, k)
        if right in assignment:
            if not ctx.node_coord(assignment[right]) > v.shift(-g):
                return False
        return True

    def search(i: int):
        if i == len(cells):
            results.append(Tableau(lam, mu, assignment))
            return
        cell = cells[i]
        for value in by_res.get(ctx.residue_of(cell), ()):
            if value in used or not ok(cell, value):
                continue
            assignment[cell] = value
            used.add(value)
            search(i + 1)
            del assignment[cell]
            used.discard(value)

    search(0)
    return results


def iter_index_bijections(sources, targets):
    """Bijections f between two equal-size ascending index tuples with
    f(s) >= s, as tuples of (source, target) pairs, lexicographic in the
    targets.

    These are rook placements on a Ferrers board.  Placed largest source
    first, each source may take any free target weakly right of it: the
    larger sources already placed sit on targets it could take too, so
    every source has the same number of choices on every branch, and when
    any bijection exists every choice extends to one.
    """
    if len(sources) != len(targets):
        return []
    placements = [()]
    for s in reversed(sources):
        # t outermost keeps the placements lexicographic in their targets
        placements = [
            (t,) + rest for t in targets if t >= s for rest in placements if t not in rest
        ]
    return [tuple(zip(sources, p)) for p in placements]


def pinned_tableau(lam, mu, gctx: GammaContext, moves) -> Tableau:
    """The base-pinned tableau of shape lam and weight mu: gamma's nodes
    stay in place and, per residue r, each 1-based slot move (s, t) in
    moves[r] sends lam's added node in slot s to mu's in slot t."""
    mapping = {}
    for r, pairs in moves.items():
        slots = gctx.addable[r]
        for s, t in pairs:
            mapping[slots[s - 1]] = slots[t - 1]
    return Tableau(lam, mu, mapping)


def slot_moves(tab: Tableau, gctx: GammaContext) -> dict[int, tuple[tuple[int, int], ...]]:
    """Inverse of pinned_tableau: per residue of S, the slot move of each
    filled slot of the shape, in slot order."""
    moves = {}
    for r, filled in gctx.added_positions(tab.shape).items():
        slots = gctx.addable[r]
        moves[r] = tuple((s, slots.index(tab.image(slots[s - 1])) + 1) for s in filled)
    return moves


def _enumerate_restricted(lam, mu, gctx: GammaContext):
    """Per residue, a base-pinned tableau sends lam's filled slots onto
    mu's, each target weakly right; residues combine independently."""
    src = gctx.added_positions(lam)
    dst = gctx.added_positions(mu)
    active = [r for r in sorted(src) if src[r]]
    bijections = [iter_index_bijections(src[r], dst[r]) for r in active]
    return [pinned_tableau(lam, mu, gctx, dict(zip(active, pick))) for pick in product(*bijections)]


# ---------------------------------------------------------------------------
# degree
# ---------------------------------------------------------------------------


def tableau_degree(tab: Tableau, ctx: ParamContext) -> int:
    """Signed crossing count of the minimal monotone diagram of the tableau."""
    key = ctx.node_key
    moving: dict[int, list] = {}  # residue -> [(source key, target key)]
    for node, target in tab.mapping.items():
        moving.setdefault(ctx.residue_of(node), []).append((key(node), key(target)))
    if not moving:
        return 0
    shape_keys = ctx.shape_keys(tab.shape)
    sources = {r: sorted(s for s, _ in strands) for r, strands in moving.items()}

    def vertical_between(r, lo, hi):
        """Vertical strands of residue r keyed strictly between lo and hi:
        the shape's residue-r keys there, less the moving sources among them."""
        keys = shape_keys.get(r, ())
        moved = sources.get(r, ())
        inside = bisect_left(keys, hi) - bisect_right(keys, lo)
        return inside - (bisect_left(moved, hi) - bisect_right(moved, lo))

    shift = ctx.ghost_shift
    deg = 0
    for r, same in moving.items():
        down, up = ctx.residue(r - 1), ctx.residue(r + 1)
        down_moved = moving.get(down, ())
        reds = ctx.red_keys.get(r, ())
        for s, t in same:
            lo, hi = (s, t) if s < t else (t, s)
            # equal residue: -2 per crossing; each moving pair is met twice
            deg -= sum((s < s2) != (t < t2) for s2, t2 in same)
            deg -= 2 * vertical_between(r, lo, hi)

            # this strand over the ghost (key - shift) of a strand one
            # residue down: +1; a vertical one residue up over this strand's
            # ghost: +1 (a moving strand over it is counted from its side)
            if down_moved:
                hs, ht = s + shift, t + shift
                deg += sum((hs < s2) != (ht < t2) for s2, t2 in down_moved)
            deg += vertical_between(down, lo + shift, hi + shift)
            deg += vertical_between(up, lo - shift, hi - shift)

            # black strand over a red line of its own residue: +1
            if reds:
                deg += sum(lo < k < hi for k in reds)
    return deg


# ---------------------------------------------------------------------------
# graded characters
# ---------------------------------------------------------------------------


def delta_character(lam, mu, ctx: ParamContext, gctx: GammaContext | None = None) -> LaurentPoly:
    """Graded dimension of the mu-weight space of the standard module of lam:
    the sum of t^deg(T) over semistandard tableaux."""
    coeffs: dict[int, int] = {}
    for tab in enumerate_sstd(lam, mu, ctx, gctx):
        deg = tableau_degree(tab, ctx)
        coeffs[deg] = coeffs.get(deg, 0) + 1
    return LaurentPoly(coeffs)
