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
A ghost shift is one integer subtraction.  Strands are bucketed by
residue, so a moving strand meets only its own residue and the two next
to it, and two vertical strands, which never cross, are never compared.
"""

from __future__ import annotations

from .gamma import GammaContext
from .laurent import LaurentPoly
from .loadings import loading_of, residue_multiset
from .params import ParamContext
from .partitions import Multipartition, Node


class Tableau:
    """A residue-preserving bijection from nodes of the shape to nodes of
    the weight, stored node-to-node via loading provenance."""

    __slots__ = ("shape", "weight", "mapping", "_degree")

    def __init__(self, shape, weight, mapping, degree=None):
        self.shape = shape
        self.weight = weight
        self.mapping = mapping
        self._degree = degree

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
        moved = {str(a): str(b) for a, b in sorted(self.mapping.items()) if a != b}
        return f"Tableau({self.shape} -> {self.weight}, moved={moved})"

    def degree(self, ctx: ParamContext) -> int:
        if self._degree is None:
            self._degree = tableau_degree(self, ctx)
        return self._degree

    def entry_coord(self, node: Node, ctx: ParamContext):
        return ctx.node_coord(self.mapping[node])

    def is_residue_preserving(self, ctx: ParamContext) -> bool:
        return all(
            ctx.residue_of(a) == ctx.residue_of(b) for a, b in self.mapping.items()
        )

    def is_semistandard(self, ctx: ParamContext) -> bool:
        """Direct check of the three defining inequalities."""
        g = ctx.g
        for node in self.shape.nodes():
            v = self.entry_coord(node, ctx)
            r, c, k = node
            if r == 1 and c == 1 and not v > ctx.red_line(k):
                return False
            if r > 1:
                up = self.entry_coord(Node(r - 1, c, k), ctx)
                if not v > up.shift(g):
                    return False
            if c > 1:
                left = self.entry_coord(Node(r, c - 1, k), ctx)
                if not v > left.shift(-g):
                    return False
        return True


def identity_tableau(lam: Multipartition) -> Tableau:
    mapping = {node: node for node in lam.nodes()}
    return Tableau(lam, lam, mapping, degree=0)


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
    weight_loading = loading_of(mu, ctx)
    by_res: dict[int, list[Node]] = {}
    for c, r in weight_loading.points:
        by_res.setdefault(r, []).append(weight_loading.node_at(c))

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
            results.append(Tableau(lam, mu, dict(assignment)))
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
    f(s) >= s, yielded as tuples of (source, target) pairs."""
    if len(sources) != len(targets):
        return
    n = len(sources)

    def rec(i, remaining):
        if i == n:
            yield ()
            return
        s = sources[i]
        for j, t in enumerate(remaining):
            if t >= s:
                rest = remaining[:j] + remaining[j + 1 :]
                for tail in rec(i + 1, rest):
                    yield ((s, t),) + tail

    yield from rec(0, tuple(targets))


def _enumerate_restricted(lam, mu, gctx: GammaContext):
    src = gctx.added_positions(lam)
    dst = gctx.added_positions(mu)
    residues = sorted(r for r in src if src[r])
    per_residue = []
    for r in residues:
        options = list(iter_index_bijections(src[r], dst[r]))
        if not options:
            return []
        per_residue.append((r, options))

    base_mapping = {node: node for node in gctx.gamma.nodes()}
    results = []

    def build(i, mapping):
        if i == len(per_residue):
            results.append(Tableau(lam, mu, dict(mapping)))
            return
        r, options = per_residue[i]
        nodes = gctx.addable[r]
        for pairs in options:
            for s, t in pairs:
                mapping[nodes[s - 1]] = nodes[t - 1]
            build(i + 1, mapping)
            for s, t in pairs:
                del mapping[nodes[s - 1]]

    build(0, base_mapping)
    return results


# ---------------------------------------------------------------------------
# degree
# ---------------------------------------------------------------------------


def tableau_degree(tab: Tableau, ctx: ParamContext) -> int:
    """Signed crossing count of the minimal monotone diagram of the tableau."""
    key = ctx.node_key
    by_res: dict[int, tuple[list, list]] = {}  # residue -> (moving, vertical)
    for node, target in tab.mapping.items():
        src, dst = key(node), key(target)
        moved, still = by_res.setdefault(ctx.residue_of(node), ([], []))
        if src == dst:
            still.append(src)
        else:
            moved.append((src, dst))
    shift = ctx.ghost_shift
    empty = ([], [])
    deg = 0
    for r, (same_moved, same_still) in by_res.items():
        down_moved, down_still = by_res.get(ctx.residue(r - 1), empty)
        up_still = by_res.get(ctx.residue(r + 1), empty)[1]
        reds = ctx.red_keys.get(r, ())
        for s, t in same_moved:
            # equal residue: -2 per crossing; each moving pair is met twice
            deg -= sum((s < s2) != (t < t2) for s2, t2 in same_moved)
            deg -= 2 * sum((s < k) != (t < k) for k in same_still)

            # this strand over the ghost (key - shift) of a strand one
            # residue down: +1; a vertical one residue up over this strand's
            # ghost: +1 (a moving strand over it is counted from its side)
            hs, ht = s + shift, t + shift
            deg += sum((hs < s2) != (ht < t2) for s2, t2 in down_moved)
            deg += sum((hs < k) != (ht < k) for k in down_still)
            gs, gt = s - shift, t - shift
            deg += sum((k < gs) != (k < gt) for k in up_still)

            # black strand over a red line of its own residue: +1
            deg += sum((s < k) != (t < k) for k in reds)
    return deg


# ---------------------------------------------------------------------------
# graded characters
# ---------------------------------------------------------------------------


def delta_character(lam, mu, ctx: ParamContext, gctx: GammaContext | None = None) -> LaurentPoly:
    """Graded dimension of the mu-weight space of the standard module of lam:
    the sum of t^deg(T) over semistandard tableaux."""
    coeffs: dict[int, int] = {}
    for tab in enumerate_sstd(lam, mu, ctx, gctx):
        d = tab.degree(ctx)
        coeffs[d] = coeffs.get(d, 0) + 1
    return LaurentPoly(coeffs)
