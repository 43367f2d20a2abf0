"""Node moves and the dominance-saturated index sets built from them.

A GammaContext fixes an admissible base multipartition gamma, an
adjacency-free residue set S, and a multiset of residues to add; it carries
the per-residue ordered lists of addable nodes (the slots) and the
resulting family, each member stored as the slots it fills, sorted along
theta-dominance.
"""

from __future__ import annotations

from itertools import combinations, product
from operator import le

from .loadings import dominates, loading_of, residue_multiset
from .params import ParamContext
from .partitions import Multipartition, Node, exact_int


class NotAdmissible(ValueError):
    """gamma has a removable node of a residue in S."""


class MultisetTooLarge(ValueError):
    """A residue count exceeds the number of addable nodes of that residue."""


class NotInGamma(ValueError):
    """A multipartition does not belong to the given index set."""


def addable_nodes(lam: Multipartition, ctx: ParamContext, residues=None) -> list[Node]:
    """All addable nodes, optionally filtered by residue, in coordinate order."""
    if residues is not None:
        residues = {ctx.residue(r) for r in residues}
    out = []
    for k, part in enumerate(lam.comps, start=1):
        for r in range(1, len(part) + 2):
            node = Node(r, lam.row_length(k, r) + 1, k)
            if lam.is_addable(node) and (
                residues is None or ctx.residue_of(node) in residues
            ):
                out.append(node)
    out.sort(key=ctx.node_key)
    return out


def removable_nodes(lam: Multipartition, ctx: ParamContext, residues=None) -> list[Node]:
    if residues is not None:
        residues = {ctx.residue(r) for r in residues}
    out = []
    for k, part in enumerate(lam.comps, start=1):
        for r, length in enumerate(part, start=1):
            node = Node(r, length, k)
            if lam.is_removable(node) and (
                residues is None or ctx.residue_of(node) in residues
            ):
                out.append(node)
    out.sort(key=ctx.node_key)
    return out


def is_admissible(gamma: Multipartition, residues, ctx: ParamContext) -> bool:
    """True iff gamma has no removable node with residue in the set."""
    res = ctx.check_adjacency_free(residues)
    return not removable_nodes(gamma, ctx, res)


class GammaContext:
    """The family of multipartitions reached from gamma by one batch of additions."""

    def __init__(self, gamma, residue_set, multiset, ctx, addable, positions):
        self.gamma = gamma
        self.residue_set = residue_set
        self.multiset = multiset
        self.ctx = ctx
        self.addable = addable  # residue -> ordered list of addable nodes
        # member -> residue -> its filled slots, in a linear extension of dominance
        self.positions = positions
        self.elements = list(positions)
        self.index = {mp: i for i, mp in enumerate(self.elements)}
        # member -> its filled slots of every residue of S, concatenated in
        # residue order (one residue's tuple itself when only it is filled);
        # every member fills as many slots of each residue as the next
        self.slots = {lam: sum(filled.values(), ()) for lam, filled in positions.items()}
        # (filled slots of each residue of S, in residue order) -> member
        self.by_slots = {tuple(filled[r] for r in addable): lam for lam, filled in positions.items()}
        # member -> one byte per slot, 1 where it is filled, concatenated
        # over the residues of S in residue order, as `slots` is
        self.occupancy = {
            lam: bytes(j in filled[r] for r, nodes in addable.items() for j in range(1, len(nodes) + 1))
            for lam, filled in positions.items()
        }
        # root code (see `terrain.root_codes`) -> norm generating function of
        # the root's well-nested families, filled by the closed formula; a
        # root's is read off its core's (`terrain.root_core`), also kept
        self.segment_norms = {}

    # -- basic views ---------------------------------------------------------

    @property
    def top(self) -> Multipartition:
        """The dominance-greatest element (all nodes added leftmost)."""
        return self.elements[0]

    @property
    def bottom(self) -> Multipartition:
        return self.elements[-1]

    @property
    def residue(self) -> int:
        if len(self.multiset) != 1:
            raise ValueError("context is not single-residue")
        return next(iter(self.multiset))

    def __len__(self):
        return len(self.elements)

    def __contains__(self, lam):
        return lam in self.index

    def require(self, lam: Multipartition) -> Multipartition:
        self.added_positions(lam)
        return lam

    # -- added-node bookkeeping ------------------------------------------------

    def _missing(self, lam: Multipartition) -> NotInGamma:
        return NotInGamma(f"{lam} is not in the index set over {self.gamma}")

    def added_positions(self, lam: Multipartition) -> dict[int, tuple[int, ...]]:
        """Per residue of S, the 1-based positions in the addable list of
        lam's added nodes, ascending."""
        positions = self.positions.get(lam)
        if positions is None:
            raise self._missing(lam)
        return positions

    def leq(self, mu: Multipartition, lam: Multipartition) -> bool:
        """mu <= lam in dominance, tested on added positions; lam is looked
        up first, so a non-member lam raises NotInGamma before mu is read.

        Within the family, lam dominates mu exactly when, residue by
        residue, the k-th added node of lam sits weakly left of the k-th
        added node of mu.  Each residue fills the same number of slots in
        every member, so the concatenated slots line up residue by residue.
        """
        slots = self.slots
        above = slots.get(lam)
        if above is None:
            raise self._missing(lam)
        below = slots.get(mu)
        if below is None:
            raise self._missing(mu)
        return all(map(le, above, below))

    def covers(self) -> list[tuple[Multipartition, Multipartition]]:
        """Every Hasse edge (lam, mu), mu covered by lam, lam-major along
        the order.

        Residue by residue the order compares filled-slot sets entrywise (a
        Gale order: Young's lattice in a box), so lam covers mu exactly when
        mu is lam with one filled slot moved one step right into a free slot.
        """
        edges = []
        for lam, filled in self.positions.items():
            for r, slots in filled.items():
                for s in slots:
                    if s < len(self.addable[r]) and s + 1 not in slots:
                        moved = tuple(s + 1 if t == s else t for t in slots)
                        edges.append((lam, self.element_from_positions({**filled, r: moved})))
        edges.sort(key=lambda edge: (self.index[edge[0]], self.index[edge[1]]))
        return edges

    def element_from_positions(self, positions: dict[int, tuple[int, ...]]) -> Multipartition:
        """The member filling exactly the given 1-based slots, residue by
        residue; a residue of S left out fills none.  Keys are reduced to
        residues, and two keys naming one residue fill no member."""
        reduced = {self.ctx.residue(r): tuple(slots) for r, slots in positions.items()}
        lam = self.by_slots.get(tuple(reduced.get(r, ()) for r in self.addable))
        if lam is None or len(reduced) < len(positions) or not reduced.keys() <= self.addable.keys():
            raise NotInGamma(f"slots {positions} fill no member of the index set over {self.gamma}")
        return lam


def build_gamma_set(gamma, residues, multiset, ctx: ParamContext) -> GammaContext:
    """Enumerate all multipartitions reached by adding the residue multiset.

    Adding nodes whose residues lie in an adjacency-free set never creates
    or blocks addable nodes of those residues, so the family is exactly the
    product of independent subset choices from the addable lists.
    """
    residue_set = ctx.check_adjacency_free(residues)
    if not is_admissible(gamma, residue_set, ctx):
        raise NotAdmissible(
            f"gamma: {gamma} has removable nodes of residues {sorted(residue_set)}"
        )
    counts = {ctx.residue(r): exact_int(m) for r, m in multiset.items()}
    if len(counts) < len(multiset):
        raise ValueError(f"multiset: keys {sorted(multiset)} name one residue twice")
    if any(m < 0 for m in counts.values()):
        raise ValueError(f"multiset: counts must be non-negative, got {multiset}")
    multiset = {r: m for r, m in counts.items() if m != 0}
    for r in multiset:
        if r not in residue_set:
            raise ValueError(f"multiset: residue {r} is not in S = {sorted(residue_set)}")

    addable = {r: addable_nodes(gamma, ctx, [r]) for r in sorted(residue_set)}
    for r, m in multiset.items():
        if m > len(addable[r]):
            raise MultisetTooLarge(
                f"multiset: need {m} nodes of residue {r} but only {len(addable[r])} are addable"
            )

    # Dominance pushes every point weakly left, so the componentwise sum of
    # coordinates is strictly monotone along strict dominance.  gamma's own
    # nodes add the same constant to every member, so summing over the
    # filled slots alone gives the same order; ties between incomparable
    # members break lexicographically on the parts.
    coords = {r: [ctx.node_coord(n) for n in addable[r]] for r in multiset}
    active = sorted(multiset)
    choices = [combinations(range(1, len(addable[r]) + 1), multiset[r]) for r in active]
    members = []
    for pick in product(*choices):
        filled = dict(zip(active, pick))
        added = [(addable[r][i - 1], coords[r][i - 1]) for r in active for i in filled[r]]
        lam = gamma.with_nodes([node for node, _ in added])
        key = (sum(c.base for _, c in added), sum(c.eps for _, c in added), lam.comps)
        members.append((key, lam, {r: filled.get(r, ()) for r in addable}))
    members.sort(key=lambda member: member[0])
    positions = {lam: filled for _, lam, filled in members}
    return GammaContext(gamma, residue_set, multiset, ctx, addable, positions)


def strip_residues(lam: Multipartition, residues, ctx: ParamContext) -> Multipartition:
    """lam with removable nodes of the given residues taken off, the
    coordinate-first one each time, until none is left."""
    while True:
        rem = removable_nodes(lam, ctx, residues)
        if not rem:
            return lam
        lam = lam.without_node(rem[0])


def gamma_context_for_pair(lam, mu, residue, ctx: ParamContext) -> GammaContext:
    """Build the smallest admissible single-residue context containing both:
    its base is their meet with removable nodes of the residue stripped."""
    r = ctx.residue(residue)
    core = strip_residues(lam.meet(mu), [r], ctx)
    m = lam.size - core.size
    if mu.size != lam.size:
        raise NotInGamma(f"sizes differ: {lam.size} vs {mu.size}")
    gctx = build_gamma_set(core, [r], {r: m}, ctx)
    gctx.require(lam)
    gctx.require(mu)
    return gctx


def saturation_check(gctx: GammaContext) -> bool:
    """Verify the interval characterization: the family is exactly the set of
    same-residue-content multipartitions between top and bottom.

    Exhaustive over the residue class, so intended for small instances.
    """
    ctx = gctx.ctx
    content = residue_multiset(gctx.top, ctx)
    n = gctx.top.size
    top_loading = loading_of(gctx.top, ctx)
    bottom_loading = loading_of(gctx.bottom, ctx)
    for cand in _all_multipartitions(n, gctx.gamma.level):
        if residue_multiset(cand, ctx) != content:
            continue
        lc = loading_of(cand, ctx)
        between = dominates(top_loading, lc) and dominates(lc, bottom_loading)
        if between != (cand in gctx):
            return False
    return True


def _all_partitions(n: int):
    if n == 0:
        yield ()
        return
    def rec(remaining, cap):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, cap), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest
    yield from rec(n, n)


def _all_multipartitions(n: int, level: int):
    if level == 1:
        for p in _all_partitions(n):
            yield Multipartition([p])
        return
    for head in range(n + 1):
        for p in _all_partitions(head):
            for rest in _all_multipartitions(n - head, level - 1):
                yield Multipartition((p,) + rest.comps)
