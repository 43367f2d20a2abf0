"""Node moves and the dominance-saturated index sets built from them.

A GammaContext fixes an admissible base multipartition gamma, an
adjacency-free residue set S, and a multiset of residues to add; it carries
the resulting family of multipartitions sorted along theta-dominance,
together with the per-residue ordered lists of addable nodes.
"""

from __future__ import annotations

from itertools import combinations, product

from .loadings import dominance_sort_key, loading_of, residue_multiset
from .params import AdjacencyViolation, ParamContext
from .partitions import Multipartition, Node


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
    out.sort(key=lambda n: ctx.node_coord(n))
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
    out.sort(key=lambda n: ctx.node_coord(n))
    return out


def is_admissible(gamma: Multipartition, residues, ctx: ParamContext) -> bool:
    """True iff gamma has no removable node with residue in the set."""
    res = ctx.check_adjacency_free(residues)
    return not removable_nodes(gamma, ctx, res)


class GammaContext:
    """The family of multipartitions reached from gamma by one batch of additions."""

    def __init__(self, gamma, residue_set, multiset, ctx, addable, elements):
        self.gamma = gamma
        self.residue_set = residue_set
        self.multiset = multiset
        self.ctx = ctx
        self.addable = addable  # residue -> ordered list of addable nodes
        self.elements = elements  # sorted along a linear extension of dominance
        self.index = {mp: i for i, mp in enumerate(elements)}
        self._added_cache: dict[Multipartition, dict[int, tuple[int, ...]]] = {}

    # -- basic views ---------------------------------------------------------

    @property
    def top(self) -> Multipartition:
        """The dominance-greatest element (all nodes added leftmost)."""
        return self.elements[0]

    @property
    def bottom(self) -> Multipartition:
        return self.elements[-1]

    @property
    def single_residue(self) -> bool:
        return len([r for r, m in self.multiset.items() if m > 0]) <= 1

    @property
    def residue(self) -> int:
        active = [r for r, m in self.multiset.items() if m > 0]
        if len(active) != 1:
            raise ValueError("context is not single-residue")
        return active[0]

    def __len__(self):
        return len(self.elements)

    def __contains__(self, lam):
        return lam in self.index

    def require(self, lam: Multipartition) -> Multipartition:
        if lam not in self.index:
            raise NotInGamma(f"{lam} is not in the index set over {self.gamma}")
        return lam

    # -- added-node bookkeeping ------------------------------------------------

    def added_positions(self, lam: Multipartition) -> dict[int, tuple[int, ...]]:
        """Per residue, the 1-based positions in the addable list of lam's
        added nodes, ascending."""
        cached = self._added_cache.get(lam)
        if cached is not None:
            return cached
        self.require(lam)
        added = set(lam.diagram_difference(self.gamma))
        out = {}
        for r, nodes in self.addable.items():
            positions = tuple(
                i for i, node in enumerate(nodes, start=1) if node in added
            )
            out[r] = positions
        self._added_cache[lam] = out
        return out

    def added_nodes(self, lam: Multipartition, residue=None) -> list[Node]:
        diff = lam.diagram_difference(self.gamma)
        if residue is None:
            return sorted(diff, key=lambda n: self.ctx.node_coord(n))
        r = self.ctx.residue(residue)
        return sorted(
            (n for n in diff if self.ctx.residue_of(n) == r),
            key=lambda n: self.ctx.node_coord(n),
        )

    def leq(self, mu: Multipartition, lam: Multipartition) -> bool:
        """mu <= lam in dominance, tested on added positions.

        Within the family, lam dominates mu exactly when, residue by
        residue, the k-th added node of lam sits weakly left of the k-th
        added node of mu.
        """
        pa, pb = self.added_positions(lam), self.added_positions(mu)
        return all(
            x <= y for r in pa for x, y in zip(pa[r], pb[r])
        )

    def comparable_pairs(self) -> list[tuple[Multipartition, Multipartition]]:
        """Every (lam, mu) with mu <= lam, diagonal included, lam-major
        along the order."""
        return [(lam, mu) for lam in self.elements for mu in self.elements if self.leq(mu, lam)]

    def element_from_positions(self, positions: dict[int, tuple[int, ...]]) -> Multipartition:
        nodes = []
        for r, idxs in positions.items():
            for i in idxs:
                nodes.append(self.addable[r][i - 1])
        return self.gamma.with_nodes(nodes)


def build_gamma_set(gamma, residues, multiset, ctx: ParamContext) -> GammaContext:
    """Enumerate all multipartitions reached by adding the residue multiset.

    Adding nodes whose residues lie in an adjacency-free set never creates
    or blocks addable nodes of those residues, so the family is exactly the
    product of independent subset choices from the addable lists.
    """
    residue_set = ctx.check_adjacency_free(residues)
    if not is_admissible(gamma, residue_set, ctx):
        raise NotAdmissible(
            f"{gamma} has removable nodes of residues {sorted(residue_set)}"
        )
    multiset = {ctx.residue(r): int(m) for r, m in multiset.items() if int(m) != 0}
    for r in multiset:
        if r not in residue_set:
            raise ValueError(f"multiset residue {r} is not in S = {sorted(residue_set)}")

    addable = {r: addable_nodes(gamma, ctx, [r]) for r in sorted(residue_set)}
    for r, m in multiset.items():
        if m > len(addable[r]):
            raise MultisetTooLarge(
                f"need {m} nodes of residue {r} but only {len(addable[r])} are addable"
            )

    active = sorted(multiset)
    choices = [combinations(range(len(addable[r])), multiset[r]) for r in active]
    elements = []
    for pick in product(*choices):
        nodes = []
        for r, idxs in zip(active, pick):
            nodes.extend(addable[r][i] for i in idxs)
        elements.append(gamma.with_nodes(nodes))
    elements.sort(key=lambda m: dominance_sort_key(m, ctx))
    return GammaContext(gamma, residue_set, multiset, ctx, addable, elements)


def admissible_core(lam: Multipartition, mu: Multipartition, residues, ctx: ParamContext):
    """The common base under lam and mu: their meet with all removable
    S-nodes stripped, iterated to a fixed point."""
    core = lam.meet(mu)
    res = ctx.check_adjacency_free(residues)
    while True:
        rem = removable_nodes(core, ctx, res)
        if not rem:
            return core
        core = core.without_node(rem[0])


def gamma_context_for_pair(lam, mu, residue, ctx: ParamContext) -> GammaContext:
    """Build the smallest admissible single-residue context containing both."""
    r = ctx.residue(residue)
    core = admissible_core(lam, mu, [r], ctx)
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
    from .loadings import dominates

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
