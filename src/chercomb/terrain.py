"""Terrains, parenthesis decorations, latticed paths, and the closed-form
decomposition-number engine built on them.

Reading the loading of mu left to right, removable nodes of the working
residue give up-steps and addable ones give down-steps; that walk is the
terrain.  A more dominant lam decorates it with parentheses (opens on nodes
added by lam, closes on nodes removed), matched as a nesting.  Flattening
ridges strictly inside a pair yields latticed paths; a family choosing one
path per pair is well-nested if inner pairs ride weakly above outer ones.
The norms of well-nested families are the exponents of the graded
decomposition number.

Inside a single-residue family the terrain is the member's slot word
(`slot_terrain`), so the closed-form engine decorates from slot positions;
`terrain_of` and `filled_edges` serve node-level input from outside a
family.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .gamma import GammaContext, NotInGamma, addable_nodes, removable_nodes
from .laurent import LaurentPoly
from .params import ParamContext
from .partitions import Multipartition, Node


class UnbalancedDecoration(ValueError):
    """The parenthesis string fails to nest: the arguments are not a
    dominance-ordered pair inside one family."""


class TerrainStep(NamedTuple):
    up: bool  # up for removable, down for addable
    node: Node


@dataclass(frozen=True)
class Terrain:
    residue: int
    steps: tuple[TerrainStep, ...]

    def directions(self) -> tuple[int, ...]:
        return tuple(1 if s.up else -1 for s in self.steps)

    def __len__(self):
        return len(self.steps)


def terrain_of(mu: Multipartition, residue: int, ctx: ParamContext) -> Terrain:
    r = ctx.residue(residue)
    entries = [TerrainStep(True, n) for n in removable_nodes(mu, ctx, [r])]
    entries += [TerrainStep(False, n) for n in addable_nodes(mu, ctx, [r])]
    entries.sort(key=lambda s: ctx.node_coord(s.node))
    return Terrain(r, tuple(entries))


def slot_terrain(mu: Multipartition, gctx: GammaContext) -> Terrain:
    """The terrain of a member of a single-residue family, read off its
    slot word: up where mu fills one of gamma's addable nodes of the
    residue, down where it leaves it empty."""
    r = gctx.residue
    filled = gctx.added_positions(mu)[r]
    return Terrain(
        r,
        tuple(TerrainStep(j in filled, node) for j, node in enumerate(gctx.addable[r], start=1)),
    )


@dataclass(frozen=True)
class DecoratedTerrain:
    terrain: Terrain
    opens: tuple[int, ...]  # 1-based edge indices carrying '('
    closes: tuple[int, ...]
    pairs: tuple[tuple[int, int], ...]  # (open edge, close edge), nested


def filled_edges(terrain: Terrain, mu, lam, ctx: ParamContext) -> frozenset[int]:
    """The 1-based edges of mu's terrain whose node lam contains, after
    checking that lam differs from mu only by moving nodes of the
    terrain's residue on its edges, size for size."""
    common = mu.meet(lam)
    added = set(lam.diagram_difference(common))
    removed = set(mu.diagram_difference(common))
    r = terrain.residue
    for node in added | removed:
        if ctx.residue_of(node) != r:
            raise UnbalancedDecoration(
                f"node {node} moved between {mu} and {lam} has residue "
                f"{ctx.residue_of(node)}, not {r}"
            )
    if lam.size != mu.size:
        raise UnbalancedDecoration(f"sizes differ: {lam.size} vs {mu.size}")
    edge_nodes = {step.node for step in terrain.steps}
    for node in added:
        if node not in edge_nodes:
            raise UnbalancedDecoration(f"added node {node} is not addable in mu")
    for node in removed:
        if node not in edge_nodes:
            raise UnbalancedDecoration(f"removed node {node} is not removable in mu")
    return frozenset(j for j, step in enumerate(terrain.steps, start=1) if lam.contains(step.node))


def decorate(terrain: Terrain, filled) -> DecoratedTerrain:
    """Decorate a terrain with the edges filled by a more dominant weight.

    `filled` holds the 1-based edges whose node the target contains.  Opens
    sit on filled down-steps (nodes the target adds), closes on unfilled
    up-steps (nodes it removes); stack matching must succeed, which is
    exactly the requirement that the target dominates the terrain's weight.
    """
    opens, closes, pairs = [], [], []
    stack = []
    for j, step in enumerate(terrain.steps, start=1):
        if not step.up and j in filled:
            opens.append(j)
            stack.append(j)
        elif step.up and j not in filled:
            closes.append(j)
            if not stack:
                raise UnbalancedDecoration(
                    f"close at edge {j} has no matching open: mu is not below lam"
                )
            pairs.append((stack.pop(), j))
    if stack:
        raise UnbalancedDecoration(f"opens at edges {stack} never close")
    return DecoratedTerrain(terrain, tuple(opens), tuple(closes), tuple(pairs))


@dataclass(frozen=True)
class LatticedPath:
    """A terrain with some generalized ridges inside one pair flattened.

    steps[j] is +1, -1, or 0 for edge j+1; the norm counts the surviving
    nonzero steps strictly inside the pair, plus one.
    """

    pair: tuple[int, int]
    steps: tuple[int, ...]

    @property
    def norm(self) -> int:
        lo, hi = self.pair
        return 1 + sum(1 for j in range(lo, hi - 1) if self.steps[j] != 0)


def prefix_heights(steps) -> tuple[int, ...]:
    """The heights of a walk's vertices, starting at 0."""
    out = [0]
    for s in steps:
        out.append(out[-1] + s)
    return tuple(out)


def latticed_paths(dt: DecoratedTerrain, pair) -> list[LatticedPath]:
    """Closure of the generic path under flattening one generalized ridge
    (up-step, run of zeros, down-step) strictly inside the pair."""
    if tuple(pair) not in set(dt.pairs):
        raise ValueError(f"{pair} is not a pair of the decoration")
    lo, hi = pair
    generic = dt.terrain.directions()
    seen = {generic}
    queue = [generic]
    while queue:
        steps = queue.pop()
        # candidate ridges: indices are 0-based here, edges lo+1..hi-1
        for a in range(lo, hi - 1):
            if steps[a] != 1:
                continue
            b = a + 1
            while b < hi - 1 and steps[b] == 0:
                b += 1
            if b >= hi - 1 or steps[b] != -1:
                continue
            flattened = steps[:a] + (0,) * (b - a + 1) + steps[b + 1 :]
            if flattened not in seen:
                seen.add(flattened)
                queue.append(flattened)
    paths = [LatticedPath(tuple(pair), s) for s in seen]
    paths.sort(key=lambda p: (-p.norm, p.steps))
    return paths


@dataclass(frozen=True)
class WellNestedFamily:
    paths: tuple[LatticedPath, ...]  # aligned with the decoration's pairs

    @property
    def norm(self) -> int:
        return sum(p.norm for p in self.paths)


def well_nested_families(dt: DecoratedTerrain) -> list[WellNestedFamily]:
    """All choices of one latticed path per pair such that whenever one pair
    contains another, the inner path rides weakly above the outer one.

    Riding weakly above is transitive, so each path is checked only against
    the pair immediately enclosing it.  Pairs are listed as they close, so
    that pair is the first later one opening earlier, and choosing from the
    last pair back fixes it first.
    """
    pairs = list(dt.pairs)
    options = [latticed_paths(dt, p) for p in pairs]
    heights = [[prefix_heights(p.steps) for p in opts] for opts in options]
    choices = [()]  # choices for pairs i.. onwards
    for i in reversed(range(len(pairs))):
        outer = next((j for j in range(i + 1, len(pairs)) if pairs[j][0] < pairs[i][0]), None)
        choices = [
            (c,) + rest
            for rest in choices
            for c, h in enumerate(heights[i])
            if outer is None
            or all(x >= y for x, y in zip(h, heights[outer][rest[outer - i - 1]]))
        ]
    families = [WellNestedFamily(tuple(opts[c] for opts, c in zip(options, cs))) for cs in choices]
    families.sort(key=lambda f: (-f.norm, tuple(p.steps for p in f.paths)))
    return families


def raw_family_count(dt: DecoratedTerrain) -> int:
    count = 1
    for p in dt.pairs:
        count *= len(latticed_paths(dt, p))
    return count


class NestedResult(NamedTuple):
    value: LaurentPoly
    valid_any_field: bool


def field_validity(gctx: GammaContext) -> bool:
    """The closed formula holds over every field when the working residue
    appears at most once in the multicharge; otherwise it is guaranteed
    over the complex numbers only."""
    r = gctx.residue
    return sum(1 for k in gctx.ctx.multicharge if k == r) <= 1


def nested_decomposition_number(lam, mu, gctx: GammaContext) -> NestedResult:
    """Graded decomposition number as the norm generating function of
    well-nested latticed-path families."""
    if not gctx.single_residue:
        raise NotInGamma("the closed formula needs a single-residue context")
    if lam == mu:
        gctx.require(lam)
        # with nothing added the family is just the base
        return NestedResult(LaurentPoly.one(), not gctx.multiset or field_validity(gctx))
    # leq reads lam's positions, then mu's: a non-member raises NotInGamma, lam first
    if not gctx.leq(mu, lam):
        return NestedResult(LaurentPoly.zero(), field_validity(gctx))
    dt = decorate(slot_terrain(mu, gctx), gctx.added_positions(lam)[gctx.residue])
    coeffs: dict[int, int] = {}
    for fam in well_nested_families(dt):
        coeffs[fam.norm] = coeffs.get(fam.norm, 0) + 1
    return NestedResult(LaurentPoly(coeffs), field_validity(gctx))
