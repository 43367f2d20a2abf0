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
    coord: object


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
    entries = [TerrainStep(True, n, ctx.node_coord(n)) for n in removable_nodes(mu, ctx, [r])]
    entries += [TerrainStep(False, n, ctx.node_coord(n)) for n in addable_nodes(mu, ctx, [r])]
    entries.sort(key=lambda s: s.coord)
    return Terrain(r, tuple(entries))


@dataclass(frozen=True)
class DecoratedTerrain:
    terrain: Terrain
    opens: tuple[int, ...]  # 1-based edge indices carrying '('
    closes: tuple[int, ...]
    pairs: tuple[tuple[int, int], ...]  # (open edge, close edge), nested


def decorate(mu, lam, residue, ctx: ParamContext) -> DecoratedTerrain:
    """Decorate the terrain of mu with the nodes moved to reach lam.

    Opens sit on nodes of lam missing from mu (down-steps), closes on nodes
    of mu missing from lam (up-steps); stack matching must succeed, which is
    exactly the dominance requirement mu <= lam.
    """
    terrain = terrain_of(mu, residue, ctx)
    common = mu.meet(lam)
    added = set(lam.diagram_difference(common))
    removed = set(mu.diagram_difference(common))
    r = ctx.residue(residue)
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

    opens, closes, pairs = [], [], []
    stack = []
    for j, step in enumerate(terrain.steps, start=1):
        if step.node in added:
            if step.up:
                raise UnbalancedDecoration(f"added node {step.node} is not addable in mu")
            opens.append(j)
            stack.append(j)
        elif step.node in removed:
            if not step.up:
                raise UnbalancedDecoration(f"removed node {step.node} is not removable in mu")
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

    def heights(self) -> tuple[int, ...]:
        out = [0]
        for s in self.steps:
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
    contains another, the inner path rides weakly above the outer one."""
    pairs = list(dt.pairs)
    options = [latticed_paths(dt, p) for p in pairs]
    heights = [[p.heights() for p in opts] for opts in options]
    contained = [
        [
            q != p and pairs[q][0] < pairs[p][0] and pairs[p][1] < pairs[q][1]
            for q in range(len(pairs))
        ]
        for p in range(len(pairs))
    ]

    families: list[WellNestedFamily] = []
    chosen: list[int] = []

    def compatible(p_idx: int, choice: int) -> bool:
        hp = heights[p_idx][choice]
        for q_idx, is_outer in enumerate(contained[p_idx]):
            if q_idx >= len(chosen):
                continue
            if is_outer:
                hq = heights[q_idx][chosen[q_idx]]
                if any(x < y for x, y in zip(hp, hq)):
                    return False
            if contained[q_idx][p_idx]:
                hq = heights[q_idx][chosen[q_idx]]
                if any(x > y for x, y in zip(hp, hq)):
                    return False
        return True

    def rec(i: int):
        if i == len(pairs):
            families.append(
                WellNestedFamily(tuple(options[j][c] for j, c in enumerate(chosen)))
            )
            return
        for choice in range(len(options[i])):
            if compatible(i, choice):
                chosen.append(choice)
                rec(i + 1)
                chosen.pop()

    rec(0)
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
    gctx.require(lam)
    gctx.require(mu)
    if not gctx.multiset:  # nothing was added: the family is just the base
        return NestedResult(LaurentPoly.one(), True)
    flag = field_validity(gctx)
    if lam == mu:
        return NestedResult(LaurentPoly.one(), flag)
    if not gctx.leq(mu, lam):
        return NestedResult(LaurentPoly.zero(), flag)
    dt = decorate(mu, lam, gctx.residue, gctx.ctx)
    coeffs: dict[int, int] = {}
    for fam in well_nested_families(dt):
        coeffs[fam.norm] = coeffs.get(fam.norm, 0) + 1
    return NestedResult(LaurentPoly(coeffs), flag)
