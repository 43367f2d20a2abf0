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

Decoration, paths and families work on the terrain's +-1 word alone.
Inside a family, a residue's word is the member's slot word (`slot_word`),
which `GammaContext.occupancy` holds as one byte per slot, so the
closed-form engine never builds a node; `terrain_of` and `filled_edges`
serve node-level input from outside a family.  Each norm is computed once,
when its path or family is built.

A path only has to ride above the pair directly enclosing it, so the
generating function is a product over the outermost pairs, and each factor
depends only on that pair's stretch of the word and the pairs inside it.
The engine reads both off one code per slot, which says whether mu, lam,
both or neither fill it (`root_codes`): a depth scan of the code cuts the
outermost pairs, and each root's code substring keys its norm generating
function on the `GammaContext`, so a root is decorated and its families
enumerated only the first time the family meets it.

When several residues are added, the code is the residues' codes
concatenated.  mu <= lam holds residue by residue, so each residue's
stretch balances and no outermost pair crosses between residues: the
product over roots is the entrywise product of the single-residue
matrices, as the tensor factorization (`tensor`) requires.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import ge
from typing import NamedTuple

from .gamma import GammaContext, addable_nodes, removable_nodes
from .laurent import LaurentPoly
from .params import ParamContext
from .partitions import Multipartition


class UnbalancedDecoration(ValueError):
    """The parenthesis string fails to nest: the arguments are not a
    dominance-ordered pair inside one family."""


def terrain_of(mu: Multipartition, residue: int, ctx: ParamContext):
    """mu's removable and addable nodes of the residue in coordinate order,
    and the terrain's word over them: +1 (up) where mu contains the node."""
    edges = removable_nodes(mu, ctx, [residue]) + addable_nodes(mu, ctx, [residue])
    nodes = sorted(edges, key=ctx.node_coord)
    return nodes, tuple(1 if mu.contains(n) else -1 for n in nodes)


def slot_word(mu: Multipartition, gctx: GammaContext) -> tuple[int, ...]:
    """The terrain of a member of a single-residue family as a word over
    gamma's addable nodes of the residue: +1 (up) where mu fills the slot,
    -1 (down) where it leaves it empty."""
    r = gctx.residue
    word = [-1] * len(gctx.addable[r])
    for j in gctx.added_positions(mu)[r]:
        word[j - 1] = 1
    return tuple(word)


@dataclass(frozen=True)
class DecoratedTerrain:
    steps: tuple[int, ...]  # the terrain's word: +1 up, -1 down
    pairs: tuple[tuple[int, int], ...]  # (open edge, close edge), 1-based, as they close

    @property
    def opens(self) -> tuple[int, ...]:
        """The edges carrying '(', ascending."""
        return tuple(sorted(lo for lo, _ in self.pairs))

    @property
    def closes(self) -> tuple[int, ...]:
        """The edges carrying ')', in pair order, which is ascending."""
        return tuple(hi for _, hi in self.pairs)


def filled_edges(nodes, mu, lam, residue: int, ctx: ParamContext) -> frozenset[int]:
    """The 1-based edges of mu's terrain `nodes` whose node lam contains,
    after checking that lam differs from mu only in nodes of the residue,
    size for size.  Both being partitions, and a node's upper and left
    neighbours having residues r+-1, every node mu loses is then removable
    in mu and every node lam gains is addable to it: an edge."""
    common = mu.meet(lam)
    r = ctx.residue(residue)
    for node in lam.diagram_difference(common) + mu.diagram_difference(common):
        if ctx.residue_of(node) != r:
            raise UnbalancedDecoration(
                f"node {node} moved between {mu} and {lam} has residue "
                f"{ctx.residue_of(node)}, not {r}"
            )
    if lam.size != mu.size:
        raise UnbalancedDecoration(f"sizes differ: {lam.size} vs {mu.size}")
    return frozenset(j for j, node in enumerate(nodes, start=1) if lam.contains(node))


def decorate(steps, filled) -> DecoratedTerrain:
    """Decorate a terrain's +-1 word with the edges filled by a more
    dominant weight.

    `filled` holds the 1-based edges whose node the target contains.  Opens
    sit on filled down-steps (nodes the target adds), closes on unfilled
    up-steps (nodes it removes); stack matching must succeed, which is
    exactly the requirement that the target dominates the terrain's weight.
    A step other than +-1, or a filled edge outside the word, raises.
    """
    steps = tuple(steps)
    stray = set(filled).difference(range(1, len(steps) + 1))
    if stray:
        raise UnbalancedDecoration(
            f"filled edges {sorted(stray)} lie outside the word's {len(steps)} edges"
        )
    pairs, stack = [], []
    for j, step in enumerate(steps, start=1):
        if step == -1:
            if j in filled:
                stack.append(j)
        elif step != 1:
            raise UnbalancedDecoration(f"step {step!r} at edge {j} is neither +1 nor -1")
        elif j not in filled:
            if not stack:
                raise UnbalancedDecoration(
                    f"close at edge {j} has no matching open: mu is not below lam"
                )
            pairs.append((stack.pop(), j))
    if stack:
        raise UnbalancedDecoration(f"opens at edges {stack} never close")
    return DecoratedTerrain(steps, tuple(pairs))


def root_codes(code: bytes):
    """The outermost pairs of a decoration given as one code per slot, left
    to right: for each, its stretch of the code from open to close.

    A slot's code is 1 where only the lower weight mu fills it (a close), 2
    where only the more dominant lam does (an open), 3 where both do and 0
    where neither does; the code of a dominance-ordered pair balances, so
    one scan of the nesting depth finds where each outermost pair opens
    and closes.
    """
    depth = 0
    for j, c in enumerate(code):
        if c == 2:
            if not depth:
                start = j
            depth += 1
        elif c == 1:
            depth -= 1
            if not depth:
                yield code[start : j + 1]


@dataclass(frozen=True)
class LatticedPath:
    """A terrain with some generalized ridges inside one pair flattened.

    steps[j] is +1, -1, or 0 for edge j+1; the norm counts the surviving
    nonzero steps strictly inside the pair, plus one.
    """

    pair: tuple[int, int]
    steps: tuple[int, ...]
    norm: int = field(init=False)

    def __post_init__(self):
        lo, hi = self.pair
        object.__setattr__(self, "norm", 1 + sum(1 for s in self.steps[lo : hi - 1] if s))


def prefix_heights(steps) -> tuple[int, ...]:
    """The heights of a walk's vertices, starting at 0."""
    out = [0]
    for s in steps:
        out.append(out[-1] + s)
    return tuple(out)


def latticed_paths(dt: DecoratedTerrain, pair) -> list[LatticedPath]:
    """Closure of the generic path under flattening one generalized ridge
    (up-step, run of zeros, down-step) strictly inside the pair."""
    if tuple(pair) not in dt.pairs:
        raise ValueError(f"{pair} is not a pair of the decoration")
    lo, hi = pair
    generic = dt.steps
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
    norm: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "norm", sum(p.norm for p in self.paths))


def well_nested_families(dt: DecoratedTerrain) -> list[WellNestedFamily]:
    """All choices of one latticed path per pair such that whenever one pair
    contains another, the inner path rides weakly above the outer one.

    Riding weakly above is transitive, so each path is checked only against
    the pair immediately enclosing it.  Pairs are listed as they close, so
    that pair is the first later one opening earlier, and choosing from the
    last pair back fixes it first.  Outside its own pair a path is the
    generic walk, and flattening only lowers a walk, so the enclosing path
    is compared on the inner pair's stretch alone.
    """
    pairs = dt.pairs
    options = [latticed_paths(dt, p) for p in pairs]
    heights = [[prefix_heights(p.steps) for p in opts] for opts in options]
    choices = [()]  # choices for pairs i.. onwards
    for i in reversed(range(len(pairs))):
        lo, hi = pairs[i]
        outer = next((j for j in range(i + 1, len(pairs)) if pairs[j][0] < lo), None)
        if outer is None:
            choices = [(c,) + rest for rest in choices for c in range(len(options[i]))]
            continue
        inner = [h[lo:hi] for h in heights[i]]
        below = [h[lo:hi] for h in heights[outer]]
        k = outer - i - 1
        choices = [
            (c,) + rest
            for rest in choices
            for c, h in enumerate(inner)
            if all(map(ge, h, below[rest[k]]))
        ]
    families = [WellNestedFamily(tuple(opts[c] for opts, c in zip(options, cs))) for cs in choices]
    families.sort(key=lambda f: (-f.norm, tuple(p.steps for p in f.paths)))
    return families


class NestedResult(NamedTuple):
    value: LaurentPoly
    valid_any_field: bool | None


def field_validity(gctx: GammaContext) -> bool | None:
    """True when the closed formula holds over every field: nothing is
    added, or the one added residue appears at most once in the
    multicharge.  False when it appears more often: the formula is then
    guaranteed over the complex numbers only.  None when several residues
    are added, a case the paper's statement does not cover."""
    if len(gctx.multiset) > 1:
        return None
    return not gctx.multiset or gctx.ctx.multicharge.count(gctx.residue) <= 1


def nested_decomposition_number(lam, mu, gctx: GammaContext) -> NestedResult:
    """Graded decomposition number as the norm generating function of
    well-nested latticed-path families.

    A path is checked only against the pair directly enclosing it, so the
    families are independent choices under each outermost pair, and their
    norms add: the generating function is the product, over outermost
    pairs, of the norm generating function of that pair's stretch, its
    root.  lam's and mu's slots merge into one code per slot
    (`root_codes`), and a root's code fixes its word and its pairs, so each
    distinct root is decorated and enumerated once per family, in
    `gctx.segment_norms`.  Dominance is decided here, by one `gctx.leq`
    per pair: a pair with mu not below lam is zero, so callers pass any
    pair of members, and `family_entries` lists none.
    """
    if lam == mu:
        gctx.require(lam)
        return NestedResult(LaurentPoly.one(), field_validity(gctx))
    # leq reads lam's positions, then mu's: a non-member raises NotInGamma, lam first
    if not gctx.leq(mu, lam):
        return NestedResult(LaurentPoly.zero(), field_validity(gctx))
    # one byte per slot, each 0 or 1, so the sum carries nothing between slots
    below, above = gctx.occupancy[mu], gctx.occupancy[lam]
    code = (int.from_bytes(below, "big") + 2 * int.from_bytes(above, "big")).to_bytes(len(below), "big")
    value = None  # lam != mu, so there is at least one pair
    for root in root_codes(code):
        norms = gctx.segment_norms.get(root)
        if norms is None:
            steps = tuple(1 if c & 1 else -1 for c in root)
            dt = decorate(steps, {j for j, c in enumerate(root, start=1) if c & 2})
            coeffs: dict[int, int] = {}
            for fam in well_nested_families(dt):
                coeffs[fam.norm] = coeffs.get(fam.norm, 0) + 1
            norms = gctx.segment_norms[root] = LaurentPoly(coeffs)
        value = norms if value is None else value * norms
    return NestedResult(value, field_validity(gctx))
