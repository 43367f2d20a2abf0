"""Seeded random cross-validation of the two decomposition-number engines.

Random single-residue contexts are drawn over varying quantum
characteristic, level, weighting regime, and base multipartition; on each
one the closed lattice-path formula and the character-peeling recursion
must agree entrywise, to zero tolerance.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .gamma import addable_nodes, build_gamma_set, strip_residues
from .params import ParamContext
from .partitions import Multipartition
from .peeling import EngineDisagreement, family_entries


# a drawn family's bounds: components, the residue's addable slots, nodes
# added, and the base multipartition's size
MAX_LEVEL, MAX_ADDABLE, MAX_ADDED, MAX_BASE_SIZE = 3, 6, 4, 12


def random_single_residue_context(rng: random.Random):
    """Draw one valid single-residue family context, retrying until the
    addable-slot and added-node bounds are met."""
    while True:
        e = rng.choice([3, 4, 5, None])
        level = rng.randint(1, MAX_LEVEL)
        modulus = e if e is not None else 7
        if level > 1 and rng.random() < 0.4:
            # equal charges give the chosen residue slots in every component
            multicharge = [rng.randrange(modulus)] * level
        else:
            multicharge = [rng.randrange(modulus) for _ in range(level)]
        g = Fraction(rng.choice([1, 1, 2, 3]), rng.choice([1, 1, 1, 2]))
        if rng.random() < 0.5:
            # well-separated: gaps far beyond n*g
            step = g * (MAX_BASE_SIZE + MAX_ADDED + 2) + Fraction(1, 3)
            theta = [step * k for k in range(level)]
        else:
            # FLOTW-style: all gaps strictly inside one scale unit
            theta = [Fraction(k, level + 1) * g for k in range(level)]
        try:
            ctx = ParamContext(e, multicharge, theta, g)
        except ValueError:
            continue

        if e is not None and rng.random() < 0.4:
            # staircase components step by e-1, so all their addable nodes
            # share one residue; this reaches the large-slot-count regime
            comps = [_staircase(rng, e) for _ in range(level)]
            base = Multipartition(comps)
        else:
            base = _random_multipartition(rng, level, rng.randint(0, MAX_BASE_SIZE))
        # weight the residue choice by addable-slot count so larger families
        # show up often, not just the one-slot degenerate cases
        candidates: dict[int, int] = {}
        for node in addable_nodes(base, ctx):
            r = ctx.residue_of(node)
            candidates[r] = candidates.get(r, 0) + 1
        if not candidates:
            continue
        residues = list(candidates)
        residue = rng.choices(residues, weights=[candidates[r] ** 3 for r in residues])[0]
        base = strip_residues(base, [residue], ctx)
        slots = addable_nodes(base, ctx, [residue])
        if not (1 <= len(slots) <= MAX_ADDABLE):
            continue
        a = len(slots)
        m = rng.randint(1, min(MAX_ADDED, a))
        if m == a and a > 1:
            m = rng.randint(1, a - 1)  # avoid the one-element family
        if a == 1 and rng.random() < 0.85:
            continue
        gctx = build_gamma_set(base, [residue], {residue: m}, ctx)
        return gctx


def _staircase(rng, e) -> tuple:
    height = rng.randint(1, {3: 5, 4: 4, 5: 3}[e])
    shift = rng.randint(0, e - 1)
    return tuple(shift + (e - 1) * j for j in range(height, 0, -1))


def _random_multipartition(rng, level, total) -> Multipartition:
    comps = []
    remaining = total
    for k in range(level):
        size = rng.randint(0, remaining) if k < level - 1 else remaining
        remaining -= size
        part = []
        cap = size
        while size > 0:
            p = rng.randint(1, min(cap, size))
            part.append(p)
            cap = p
            size -= p
        comps.append(tuple(part))
    return Multipartition(comps)


@dataclass
class OracleRun:
    contexts: int
    pairs: int
    failure: str | None = None

    @property
    def ok(self) -> bool:
        return self.failure is None


def cross_validate(count: int = 200, seed: int = 20240) -> OracleRun:
    """Compare the engines entrywise on seeded random contexts, on every
    pair with mu at or after lam (`family_entries` at 'both'); pairs counts
    the nonzero entries of the contexts that passed.  An entry is nonzero
    exactly on a comparable pair, so these are the comparable pairs: the
    engines decide dominance, and no pair is listed."""
    rng = random.Random(seed)
    pairs = 0
    for i in range(count):
        gctx = random_single_residue_context(rng)
        try:
            pairs += len(family_entries(gctx, "both"))
        except EngineDisagreement as exc:
            return OracleRun(
                i + 1,
                pairs,
                failure=f"context {i} over {gctx.gamma} (residue {gctx.residue}): {exc}",
            )
    return OracleRun(count, pairs)
