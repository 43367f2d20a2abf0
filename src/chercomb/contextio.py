"""Context-file ingestion and serialization helpers.

A context file is a JSON document fixing the algebra parameters and,
optionally, a base multipartition with its residue set and multiset of
additions.  All invariants are enforced at this boundary so the rest of
the library can assume validated inputs.
"""

from __future__ import annotations

import json
import os

from .coords import as_fraction
from .gamma import GammaContext, build_gamma_set
from .params import ParamContext, field_value
from .partitions import Multipartition, exact_int


class ParseError(ValueError):
    pass


def parse_multipartition(data, path="multipartition") -> Multipartition:
    if not isinstance(data, list) or not all(isinstance(c, list) for c in data):
        raise ParseError(f"{path}: expected a list of integer lists")
    try:
        return Multipartition(data)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: {exc}") from exc


def multipartition_to_json(lam: Multipartition) -> list[list[int]]:
    return [list(c) for c in lam.comps]


def parse_context(source) -> tuple[ParamContext, GammaContext | None, object]:
    """Parse a context document given as a path, JSON text, or dict.

    Returns (parameters, optional family context, display tilt).
    """
    if isinstance(source, dict):
        doc = source
    else:
        text = source
        if isinstance(source, (str, os.PathLike)) and os.path.exists(source):
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("context document must be a JSON object")

    for key in ("e", "multicharge", "theta", "g"):
        if key not in doc:
            raise ParseError(f"{key}: missing required field")
    ctx = ParamContext(doc["e"], doc["multicharge"], doc["theta"], doc["g"])

    eps_display = field_value("epsilon_display", as_fraction, doc.get("epsilon_display", "1/100"))

    gctx = None
    if "gamma" in doc:
        gamma = parse_multipartition(doc["gamma"], "gamma")
        if gamma.level != ctx.level:
            raise ParseError(
                f"gamma: has {gamma.level} components but level is {ctx.level}"
            )
        residues = doc.get("residues")
        if residues is None:
            raise ParseError("residues: required when gamma is present")
        multiset_doc = doc.get("multiset")
        if multiset_doc is None:
            raise ParseError("multiset: required when gamma is present")
        if not isinstance(multiset_doc, dict):
            raise ParseError("multiset: expected an object residue -> count")
        multiset = field_value(
            "multiset", lambda m: {int(k): exact_int(v) for k, v in m.items()}, multiset_doc
        )
        if any(v < 0 for v in multiset.values()):
            raise ParseError(f"multiset: counts must be non-negative, got {multiset_doc}")
        if not isinstance(residues, list):
            raise ParseError(f"residues: expected a list of residues, got {residues!r}")
        residues = field_value("residues", lambda rs: [exact_int(r) for r in rs], residues)
        gctx = build_gamma_set(gamma, residues, multiset, ctx)
    return ctx, gctx, eps_display


def context_to_json(ctx: ParamContext, gctx: GammaContext | None = None) -> dict:
    doc = {
        "e": "infinity" if ctx.e is None else ctx.e,
        "multicharge": list(ctx.multicharge),
        "theta": [str(t) for t in ctx.theta],
        "g": str(ctx.g),
    }
    if gctx is not None:
        doc["gamma"] = multipartition_to_json(gctx.gamma)
        doc["residues"] = sorted(gctx.residue_set)
        doc["multiset"] = {str(r): m for r, m in sorted(gctx.multiset.items())}
    return doc
