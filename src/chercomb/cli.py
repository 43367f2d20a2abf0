"""Command-line interface.

Subcommands: validate, gamma-set, tableaux, delta-char, decomp, terrain,
chi, transport, tensor-factor, selfcheck.  Each command returns its result
(with an exit code when it can fail after computing), and `main` writes it
once, to stdout or --out, as json, csv, or latex.  Exit codes: 0 success,
1 validation failure, 2 computation failure, 3 engine disagreement.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager, nullcontext
from json.encoder import encode_basestring_ascii

from .contextio import (
    ParseError,
    context_to_json,
    multipartition_to_json,
    parse_context,
    parse_multipartition,
)
from .diagonals import chi_sequence, format_chi, i_diagonals
from .equivalence import chi_equivalent
from .gamma import NotInGamma
from .laurent import LaurentPoly, PositivityViolation
from .params import ValidationError, field_value
from .peeling import (
    ENGINES,
    EngineDisagreement,
    InvariantViolation,
    NonSaturatedPoset,
    decomp_number,
    family_entries,
)
from .selfcheck import cross_validate
from .tableaux import delta_character, enumerate_sstd, tableau_degree
from .tensor import factor_check, factor_context, psi_multipartition
from .terrain import UnbalancedDecoration, decorate, filled_edges, latticed_paths, terrain_of
from .transport import TransportMap
from .render import terrain_ascii, terrain_svg

EXIT_OK, EXIT_VALIDATION, EXIT_COMPUTE, EXIT_DISAGREE = 0, 1, 2, 3


def _emit(result, args):
    """Write a command's result once, to --out when given, else to stdout.

    A drawing is written as it is and a payload in --format: JSON encoded
    as it is written (`_write_json`), CSV and LaTeX built before the file is
    opened.  A LaurentPoly cell of a row is written in the format's form:
    to_latex in LaTeX, its plain form otherwise.  An --out that cannot be
    opened, written or closed is a validation failure, and so is a stdout
    that fails, a closed pipe say: stdout is then pointed at devnull, as
    the Python docs advise, so nothing more reaches the pipe at exit.
    """
    if not isinstance(result, str) and args.format != "json":
        result = _to_csv(result) if args.format == "csv" else _to_latex(result)
    try:
        with open(args.out, "w", encoding="utf-8") if args.out else nullcontext(sys.stdout) as fh:
            if isinstance(result, str):
                fh.write(result)
            else:
                _write_json(result, fh, _poly_text(str))
            fh.write("\n")
            fh.flush()
    except OSError as exc:
        if not args.out:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise ValidationError(f"{'--out' if args.out else 'stdout'}: {exc}") from exc


def _write_json(payload, fh, default):
    """Write payload to fh with the bytes of
    `json.dump(payload, fh, indent=2, sort_keys=True, default=default)`.

    The payload and each of its members are written item by item as they
    are encoded, so the whole text is never held; each item below them (a
    row, a member, a coefficient dict) is rendered to text whole.  The text
    of a dict, or of an object encoded through default, is rendered once
    per (object, depth) and reused: the entries of a matrix share their
    equal values.  The memo keeps each object it renders, so no id is
    reused while it lives.  Lists and tuples are not memoized, since rows
    are distinct.  An object json cannot encode, and default refuses,
    raises TypeError.
    """
    memo = {}

    def text(o, depth):
        if isinstance(o, str):
            return encode_basestring_ascii(o)
        if type(o) is int:
            return int.__repr__(o)
        if o is None or isinstance(o, (int, float)):
            return json.dumps(o)  # a bool, a float or an int subclass, as json writes it
        if isinstance(o, (list, tuple)):
            return block(o, depth)
        seen = memo.get((id(o), depth))
        if seen is None:
            form = block(o, depth) if isinstance(o, dict) else text(default(o), depth)
            seen = memo[(id(o), depth)] = (o, form)
        return seen[1]

    def block(o, depth):
        """The text of a list, tuple or dict."""
        if not o:
            return "{}" if isinstance(o, dict) else "[]"
        if isinstance(o, dict):
            left, right = "{}"
            parts = [_json_key(k) + ": " + text(o[k], depth + 1) for k in sorted(o)]
        else:
            left, right = "[]"
            parts = [text(x, depth + 1) for x in o]
        inner = "\n" + "  " * (depth + 1)
        return left + inner + ("," + inner).join(parts) + "\n" + "  " * depth + right

    def write(o, depth, lead):
        """Write lead and then o, item by item down to depth 1."""
        if depth > 1 or not isinstance(o, (dict, list, tuple)) or not o:
            fh.write(lead + text(o, depth))
            return
        if isinstance(o, dict):
            left, right = "{}"
            members = ((_json_key(k) + ": ", o[k]) for k in sorted(o))
        else:
            left, right = "[]"
            members = (("", x) for x in o)
        inner = "\n" + "  " * (depth + 1)
        for head, value in members:
            write(value, depth + 1, lead + left + inner + head)
            lead, left = "", ","
        fh.write("\n" + "  " * depth + right)

    write(payload, 0, "")


def _json_key(key) -> str:
    """A dict key as json writes it: a str as it is; an int, float, bool or
    None as its JSON text; anything else refused."""
    if not isinstance(key, str):
        if not (key is None or isinstance(key, (int, float))):
            raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
        key = json.dumps(key)
    return encode_basestring_ascii(key)


def _poly_text(render):
    """The text of a LaurentPoly cell, rendered once per distinct object:
    the cells of a matrix share their equal values.  As the JSON encoder's
    default it refuses any other object, as the encoder does."""
    texts = {}

    def text(poly):
        if not isinstance(poly, LaurentPoly):
            raise TypeError(f"Object of type {type(poly).__name__} is not JSON serializable")
        form = texts.get(id(poly))
        if form is None:
            form = texts[id(poly)] = render(poly)
        return form

    return text


def _to_csv(payload) -> str:
    rows = payload.get("rows")
    if rows is None:
        rows = [[k, json.dumps(v)] for k, v in sorted(payload.items())]
    header = payload.get("columns")
    lines = []
    if header:
        lines.append(",".join(header))
    text = _poly_text(str)
    for row in rows:
        lines.append(",".join(_csv_cell(text(x) if isinstance(x, LaurentPoly) else x) for x in row))
    return "\n".join(lines)


def _csv_cell(x) -> str:
    s = x if isinstance(x, str) else json.dumps(x)
    if any(ch in s for ch in ',"\n'):
        s = '"' + s.replace('"', '""') + '"'
    return s


def _to_latex(payload) -> str:
    if "latex" in payload:
        return payload["latex"]
    rows = payload.get("rows")
    if rows is None:
        return json.dumps(payload)
    lines = ["\\begin{array}{%s}" % ("l" * len(payload["columns"]))]
    text = _poly_text(LaurentPoly.to_latex)
    for row in rows:
        lines.append(" & ".join(text(x) if isinstance(x, LaurentPoly) else str(x) for x in row) + " \\\\")
    lines.append("\\end{array}")
    return "\n".join(lines)


def _poly_payload(poly: LaurentPoly) -> dict:
    return {
        "coefficients": poly.to_sorted_dict(),
        "pretty": str(poly),
        "latex": poly.to_latex(),
    }


def _need_gamma(gctx, what="context"):
    if gctx is None:
        raise ValidationError(f"{what}: needs gamma/residues/multiset in the context file")
    return gctx


def _residue(gctx, what="context"):
    """The working residue of a single-residue family; what names the argument."""
    if len(_need_gamma(gctx, what).multiset) != 1:
        raise ValidationError(f"{what}: the family is not single-residue")
    return gctx.residue


def _pinning(gctx, lam, mu):
    """The family when it holds both shapes, so the base nodes are pinned;
    else None, the general search."""
    return gctx if gctx is not None and lam in gctx and mu in gctx else None


def _mp_arg(text, name, ctx):
    return parse_multipartition(field_value(name, json.loads, text), name, ctx.level)


@contextmanager
def _argument(name):
    """Name the argument at fault in a shape's failure inside the block:
    a shape outside the family, or a decoration that does not balance."""
    try:
        yield
    except (NotInGamma, UnbalancedDecoration) as exc:
        raise type(exc)(f"{name}: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_validate(args):
    ctx, gctx, _ = parse_context(args.context)
    payload = context_to_json(ctx, gctx)
    payload["valid"] = True
    if gctx is not None:
        payload["family_size"] = len(gctx)
    return payload


def cmd_gamma_set(args):
    _, gctx, _ = parse_context(args.context)
    gctx = _need_gamma(gctx)
    edges = [[gctx.index[lam], gctx.index[mu]] for lam, mu in gctx.covers()]
    payload = {
        "top": multipartition_to_json(gctx.top),
        "bottom": multipartition_to_json(gctx.bottom),
        "members": [multipartition_to_json(m) for m in gctx.elements],
        "hasse_edges": edges,
        "rows": [[i, json.dumps(multipartition_to_json(m))] for i, m in enumerate(gctx.elements)],
        "columns": ["index", "multipartition"],
    }
    return payload


def cmd_tableaux(args):
    ctx, gctx, _ = parse_context(args.context)
    lam = _mp_arg(args.shape, "shape", ctx)
    mu = _mp_arg(args.weight, "weight", ctx)
    tabs = enumerate_sstd(lam, mu, ctx, _pinning(gctx, lam, mu))
    degrees = [tableau_degree(tab, ctx) for tab in tabs]
    rows = []
    for tab, degree in zip(tabs, degrees):
        moved = {str(a): str(b) for a, b in sorted(tab.mapping.items())}
        rows.append([degree, json.dumps(moved)])
    payload = {
        "count": len(tabs),
        "degrees": sorted(degrees),
        "rows": rows,
        "columns": ["degree", "moved_nodes"],
    }
    return payload


def cmd_delta_char(args):
    ctx, gctx, _ = parse_context(args.context)
    lam = _mp_arg(args.shape, "shape", ctx)
    mu = _mp_arg(args.weight, "weight", ctx)
    poly = delta_character(lam, mu, ctx, _pinning(gctx, lam, mu))
    return _poly_payload(poly)


def cmd_decomp(args):
    ctx, gctx, _ = parse_context(args.context)
    gctx = _need_gamma(gctx)
    if args.pair:
        lam = _mp_arg(args.pair[0], "--pair", ctx)
        mu = _mp_arg(args.pair[1], "--pair", ctx)
        with _argument("--pair"):
            gctx.require(lam)
            gctx.require(mu)
        result = decomp_number(lam, mu, gctx, engine=args.engine)
        payload = _poly_payload(result.value)
        payload["engine"] = result.engine
        if result.valid_any_field is not None:
            payload["valid_any_field"] = result.valid_any_field
        return payload
    index = gctx.index
    # lam-major along the order, the order the rows are written in
    rows = [(index[lam], index[mu], poly) for (lam, mu), poly in family_entries(gctx, args.engine).items()]
    # the engine shares equal values: each distinct one gets one coefficient
    # dict, and every row holds the shared value, which the writer renders
    coefficients, entries = {}, {}
    for i, j, poly in rows:
        coeffs = coefficients.get(id(poly))
        if coeffs is None:
            coeffs = coefficients[id(poly)] = poly.to_sorted_dict()
        entries[f"{i},{j}"] = coeffs
    return {
        "order": [multipartition_to_json(m) for m in gctx.elements],
        "entries": entries,
        "rows": rows,
        "columns": ["row", "col", "d"],
    }


def cmd_terrain(args):
    if args.paths and not (args.decorate and args.render == "ascii"):
        raise ValidationError("--paths: needs --decorate and --render ascii")
    ctx, gctx, _ = parse_context(args.context)
    mu = _mp_arg(args.weight, "weight", ctx)
    if args.residue is not None:
        residue = ctx.residue(args.residue)
    else:
        residue = _residue(gctx)
    nodes, word = terrain_of(mu, residue, ctx)
    dt = None
    if args.decorate:
        lam = _mp_arg(args.decorate, "decorate", ctx)
        with _argument("decorate"):
            dt = decorate(word, filled_edges(nodes, mu, lam, residue, ctx))
    if args.render == "svg":
        return terrain_svg(word, dt)
    if args.render == "ascii":
        blocks = [terrain_ascii(word, dt)]
        if args.paths:
            for pair in dt.pairs:
                for p in latticed_paths(dt, pair):
                    blocks.append(f"pair {pair}, norm {p.norm}:")
                    blocks.append(terrain_ascii(word, dt, path=p))
        return "\n".join(blocks)
    payload = {
        "residue": residue,
        "steps": [
            {"direction": "up" if s > 0 else "down", "node": list(node)}
            for s, node in zip(word, nodes)
        ],
    }
    if dt is not None:
        payload["opens"] = list(dt.opens)
        payload["closes"] = list(dt.closes)
        payload["pairs"] = [list(p) for p in dt.pairs]
    return payload


def cmd_chi(args):
    if args.depth < 0:
        raise ValidationError(f"--depth must be at least 0, got {args.depth}")
    ctx, gctx, eps = parse_context(args.context)
    residue = _residue(gctx)
    seq = chi_sequence(gctx.gamma, residue, ctx)
    diags = i_diagonals(gctx.gamma, residue, ctx)
    payload = {
        "chi": format_chi(seq),
        "x_order": [str(d.x) for d in diags],
        "x_numeric": [str(d.x.numeric(eps)) for d in diags],
    }
    if args.compare:
        octx, ogctx, _ = parse_context(args.compare)
        other_residue = _residue(ogctx, "--compare")
        other = chi_sequence(ogctx.gamma, other_residue, octx)
        report = chi_equivalent(seq, other, depth=args.depth)
        payload["other_chi"] = format_chi(other)
        payload["status"] = report.status
        payload["search"] = {"states": report.states, "depth": report.depth}
        if report.trace is not None:
            payload["trace"] = [step.describe() for step in report.trace]
            payload["rules_used"] = sorted(report.rules_used)
        if report.separating_invariant is not None:
            payload["separating_invariant"] = [
                [list(x) for x in inv] for inv in report.separating_invariant
            ]
    return payload


def cmd_transport(args):
    ctx, gctx, _ = parse_context(args.context)
    _residue(gctx)
    _, tgctx, _ = parse_context(args.target)
    _residue(tgctx, "--target")
    tmap = TransportMap(gctx, tgctx)
    if args.shape:
        lam = _mp_arg(args.shape, "--shape", ctx)
        with _argument("--shape"):
            target = tmap.multipartition(lam)
        payload = {
            "source": multipartition_to_json(lam),
            "target": multipartition_to_json(target),
        }
    else:
        rows = [
            [
                json.dumps(multipartition_to_json(lam)),
                json.dumps(multipartition_to_json(tmap.multipartition(lam))),
            ]
            for lam in gctx.elements
        ]
        payload = {"rows": rows, "columns": ["source", "target"]}
    return payload


def cmd_tensor_factor(args):
    ctx, gctx, _ = parse_context(args.context)
    gctx = _need_gamma(gctx)
    fctx = factor_context(gctx)
    payload = {
        "active_residues": fctx.active_residues,
        "child_sizes": {str(r): len(fctx.children[r]) for r in fctx.active_residues},
        "family_size": len(gctx),
        "splits": [
            {
                "member": multipartition_to_json(lam),
                "factors": {
                    str(r): multipartition_to_json(p)
                    for r, p in psi_multipartition(lam, fctx).items()
                },
            }
            for lam in gctx.elements
        ],
    }
    if args.verify:
        report = factor_check(fctx)
        payload["verified"] = report.ok
        payload["pairs_checked"] = report.pairs_checked
        payload["tableaux_checked"] = report.tableaux_checked
        if not report.ok:
            payload["failure"] = report.failure
            return payload, EXIT_COMPUTE
    return payload, EXIT_OK


def cmd_selfcheck(args):
    if args.count < 1:
        raise ValidationError(f"--count must be at least 1, got {args.count}")
    run = cross_validate(count=args.count, seed=args.seed)
    payload = {
        "contexts": run.contexts,
        "pairs": run.pairs,
        "ok": run.ok,
    }
    if not run.ok:
        payload["failure"] = run.failure
        return payload, EXIT_DISAGREE
    return payload, EXIT_OK


# ---------------------------------------------------------------------------


class UsageError(ValueError):
    """A malformed command line; it exits 1 like any other bad input."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="chercomb",
        description="graded combinatorics of diagrammatic Cherednik algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, context=True):
        if context:
            p.add_argument("context", help="context file (JSON) or inline JSON text")
        p.add_argument("--out", help="write output to this file")
        p.add_argument(
            "--format", choices=["json", "csv", "latex"], default="json"
        )

    p = sub.add_parser("validate", help="validate a context file")
    common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("gamma-set", help="list the family, extremes, and Hasse edges")
    common(p)
    p.set_defaults(func=cmd_gamma_set)

    p = sub.add_parser("tableaux", help="list semistandard tableaux with degrees")
    common(p)
    p.add_argument("shape")
    p.add_argument("weight")
    p.set_defaults(func=cmd_tableaux)

    p = sub.add_parser("delta-char", help="graded standard character")
    common(p)
    p.add_argument("shape")
    p.add_argument("weight")
    p.set_defaults(func=cmd_delta_char)

    p = sub.add_parser("decomp", help="graded decomposition numbers")
    common(p)
    p.add_argument("--engine", choices=ENGINES, default="both")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--pair", nargs=2, metavar=("SHAPE", "WEIGHT"))
    mode.add_argument("--matrix", action="store_true")
    p.set_defaults(func=cmd_decomp)

    p = sub.add_parser("terrain", help="terrain of a weight, optionally decorated")
    common(p)
    p.add_argument("weight")
    p.add_argument("--decorate", metavar="SHAPE")
    p.add_argument("--residue", type=int)
    p.add_argument("--render", choices=["ascii", "svg"])
    p.add_argument("--paths", action="store_true", help="also draw every latticed path")
    p.set_defaults(func=cmd_terrain)

    p = sub.add_parser("chi", help="brick signature, optionally compared")
    common(p)
    p.add_argument("--compare", metavar="OTHER_CONTEXT")
    p.add_argument("--depth", type=int, default=8)
    p.set_defaults(func=cmd_chi)

    p = sub.add_parser("transport", help="slot transport into another context")
    common(p)
    p.add_argument("--target", required=True, metavar="OTHER_CONTEXT")
    p.add_argument("--shape")
    p.set_defaults(func=cmd_transport)

    p = sub.add_parser("tensor-factor", help="split an adjacency-free family by residue")
    common(p)
    p.add_argument("--verify", action="store_true")
    p.set_defaults(func=cmd_tensor_factor)

    p = sub.add_parser("selfcheck", help="random cross-validation of both engines")
    common(p, context=False)
    p.add_argument("--count", type=int, default=50)
    p.add_argument("--seed", type=int, default=20240)
    p.set_defaults(func=cmd_selfcheck)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        result = args.func(args)
        result, code = result if isinstance(result, tuple) else (result, EXIT_OK)
        _emit(result, args)
        return code
    except EngineDisagreement as exc:
        print(json.dumps({"error": "engine disagreement", "detail": str(exc)}))
        return EXIT_DISAGREE
    except (PositivityViolation, NonSaturatedPoset, InvariantViolation) as exc:
        print(json.dumps({"error": "computation failure", "detail": str(exc)}))
        return EXIT_COMPUTE
    except (ParseError, ValidationError, ValueError, NotInGamma, UnbalancedDecoration) as exc:
        print(json.dumps({"error": "validation failure", "detail": str(exc)}))
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
