"""Layer tracing from outside the program.

`Tracer.install` replaces each public layer function listed in `SPANS` and
`COUNTS` with a wrapper, at every binding under which a loaded `chercomb`
module holds it (the defining module and every module that imported the
name), and on the class for methods.  A caller that looked the name up
before installation would be missed, so `check_coverage` fails the run when
a layer that should dominate a workload recorded no calls.

Spans stay in memory as (name, parent, request, start, end) and are turned
into metrics, and optionally written out, only after the workload ends.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import Counter
from time import perf_counter

# span name -> (module, function) of the layer function it times
SPANS = {
    "tableaux.degree": ("chercomb.tableaux", "tableau_degree"),
    "tableaux.enum": ("chercomb.tableaux", "enumerate_sstd"),
    "tableaux.char": ("chercomb.tableaux", "delta_character"),
    "peeling.peel": ("chercomb.peeling", "peel_matrix"),
    "gamma.build": ("chercomb.gamma", "build_gamma_set"),
    "selfcheck.draw": ("chercomb.selfcheck", "random_single_residue_context"),
    "terrain.decorate": ("chercomb.terrain", "decorate"),
    "terrain.families": ("chercomb.terrain", "well_nested_families"),
    "terrain.nested": ("chercomb.terrain", "nested_decomposition_number"),
    "equivalence.search": ("chercomb.equivalence", "chi_equivalent"),
    "contextio.parse": ("chercomb.contextio", "parse_context"),
}

# counted but not timed: too many calls to carry a span each
COUNTS = {
    "params.node_coord": ("chercomb.params", "ParamContext.node_coord"),
    "gamma.leq": ("chercomb.gamma", "GammaContext.leq"),
    "equivalence.neighbours": ("chercomb.equivalence", "neighbours"),
}


def _on_result(counts: Counter, name: str, args, result) -> None:
    """Count what a finished call produced, for the counts and ratios below."""
    if name == "tableaux.enum":
        counts["tableaux.tableaux"] += len(result)
    elif name == "tableaux.char":
        counts["tableaux.char_nonzero"] += bool(result)
    elif name == "peeling.peel":
        counts["peeling.members"] += len(args[0])
    elif name == "gamma.build":
        counts["gamma.members"] += len(result.elements)
    elif name == "terrain.families":
        counts["terrain.families"] += len(result)
    elif name == "terrain.nested":
        counts["terrain.nonzero"] += bool(result.value)
    elif name == "equivalence.search":
        counts["equivalence.decided"] += result.status != "unknown"
    elif name == "equivalence.neighbours":
        counts["equivalence.generated"] += len(result)


# The root span the benchmark opens around each `chercomb.cli.main` call.
CLI = "cli"

# Per-layer metrics (BENCHMARK.json `per_layer`): every `_s` is self time,
# the span's duration minus that of the spans it encloses, so the `_s`
# metrics of one workload add up to its traced run_s.
LAYER_METRICS = {
    "tableaux.degree_s": ("self_s", "tableaux.degree"),
    "tableaux.degree_calls": ("count", "tableaux.degree"),
    "tableaux.enum_s": ("self_s", "tableaux.enum"),
    "tableaux.enum_calls": ("count", "tableaux.enum"),
    "tableaux.tableaux": ("count", "tableaux.tableaux"),
    "tableaux.char_s": ("self_s", "tableaux.char"),
    "tableaux.char_calls": ("count", "tableaux.char"),
    "tableaux.char_nonzero_ratio": ("ratio", "tableaux.char_nonzero", "tableaux.char"),
    "params.node_coord_calls": ("count", "params.node_coord"),
    "peeling.peel_s": ("self_s", "peeling.peel"),
    "peeling.peel_calls": ("count", "peeling.peel"),
    "peeling.members": ("count", "peeling.members"),
    "gamma.build_s": ("self_s", "gamma.build"),
    "gamma.build_calls": ("count", "gamma.build"),
    "gamma.members": ("count", "gamma.members"),
    "gamma.leq_calls": ("count", "gamma.leq"),
    "selfcheck.draw_s": ("self_s", "selfcheck.draw"),
    "selfcheck.draw_calls": ("count", "selfcheck.draw"),
    "terrain.decorate_s": ("self_s", "terrain.decorate"),
    "terrain.decorate_calls": ("count", "terrain.decorate"),
    "terrain.families_s": ("self_s", "terrain.families"),
    "terrain.families": ("count", "terrain.families"),
    "terrain.nested_s": ("self_s", "terrain.nested"),
    "terrain.nested_calls": ("count", "terrain.nested"),
    "terrain.nonzero_ratio": ("ratio", "terrain.nonzero", "terrain.nested"),
    "equivalence.search_s": ("self_s", "equivalence.search"),
    "equivalence.searches": ("count", "equivalence.search"),
    "equivalence.expanded": ("count", "equivalence.neighbours"),
    "equivalence.generated": ("count", "equivalence.generated"),
    "equivalence.decided_ratio": ("ratio", "equivalence.decided", "equivalence.search"),
    "contextio.parse_s": ("self_s", "contextio.parse"),
    "cli.self_s": ("self_s", CLI),
}

# Layers that dominate each workload: each must record calls there, so a
# binding the tracer failed to reach shows as an error, not as a zero.
REQUIRED_CALLS = {
    "flotw_pair": [
        "tableaux.degree", "tableaux.enum", "tableaux.char", "params.node_coord",
        "peeling.peel", "gamma.build", "gamma.leq", "terrain.nested", "contextio.parse", CLI,
    ],
    "nested_matrix": [
        "terrain.decorate", "terrain.families", "terrain.nested", "gamma.build",
        "gamma.leq", "contextio.parse", CLI,
    ],
    "selfcheck": [
        "selfcheck.draw", "gamma.build", "gamma.leq", "tableaux.degree", "tableaux.char",
        "peeling.peel", "terrain.nested", CLI,
    ],
    "chi_search": ["equivalence.search", "equivalence.neighbours"],
}


class CoverageError(RuntimeError):
    """A layer expected to dominate a workload recorded no calls."""


def _resolve(module: str, qualname: str):
    owner = importlib.import_module(module)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.request = 0
        self._stack = [-1]

    def open(self) -> tuple[int, float]:
        """Start a span under the innermost open one; pass the handle to close."""
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        return index, perf_counter()

    def close(self, name: str, handle) -> None:
        index, start = handle
        end = perf_counter()
        self._stack.pop()
        self.spans[index] = (name, self._stack[-1], self.request, start, end)

    def _span(self, name, fn):
        def traced(*args, **kwargs):
            handle = self.open()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(name, handle)
            _on_result(self.counts, name, args, result)
            return result

        return traced

    def _count(self, name, fn):
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.counts[name] += 1
            _on_result(self.counts, name, args, result)
            return result

        return counted

    def install(self) -> None:
        """Wrap every layer function at every binding that holds it."""
        modules = [m for n, m in sys.modules.items() if n == "chercomb" or n.startswith("chercomb.")]
        for table, wrap in ((SPANS, self._span), (COUNTS, self._count)):
            for name, (module, qualname) in table.items():
                owner, attr, fn = _resolve(module, qualname)
                wrapped = wrap(name, fn)
                if isinstance(owner, type):
                    setattr(owner, attr, wrapped)
                    continue
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, key, wrapped)

    def totals(self) -> tuple[Counter, dict]:
        """Calls and self time per span name."""
        calls: Counter = Counter()
        self_s: dict = {}
        child_s = [0.0] * len(self.spans)
        for name, parent, _req, start, end in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        for (name, _parent, _req, start, end), inner in zip(self.spans, child_s):
            calls[name] += 1
            self_s[name] = self_s.get(name, 0.0) + (end - start - inner)
        calls.update(self.counts)  # span calls and counters share one namespace
        return calls, self_s

    def metrics(self) -> dict[str, float]:
        calls, self_s = self.totals()
        out = {}
        for metric, (kind, name, *base) in LAYER_METRICS.items():
            if kind == "self_s":
                out[metric] = self_s.get(name, 0.0)
            elif kind == "ratio":
                out[metric] = calls[name] / calls[base[0]] if calls[base[0]] else 0.0
            else:
                out[metric] = calls[name]
        return out

    def check_coverage(self, workload: str) -> None:
        calls, _ = self.totals()
        missing = [name for name in REQUIRED_CALLS[workload] if not calls[name]]
        if missing:
            raise CoverageError(
                f"workload {workload}: no calls recorded for {', '.join(missing)}; "
                "a layer function was renamed or is bound where the tracer does not look"
            )

    def write(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = {
            "fields": ["name", "parent", "request", "start_s", "end_s"],
            "names": names,
            "spans": [[index[n], p, r, round(a, 7), round(b, 7)] for n, p, r, a, b in self.spans],
            "counts": dict(self.counts),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
