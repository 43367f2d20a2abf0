"""Every layer function the benchmark's tracer wraps must still exist under
the name it is listed by, so a rename fails here and not only in a traced
benchmark run."""

import types
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _load_layers():
    """perfbench/layers.py as a module, read without writing bytecode."""
    module = types.ModuleType("perfbench_layers")
    module.__file__ = str(LAYERS)
    exec(compile(LAYERS.read_text(encoding="utf-8"), str(LAYERS), "exec"), module.__dict__)
    return module


layers = _load_layers()
TARGETS = {**layers.SPANS, **layers.COUNTS}


@pytest.mark.parametrize("name", sorted(TARGETS))
def test_layer_binding_resolves(name):
    module, qualname = TARGETS[name]
    _owner, _attr, fn = layers._resolve(module, qualname)
    assert callable(fn)
