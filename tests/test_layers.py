"""Every layer function the benchmark's tracer wraps must still exist under
the name it is listed by, and the engine must still call the layers a
workload requires through the bindings the tracer wraps, so a rename or a
bypass fails here and not only in a traced benchmark run."""

import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
LAYERS = ROOT / "perfbench" / "layers.py"


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


# Run in a child interpreter, so the tracer's wrappers never reach the
# modules this test session shares; -B keeps it from writing bytecode.
NESTED_MATRIX_TRACE = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import chercomb.cli
from layers import CLI, Tracer

tracer = Tracer()
tracer.install()
handle = tracer.open()
code = chercomb.cli.main(["decomp", sys.argv[3], "--matrix", "--engine", "nested", "--out", sys.argv[4]])
tracer.close(CLI, handle)
tracer.check_coverage("nested_matrix")
print(json.dumps({"code": code, "calls": tracer.metrics()["terrain.decorate_calls"]}))
"""


def test_nested_matrix_coverage(tmp_path, flotw2_file):
    argv = [str(ROOT / "perfbench"), str(ROOT / "src"), flotw2_file, str(tmp_path / "out.json")]
    proc = subprocess.run(
        [sys.executable, "-B", "-c", NESTED_MATRIX_TRACE, *argv],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["code"] == 0 and result["calls"] > 0
