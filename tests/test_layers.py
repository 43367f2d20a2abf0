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
TRACE = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import chercomb.cli
from layers import CLI, Tracer

tracer = Tracer()
tracer.install()
handle = tracer.open()
code = chercomb.cli.main(json.loads(sys.argv[4]))
tracer.close(CLI, handle)
tracer.check_coverage(sys.argv[3])
print(json.dumps({"code": code, "metrics": tracer.metrics()}))
"""

# FLOTW2 members filling slots (1,3) and (4,6): comparable, with a
# nontrivial dominance interval between them.
PAIR = ["[[8,6,3,1,1],[5,5,4,2,2,1,1]]", "[[7,5,3,1,1],[5,5,5,3,2,1,1]]"]

# workload -> the command line it runs, FLOTW2, CHI_A and CHI_B standing for
# context files; chi_search calls chi_equivalent directly, and `chi --compare`
# on criterion 8's pair reaches the same layers
WORKLOAD_ARGV = {
    "nested_matrix": ["decomp", "FLOTW2", "--matrix", "--engine", "nested"],
    "flotw_pair": ["decomp", "FLOTW2", "--pair", *PAIR, "--engine", "both"],
    "selfcheck": ["selfcheck", "--count", "5"],
    "chi_search": ["chi", "CHI_A", "--compare", "CHI_B"],
}


@pytest.mark.parametrize("workload", sorted(WORKLOAD_ARGV))
def test_cli_workload_coverage(workload, tmp_path, flotw2_file, chi_pair_files):
    """The command behind each workload, traced, calls every layer the
    workload requires."""
    files = {"FLOTW2": flotw2_file, "CHI_A": chi_pair_files[0], "CHI_B": chi_pair_files[1]}
    argv = [files.get(a, a) for a in WORKLOAD_ARGV[workload]]
    argv += ["--out", str(tmp_path / "out.json")]
    proc = subprocess.run(
        [sys.executable, "-B", "-c", TRACE, str(ROOT / "perfbench"), str(ROOT / "src"),
         workload, json.dumps(argv)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["code"] == 0
    assert result["metrics"]["gamma.build_calls"] > 0
