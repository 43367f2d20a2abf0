"""chercomb's benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a chercomb checkout; it imports the program from
`src/` and needs nothing installed.  Workloads are described in README.md.

The load is a closed loop with one client: one worker process at a time
(see worker.py), each a fresh interpreter that sets the workload up and
runs one pass of its requests, one after another.  Workers start until
`--seconds` is used up, and at least two start, so that every output is
compared across two processes whose PYTHONHASHSEED differs.

With `--trace 0` the last line of standard output is a JSON object with
the end-to-end metrics; with `--trace 1` workers alternate between plain
and traced, and the JSON object has the per-layer metrics of the traced
ones.  Spans of the traced workers are written to `.perfbench/`.  The exit
status is 0 when a result was printed, whether or not the outputs were
correct; a harness failure (no sources, a worker that crashed or hung, a
layer the trace missed) prints no result and exits non-zero.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from layers import LAYER_METRICS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
MIN_WORKERS = 2
TIME_LIMIT_S = 170.0  # every run must end within 180 s


class HarnessError(RuntimeError):
    pass


def run_worker(root: Path, tmp: Path, workload: str, seed: int, traced: bool, k: int, timeout: float) -> dict:
    result_path = tmp / f"result-{k}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(int(traced)), str(result_path)]
    if traced:
        cmd.append(str(root / ".perfbench" / f"spans-{workload}-{k}.json"))
    env = {key: value for key, value in os.environ.items() if key != "PYTHONHASHSEED"}
    start = perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"worker {k} did not finish within {timeout:.0f} s") from exc
    wall = perf_counter() - start
    if proc.returncode != 0:
        raise HarnessError(f"worker {k} exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result.update(setup_s=result["setup_end"] - start, wall_s=wall, traced=traced)
    return result


def run_workers(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    """Start workers one after another until `seconds` is used up; with
    tracing, every second worker is traced."""
    (root / ".perfbench").mkdir(exist_ok=True)
    began = perf_counter()
    workers = []
    with tempfile.TemporaryDirectory(prefix="run-", dir=root / ".perfbench") as tmp:
        while True:
            traced = trace and len(workers) % 2 == 1
            timeout = TIME_LIMIT_S - (perf_counter() - began)
            workers.append(run_worker(root, Path(tmp), workload, seed, traced, len(workers), timeout))
            longest = max(w["wall_s"] for w in workers)
            if len(workers) >= MIN_WORKERS and perf_counter() - began + longest > seconds:
                return workers


def failures(workers: list[dict]) -> list[str]:
    """One message per failed request: an error or an output that differs
    from the first worker's at the same position."""
    first = [r["digest"] for r in workers[0]["requests"]]
    out = []
    for k, worker in enumerate(workers):
        for i, req in enumerate(worker["requests"]):
            if req["error"]:
                out.append(f"worker {k} request {i}: {req['error']}")
            elif req["digest"] != first[i] and first[i]:
                out.append(f"worker {k} request {i}: output differs from worker 0 (nondeterministic)")
    return out


def pass_s(worker: dict) -> float:
    return sum(r["s"] for r in worker["requests"])


def end_to_end(workers: list[dict]) -> tuple[dict, list[str]]:
    plain = [w for w in workers if not w["traced"]]
    latencies_ms = [r["s"] * 1000 for w in plain for r in w["requests"]]
    n = len(latencies_ms)
    values = {
        "run_s": (statistics.median(pass_s(w) for w in plain), "s"),
        "setup_s": (statistics.median(w["setup_s"] for w in plain), "s"),
        "peak_rss_mb": (statistics.median(w["peak_rss_mb"] for w in plain), "MB"),
        "req_p50_ms": (statistics.median(latencies_ms), "ms"),
        "req_p90_ms": (statistics.quantiles(latencies_ms, n=10, method="inclusive")[8], "ms"),
    }
    notes = [
        f"workers: {len(plain)}, pass times (s): {' '.join(f'{pass_s(w):.3f}' for w in plain)}",
        f"requests timed: {n}, {n - math.ceil(0.9 * n)} beyond p90",
    ]
    return values, notes


def per_layer(workers: list[dict]) -> tuple[dict, list[str]]:
    traced = [w for w in workers if w["traced"]]
    plain = [w for w in workers if not w["traced"]]
    values = {}
    for name in LAYER_METRICS:
        unit = "s" if name.endswith("_s") else "ratio" if name.endswith("_ratio") else "count"
        values[name] = (statistics.median(w["layers"][name] for w in traced), unit)
    overhead = statistics.median(pass_s(w) for w in traced) / statistics.median(pass_s(w) for w in plain)
    values["trace.overhead_ratio"] = (overhead, "ratio")
    notes = [f"traced workers: {len(traced)}, plain workers: {len(plain)}"]
    return values, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "chercomb" / "__init__.py").is_file():
        print("perfbench: no src/chercomb here; run from the root of a chercomb checkout", file=sys.stderr)
        return 2
    try:
        workers = run_workers(root, args.workload, args.seed, args.seconds, bool(args.trace))
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    failed = failures(workers)
    values, notes = (per_layer if args.trace else end_to_end)(workers)
    for line in notes + failed[:20]:
        print(line)
    for name, (value, unit) in values.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    result = {
        "correct": not failed,
        "attempted": sum(len(w["requests"]) for w in workers),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
