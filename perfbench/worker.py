"""One benchmark worker: set up one workload, run one pass of its requests,
check the outputs and write a JSON result file.

    python3 perfbench/worker.py WORKLOAD SEED TRACE RESULT_JSON [SPANS_JSON]

`run.py` starts one worker per pass and reads RESULT_JSON; the worker
reports `setup_end`, the `time.perf_counter()` reading (system-wide
CLOCK_MONOTONIC on Linux) at which set-up finished, so the runner can
measure set-up from the moment it started the process.
"""

from __future__ import annotations

import json
import resource
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import chercomb  # noqa: E402  (the program under test, from the checkout)
import chercomb.cli  # noqa: E402,F401

from layers import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main(argv: list[str]) -> int:
    name, seed, trace, result_path = argv[0], int(argv[1]), argv[2] == "1", Path(argv[3])
    spans_path = Path(argv[4]) if len(argv) > 4 else None
    with tempfile.TemporaryDirectory(dir=result_path.parent) as tmp:
        workload = WORKLOADS[name](seed, Path(tmp))
        setup_end = perf_counter()
        tracer = None
        if trace:
            tracer = Tracer()
            tracer.install()
        outputs = []
        for index, request in enumerate(workload.requests()):
            handle = None
            if tracer:
                tracer.request = index
                if workload.root_span:
                    handle = tracer.open()
            output, error = None, None
            start = perf_counter()
            try:
                output = request()
            except Exception:  # a failed request is counted, not fatal
                error = traceback.format_exc(limit=3)
            elapsed = perf_counter() - start
            if handle:
                tracer.close(workload.root_span, handle)
            outputs.append((output, elapsed, error))

        records = []
        for index, (output, elapsed, error) in enumerate(outputs):
            digest = ""
            if error is None:
                digest, error = workload.check(index, output)
            records.append({"s": elapsed, "digest": digest, "error": error})

    result = {
        "setup_end": setup_end,
        "requests": records,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        tracer.check_coverage(name)
        result["layers"] = tracer.metrics()
        if spans_path:
            tracer.write(spans_path)
    result_path.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
