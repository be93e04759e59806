"""Child-process entry: one prepare, rep, traced rep or reference.

The harness starts ``python -m benchmarks.kfbench.rep '<json>'`` once per
sample so every measurement sees a fresh heap (in-process repeats of this
program drift upwards as the heap grows).  The request is one JSON object;
the answer is one JSON object on the last line of standard output.

``KFBENCH_PLANT=module:attribute:seconds`` wraps one of the program's
public functions with a sleep.  It exists for the self-test that proves a
planted slowdown is reported as ``worse``; nothing else sets it.
"""

from __future__ import annotations

import functools
import importlib
import json
import multiprocessing
import os
import platform
import sys
import time
from pathlib import Path

import numpy

from benchmarks.kfbench import workloads
from benchmarks.kfbench.spans import Tracer


def _plant(spec: str) -> None:
    module_name, attribute, seconds = spec.split(":")
    module = importlib.import_module(module_name)
    original = getattr(module, attribute)

    @functools.wraps(original)
    def slowed(*args, **kwargs):
        time.sleep(float(seconds))
        return original(*args, **kwargs)

    setattr(module, attribute, slowed)


def fingerprint() -> dict:
    """The part of the environment fingerprint only the child can see."""
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        # ParallelExecutor prefers fork where the platform has it.
        "start_method": "fork"
        if "fork" in multiprocessing.get_all_start_methods()
        else multiprocessing.get_start_method(),
    }


def run(request: dict) -> dict:
    ctx = workloads.Context(
        workload=request["workload"],
        seed=request["seed"],
        quick=request["quick"],
        cache_dir=Path(request["cache_dir"]),
        scratch=Path(request["scratch"]),
    )
    mode = request["mode"]
    expected = request.get("expected")
    if mode == "prepare":
        answer = workloads.prepare(ctx)
        answer["fingerprint"] = fingerprint()
    elif mode == "reference":
        answer = {"expected": workloads.reference(ctx)}
    elif mode == "rep":
        answer = workloads.rep(ctx)
    elif mode in ("traced-prepare", "traced"):
        tracer = Tracer(ctx.workload, rep=request["rep"])
        if mode == "traced-prepare":
            workloads.traced_prepare(ctx, tracer)
            answer = {}
        else:
            answer = {"observed": workloads.replica(ctx, tracer), "problems": []}
        answer["spans"] = tracer.to_rows()
        answer["counters"] = tracer.counters
    else:
        raise ValueError(f"unknown mode {mode!r}")
    if expected is not None and "observed" in answer:
        answer["problems"] += workloads.check_against(
            answer["observed"], expected, ctx.bitwise
        )
    answer["peak_rss_mib"] = workloads.peak_rss_mib()
    return answer


def main(argv: list[str]) -> int:
    request = json.loads(argv[0])
    if os.environ.get("KFBENCH_PLANT"):
        _plant(os.environ["KFBENCH_PLANT"])
    print(json.dumps(run(request)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
