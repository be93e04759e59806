#!/usr/bin/env python3
"""The command ``BENCHMARK.json`` names: one workload, one JSON line.

    python3 benchmarks/kfbench/run.py --workload mem-batched --seed 0 \
        --seconds 12 --trace 0

With ``--trace 0`` the last line of standard output carries every
end-to-end metric (medians over fresh-process samples); with ``--trace 1``
every per-layer metric of one traced replica rep, whose spans are written
to ``benchmarks/kfbench/out/trace-<workload>.jsonl``.  Self-bootstrapping:
no ``PYTHONPATH`` needed.  ``python -m benchmarks.kfbench`` is the
developer face (all workloads, bless, compare).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"kfbench: no program to measure under {ROOT / 'src'}")

from benchmarks.kfbench import harness  # noqa: E402


def driver_line(run: dict, spec: dict, traced: bool) -> dict:
    """The result object the driver reads: exactly the declared metrics."""
    if traced:
        declared, values = spec["per_layer"], run["per_layer"]
    else:
        declared = spec["end_to_end"]
        values = {name: stat["median"] for name, stat in harness.end_to_end(run).items()}
    return {
        "correct": not run["failures"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    harness.exit_on_sigterm()
    try:
        if args.trace:
            run = harness.trace(args.workload, args.seed)
            harness.write_trace(run, harness.OUT)
        else:
            run = harness.measure(args.workload, args.seed, args.seconds)
    except harness.RepFailed as failure:
        print(f"kfbench: {failure}", file=sys.stderr)
        return 1
    for failure in run["failures"]:
        print(f"kfbench: FAILED {failure}", file=sys.stderr)
    print(json.dumps(driver_line(run, harness.load_spec(), bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
