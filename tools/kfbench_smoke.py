#!/usr/bin/env python3
"""Smoke the benchmark driver's exact command on every workload.

Runs what ``BENCHMARK.json`` declares -- its ``command`` for each of its
``workloads``, at ``--seed 0 --seconds 1``, once with ``--trace 0`` and
once with ``--trace 1`` -- and fails unless every invocation exits 0 with
``"correct": true`` and ``"failed": 0`` on its last line.  The kfbench
self-test only runs the quick (``tiny``) twins in process, so a change can
pass it and still break the command the driver runs at ``small``; CI's
tier-1 job runs this next to it.

    python tools/kfbench_smoke.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    broken = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in ("0", "1"):
            sizes = ["--seed", "0", "--seconds", "1", "--trace", trace]
            command = [*spec["command"], "--workload", workload, *sizes]
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
            lines = done.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
                ok = (
                    done.returncode == 0
                    and result["correct"] is True
                    and result["failed"] == 0
                )
            except (IndexError, ValueError, KeyError):
                ok = False
            print(f"{'ok  ' if ok else 'FAIL'} {' '.join(command)}")
            if not ok:
                broken += 1
                print(f"  exit {done.returncode}; last line: {lines[-1:]}")
                print(done.stderr[-2000:], file=sys.stderr)
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
