#!/usr/bin/env python3
"""Order-alternated ``repro-kf pipeline`` pairs: a parent tree against a change tree.

    python tools/pipeline_pairs.py --parent ../parent --change . --pairs 3 \\
        -- --scale web --backend hybrid --workers 2 --cache-dir D

Byte-compiles ``src`` in both trees first (as ``tools/kfbench_pairs.py``
does), then runs ``python -m repro.cli pipeline <args>`` with
``PYTHONPATH=<tree>/src``, ``--pairs`` times a side; odd pairs run the
parent first, even pairs the change, so drift in the machine's state
falls on both sides alike.  Prints every run's stage lines
(``extraction:``, ``total:``, ...) and its ``peak rss:`` line, then each
pair's change − parent per stage and both sides' medians.  Exits 1 if a
run fails, or if any other line of the report differs between runs: the
method, backend, column store, counts and every metric must be the same
bits on both sides.
"""

from __future__ import annotations

import argparse
import difflib
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

#: A stage line of the report: ``<stage>:`` then seconds (``extraction:   51.2s``).
STAGE = re.compile(r"^(\w+):\s+([0-9.]+)s$")
#: The report's measurement line: ``peak rss:      283.6 MiB``.
PEAK = re.compile(r"^peak rss:\s+([0-9.]+) MiB$")


def run_once(tree: Path, args: list[str]) -> tuple[dict[str, float], list[str]] | None:
    """One report from ``tree``: its measured values (stages in seconds,
    ``peak rss`` in MiB) and its other lines, or None if the run failed."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    done = subprocess.run(
        [sys.executable, "-m", "repro.cli", "pipeline", *args],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    if done.returncode != 0:
        print(done.stderr[-2000:], file=sys.stderr)
        return None
    measured: dict[str, float] = {}
    fixed: list[str] = []
    for line in done.stdout.splitlines():
        if match := STAGE.match(line):
            measured[match[1]] = float(match[2])
        elif match := PEAK.match(line):
            measured["peak rss"] = float(match[1])
        else:
            fixed.append(line)
    return measured, fixed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("pipeline_args", nargs=argparse.REMAINDER,
                        help="arguments for `repro-kf pipeline`, after `--`")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    pipeline_args = args.pipeline_args
    if pipeline_args[:1] == ["--"]:
        pipeline_args = pipeline_args[1:]

    trees = {"P": args.parent.resolve(), "C": args.change.resolve()}
    for tree in trees.values():
        subprocess.run([sys.executable, "-m", "compileall", "-q", "src"], cwd=tree, check=True)
    print(f"compiled src in both trees; pipeline {' '.join(pipeline_args)}", flush=True)

    measured: dict[str, list[dict[str, float]]] = {"P": [], "C": []}
    reports: list[tuple[str, list[str]]] = []
    for pair in range(1, args.pairs + 1):
        for side in ("P", "C") if pair % 2 else ("C", "P"):
            run = run_once(trees[side], pipeline_args)
            if run is None:
                print(f"pair {pair} {side}: the run failed", file=sys.stderr)
                return 1
            values, fixed = run
            measured[side].append(values)
            reports.append((f"pair {pair} {side}", fixed))
            print(f"pair {pair} {side}: "
                  + " ".join(f"{name}={value:g}" for name, value in values.items()), flush=True)

    names = list(measured["P"][0])
    for pair, (parent, change) in enumerate(zip(measured["P"], measured["C"]), start=1):
        print(f"pair {pair} C-P: "
              + " ".join(f"{name}={change[name] - parent[name]:+.3f}" for name in names))
    for name in names:
        parent = statistics.median(run[name] for run in measured["P"])
        change = statistics.median(run[name] for run in measured["C"])
        print(f"{name}: median {parent:.3f} -> {change:.3f} ({change - parent:+.3f})")

    label, first = reports[0]
    differing = [(other, fixed) for other, fixed in reports[1:] if fixed != first]
    for other, fixed in differing:
        print(f"{other} differs from {label}:", file=sys.stderr)
        for line in difflib.unified_diff(first, fixed, label, other, lineterm="", n=0):
            print(f"    {line}", file=sys.stderr)
    if differing:
        return 1
    print(f"every non-timing line identical across {len(reports)} runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
