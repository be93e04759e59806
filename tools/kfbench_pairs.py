#!/usr/bin/env python3
"""Order-alternated kfbench pairs: a parent tree against a change tree.

    python tools/kfbench_pairs.py --parent ../parent --change . \\
        --workload fuse-ladder --pairs 8 [--seed 0] [--seconds 12]

Byte-compiles ``src`` in both trees first (``python -m compileall -q``,
with the benchmark command's interpreter): with ``PYTHONDONTWRITEBYTECODE``
set, a tree whose ``__pycache__`` is older than its sources would
recompile those modules in every run and read a higher peak RSS.  Then
runs ``BENCHMARK.json``'s command (``benchmarks/kfbench/run.py --trace 0``)
in both trees, one workload, ``--pairs`` times each; odd pairs run the
parent first, even pairs the change, so drift in the machine's state
falls on both sides alike.  Prints every run's end-to-end metrics and
``correct``, then per metric each pair's change/parent ratio, how many
pairs the change wins (its value better in the metric's declared
direction), both medians and the parent's interquartile range.  Exits 1
if any run fails or reports ``"correct": false``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_once(tree: Path, command: list[str], workload: str, seed: int, seconds: float) -> dict:
    """One benchmark invocation in ``tree``: its last stdout line, parsed
    (``{"correct": False}`` if the run crashed or printed no result)."""
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"correct": False, "metrics": {}}
    if done.returncode != 0:
        result["correct"] = False
        print(done.stderr[-2000:], file=sys.stderr)
    return result


def compile_sources(tree: Path, interpreter: str) -> None:
    """Byte-compile ``tree/src`` so no run pays (or measures) a recompile."""
    subprocess.run([interpreter, "-m", "compileall", "-q", "src"], cwd=tree, check=True)


def quartile_gap(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    low, _, high = statistics.quantiles(values, n=4, method="inclusive")
    return high - low


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    trees = {"P": args.parent.resolve(), "C": args.change.resolve()}
    runs: dict[str, list[dict]] = {"P": [], "C": []}
    for tree in trees.values():
        compile_sources(tree, spec["command"][0])
    print(f"compiled src in both trees ({spec['command'][0]} -m compileall -q)", flush=True)
    for pair in range(1, args.pairs + 1):
        for side in ("P", "C") if pair % 2 else ("C", "P"):
            result = run_once(trees[side], spec["command"], args.workload, args.seed, args.seconds)
            runs[side].append(result)
            values = " ".join(
                f"{name}={metric['value']:.4g}" for name, metric in result["metrics"].items()
            )
            print(f"pair {pair} {side}: correct={result['correct']} {values}", flush=True)

    incorrect = sum(not r["correct"] for side in runs.values() for r in side)
    if incorrect:
        print(f"{incorrect} run(s) not correct", file=sys.stderr)
        return 1
    for name, direction in better.items():
        parent = [r["metrics"][name]["value"] for r in runs["P"]]
        change = [r["metrics"][name]["value"] for r in runs["C"]]
        ratios = [c / p if p else float("nan") for p, c in zip(parent, change)]
        wins = sum((c < p) if direction == "lower" else (c > p) for p, c in zip(parent, change))
        p_med, c_med = statistics.median(parent), statistics.median(change)
        print(
            f"{name}: median {p_med:.4g} -> {c_med:.4g} "
            f"({(c_med / p_med - 1) * 100 if p_med else float('nan'):+.1f} %), "
            f"change wins {wins}/{args.pairs}, parent IQR {quartile_gap(parent):.4g}, "
            f"ratios {' '.join(f'{r:.3f}' for r in ratios)}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
