"""``python -m benchmarks.kfbench`` — run everything, bless, compare.

    PYTHONPATH=src python -m benchmarks.kfbench run [--seed 0] [--out DIR]
    PYTHONPATH=src python -m benchmarks.kfbench run --quick
    PYTHONPATH=src python -m benchmarks.kfbench bless [--seeds 0 1]
    python -m benchmarks.kfbench compare A.json B.json

``run`` prints every metric by name with its unit, checks outputs, and
writes ``kfbench-seed<seed>.json`` plus one ``trace-<workload>.jsonl`` per
workload.  ``compare`` exits 1 on any ``worse`` row.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from benchmarks.kfbench import compare, harness


def _print_run(document: dict) -> None:
    for workload, result in document["workloads"].items():
        print(f"\n== {workload} ==")
        for name, stat in result["end_to_end"].items():
            print(
                f"  {name:<16} {stat['median']:>12.4f} {stat['unit']:<4} "
                f"[q1 {stat['q1']:.4f}, q3 {stat['q3']:.4f}, n={stat['n']}]"
            )
        for name, value in result["quality"].items():
            print(f"  {name:<16} {value:>12.6f}")
        print(
            f"  {'failed_share':<16} {result['failed_share']:>12.4f}      "
            f"[{result['failed']} of {result['attempted']}]"
        )
        for failure in result["failures"]:
            print(f"  FAILED {failure}")
        for name, metric in result["per_layer"].items():
            print(f"    {name:<48} {metric['value']:>14.6g} {metric['unit']}")
    for note in document["notes"]:
        print(f"\nNOTE {note}")


def _run(args) -> int:
    spec = harness.load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    out_dir = Path(args.out)
    document = harness.suite(args.seed, seconds, quick=args.quick, out_dir=out_dir)
    _print_run(document)
    path = out_dir / f"kfbench-seed{args.seed}{'-quick' if args.quick else ''}.json"
    path.write_text(json.dumps(document, indent=1) + "\n")
    summary = {
        "result": str(path),
        "comparable": document["comparable"],
        "failed": sum(w["failed"] for w in document["workloads"].values()),
        "claim": None,
    }
    print("\n" + json.dumps(summary))
    return 1 if summary["failed"] else 0


def _bless(args) -> int:
    blessed = harness.bless(args.seeds)
    harness.EXPECTED_PATH.write_text(json.dumps(blessed, indent=1) + "\n")
    print(f"blessed seeds {args.seeds} into {harness.EXPECTED_PATH}")
    return 0


def _compare(args) -> int:
    a, b = (json.loads(Path(path).read_text()) for path in (args.a, args.b))
    if not (a["comparable"] and b["comparable"]):
        print("kfbench: --quick results are smoke tests, not comparable", file=sys.stderr)
        return 2
    rows = compare.compare_results(a, b, harness.load_spec())
    print(compare.render(rows))
    return 1 if compare.regressed(rows) else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.kfbench")
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="all four workloads, untraced then traced")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--out", default=str(harness.OUT), help="result directory")
    run.add_argument("--seconds", type=float, help="rep budget per workload")
    run.add_argument("--quick", action="store_true", help="tiny twins, 1 rep, smoke only")
    run.set_defaults(handler=_run)

    bless = commands.add_parser("bless", help="rewrite expected.json from the serial path")
    bless.add_argument("--seeds", type=int, nargs="+", default=[0, 1])
    bless.set_defaults(handler=_bless)

    cmp_ = commands.add_parser("compare", help="row-by-row verdicts for B against A")
    cmp_.add_argument("a")
    cmp_.add_argument("b")
    cmp_.set_defaults(handler=_compare)

    args = parser.parse_args(argv)
    harness.exit_on_sigterm()
    try:
        return args.handler(args)
    except harness.RepFailed as failure:
        print(f"kfbench: {failure}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
