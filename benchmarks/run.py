#!/usr/bin/env python
"""The result-reproduction runner: one entrypoint for every registered case.

Usage::

    python benchmarks/run.py --list
    python benchmarks/run.py --case fig9 --scale tiny
    python benchmarks/run.py --case extensions
    python benchmarks/run.py --all --scale small

Each selected case runs against one shared :class:`BenchContext` — the
scenario is built once per scale — regenerates its text report
(``benchmarks/results/<id>.txt``, or ``ext_*.txt`` for ``extensions``)
and asserts the sanity checks that report must satisfy.  The committed
reports are the ``small`` seed-0 output: ``--all --scale small`` must
leave ``git diff --exit-code benchmarks/results`` clean.  Timing lives
in ``benchmarks/kfbench``, not here.

A case that fails — assertion or any other exception — is recorded and
reported, and the remaining selected cases still run; the exit code is
non-zero if anything failed.

The script is self-bootstrapping: it runs from a plain checkout (no
``PYTHONPATH`` needed) and from an installed package alike.
"""

from __future__ import annotations

import argparse
import sys
import traceback
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parent.parent
for _path in (str(_REPO_ROOT), str(_REPO_ROOT / "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from benchmarks.registry import (  # noqa: E402
    REGISTRY,
    RESULTS_DIR,
    SCALES,
    BenchContext,
)


def _list_cases() -> None:
    width = max(len(name) for name in REGISTRY)
    for name in sorted(REGISTRY, key=lambda n: (REGISTRY[n].kind, n)):
        case = REGISTRY[name]
        print(f"{name:<{width}}  [{case.kind}]  {case.description}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="regenerate registered result reports -> results/<id>.txt"
    )
    parser.add_argument(
        "--case",
        action="append",
        default=None,
        choices=sorted(REGISTRY),
        metavar="NAME",
        help="case to run (repeatable; see --list)",
    )
    parser.add_argument(
        "--all", action="store_true", help="run every registered case"
    )
    parser.add_argument(
        "--list", action="store_true", help="list registered cases and exit"
    )
    parser.add_argument(
        "--scale", choices=sorted(SCALES), default="small",
        help="scenario preset (default: small)",
    )
    parser.add_argument("--seed", type=int, default=0, help="master seed")
    parser.add_argument(
        "--out-dir", type=Path, default=RESULTS_DIR,
        help="where the text reports land",
    )
    parser.add_argument(
        "--cache-dir", type=Path, default=None,
        help="scenario artifact cache directory (repro.artifacts): warm "
        "runs skip worldgen, bit-identically (default: no on-disk cache)",
    )
    args = parser.parse_args(argv)

    if args.list:
        _list_cases()
        return 0
    if args.case and args.all:
        parser.error(
            "--case and --all are mutually exclusive: --all already runs "
            "every registered case"
        )
    names = args.case or (sorted(REGISTRY) if args.all else None)
    if not names:
        parser.error("select cases with --case NAME (repeatable) or --all")

    args.out_dir.mkdir(parents=True, exist_ok=True)
    ctx = BenchContext(
        scale=args.scale,
        seed=args.seed,
        results_dir=args.out_dir,
        cache_dir=args.cache_dir,
    )
    failures: list[str] = []
    for name in names:
        try:
            REGISTRY[name].run(ctx)
        except AssertionError as error:
            failures.append(name)
            # A bare ``assert`` has an empty message: name the failing check.
            where = traceback.extract_tb(error.__traceback__)[-1]
            reason = f"{error} " if str(error) else ""
            print(
                f"{name}: FAILED — {reason}at {where.filename}:{where.lineno}: {where.line}",
                file=sys.stderr,
            )
        except Exception as error:
            # Any other exception (registry KeyError, missing file, ...)
            # must not abort the whole run: record it, keep going, exit
            # non-zero at the end.
            failures.append(name)
            print(
                f"{name}: ERROR — {type(error).__name__}: {error}",
                file=sys.stderr,
            )
            traceback.print_exc(file=sys.stderr)
        else:
            print(f"{name}: OK -> {args.out_dir}")

    if failures:
        print(f"{len(failures)} case(s) failed: {', '.join(failures)}",
              file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
