"""Command-line interface: run any experiment against a preset scenario.

Usage::

    repro-kf list
    repro-kf run fig9 [--scale small] [--seed 0]
    repro-kf run all --scale tiny
    repro-kf fuse popaccu --backend vectorized [--scale small] [--seed 0]
    repro-kf extract --backend parallel [--scale small] [--seed 0]
    repro-kf pipeline popaccu+ --backend hybrid [--workers 4]
    python -m repro.cli run table2

The scenario is generated deterministically from the seed; the first
experiment of a session pays the generation cost, later ones share it.
``fuse`` runs a single fusion method end-to-end under a chosen execution
backend and prints a one-screen summary — the quickest way to compare
backends.  ``extract`` runs only the extraction stage (world + corpus
generation, then the 12 extractors), timing the stage and reporting
record/error counts plus a pooled executor's fallback counters; the
record stream is bit-identical across backends.  ``pipeline`` runs the
whole thing — extraction → gold labeling → fusion — on a *single shared
executor* (one worker pool for both stages; see
:func:`repro.endtoend.run_end_to_end`), printing per-stage timings and the
headline metrics; the reported ``parity`` line says which numeric
contract applied.  It is one function call at every scale: a streaming
scale (``web``) passes ``chunk_pages`` so the corpus is never
materialised, and the report prints whatever the one result type
carries.  Each ``--backend`` takes its stage's spellings of the
execution modes in the README's "Execution backends" table.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.datasets import (
    STREAMING_SCALES,
    build_extraction_pipeline,
    build_scenario,
    medium_config,
    small_config,
    tiny_config,
    web_config,
)
from repro.endtoend import PIPELINE_BACKENDS, PIPELINE_METHODS
from repro.experiments import experiment_ids, run_experiment
from repro.extract.pipeline import EXTRACTION_BACKENDS
from repro.fusion.base import BACKENDS

_SCALES = {
    "tiny": tiny_config,
    "small": small_config,
    "medium": medium_config,
    "web": web_config,
}

#: Scales whose corpus fits in memory; every subcommand accepts these.
#: The streaming scales (``web``) are pipeline-only — the other commands
#: materialise the corpus/record list, which the out-of-core tier forbids.
_MATERIALISED_SCALES = sorted(set(_SCALES) - STREAMING_SCALES)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-kf",
        description="Knowledge-fusion reproduction (Dong et al., VLDB 2014)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiment ids")
    run_parser = sub.add_parser("run", help="run one experiment (or 'all')")
    run_parser.add_argument("experiment", help="experiment id, e.g. fig9, or 'all'")
    run_parser.add_argument(
        "--scale",
        choices=_MATERIALISED_SCALES,
        default="small",
        help="scenario preset (default: small)",
    )
    run_parser.add_argument("--seed", type=int, default=0, help="master seed")

    fuse_parser = sub.add_parser(
        "fuse", help="run one fusion method under a chosen execution backend"
    )
    fuse_parser.add_argument(
        "method", choices=PIPELINE_METHODS, help="fusion method preset"
    )
    fuse_parser.add_argument(
        "--backend",
        choices=BACKENDS,
        default="serial",
        help="execution backend (default: serial)",
    )
    fuse_parser.add_argument(
        "--scale",
        choices=_MATERIALISED_SCALES,
        default="small",
        help="scenario preset (default: small)",
    )
    fuse_parser.add_argument("--seed", type=int, default=0, help="master seed")
    fuse_parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes for the parallel backend (default: CPU count)",
    )

    extract_parser = sub.add_parser(
        "extract", help="run the extraction stage under a chosen backend"
    )
    extract_parser.add_argument(
        "--backend",
        choices=EXTRACTION_BACKENDS,
        default="serial",
        help="extraction backend (default: serial)",
    )
    extract_parser.add_argument(
        "--scale",
        choices=_MATERIALISED_SCALES,
        default="small",
        help="scenario preset (default: small)",
    )
    extract_parser.add_argument("--seed", type=int, default=0, help="master seed")
    extract_parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes for the parallel backend (default: CPU count)",
    )

    pipeline_parser = sub.add_parser(
        "pipeline",
        help="run extraction → fusion end-to-end on one shared executor",
    )
    pipeline_parser.add_argument(
        "method",
        nargs="?",
        default="popaccu+",
        choices=PIPELINE_METHODS,
        help="fusion method preset (default: popaccu+)",
    )
    pipeline_parser.add_argument(
        "--backend",
        choices=PIPELINE_BACKENDS,
        default="serial",
        help="execution backend for both stages (default: serial); "
        "hybrid = parallel extraction + batched in-shard fusion kernels",
    )
    pipeline_parser.add_argument(
        "--scale",
        choices=sorted(_SCALES),
        default="small",
        help="scenario preset (default: small); 'web' streams the corpus "
        "out of core (see docs/SCALING.md)",
    )
    pipeline_parser.add_argument("--seed", type=int, default=0, help="master seed")
    pipeline_parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes for the parallel backend (default: CPU count)",
    )
    pipeline_parser.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        help="scenario artifact cache directory: warm runs load worldgen "
        "bit-identically in milliseconds; at --scale web it also holds the "
        "memory-mapped claim columns (default: no on-disk cache)",
    )
    pipeline_parser.add_argument(
        "--chunk-pages",
        type=int,
        default=2048,
        help="streaming scales only: pages generated and extracted per "
        "chunk (default: 2048); the chunk size never changes the output",
    )

    cache_parser = sub.add_parser(
        "cache", help="manage the on-disk artifact cache"
    )
    cache_sub = cache_parser.add_subparsers(dest="cache_command", required=True)
    prune_parser = cache_sub.add_parser(
        "prune",
        help="list (default) or delete stale cache entries: interrupted "
        ".tmp- publishes, unreadable metadata, and artifacts from old "
        "code versions",
    )
    prune_parser.add_argument(
        "--cache-dir",
        type=Path,
        required=True,
        help="artifact cache directory to prune",
    )
    prune_parser.add_argument(
        "--apply",
        action="store_true",
        help="actually delete the stale entries (default: dry run)",
    )

    lint_parser = sub.add_parser(
        "lint",
        help="statically check the determinism/payload/parity contracts",
    )
    lint_parser.add_argument(
        "--format",
        choices=("human", "json"),
        default="human",
        help="report format (default: human)",
    )
    lint_parser.add_argument(
        "--root",
        type=Path,
        default=None,
        help="repository root to lint (default: auto-detected)",
    )
    lint_parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="baseline file of accepted findings "
        "(default: tools/contracts_lint_baseline.json under the root)",
    )
    return parser


def _run_fuse(args) -> int:
    from repro.endtoend import make_fuser, timed_stage
    from repro.errors import ConfigError
    from repro.fusion import FusionConfig

    try:
        config = FusionConfig(
            seed=args.seed, backend=args.backend, n_workers=args.workers
        )
    except ConfigError as err:
        print(f"repro-kf fuse: error: {err}", file=sys.stderr)
        return 2
    scenario = build_scenario(_SCALES[args.scale](seed=args.seed))
    fuser = make_fuser(args.method, config, scenario.gold)

    timings: dict[str, float] = {}
    with timed_stage(timings, "fusion"):
        result = fuser.fuse(scenario.fusion_input())

    print(f"method:        {result.method}")
    print(f"backend:       {result.diagnostics.get('backend', args.backend)}")
    print(f"backend used:  {result.diagnostics.get('backend_used', 'serial')}")
    print(f"parity:        {result.diagnostics.get('parity', 'bitwise')}")
    print(f"sampling:      {result.diagnostics.get('sampling', 'unbounded')}")
    if "round_state" in result.diagnostics:
        print(f"round state:   {result.diagnostics['round_state']}")
    if "fallbacks_tiny" in result.diagnostics:
        print(
            f"fallbacks:     {result.diagnostics['fallbacks_tiny']} tiny, "
            f"{result.diagnostics['fallbacks_unpicklable']} unpicklable, "
            f"{result.diagnostics.get('fallbacks_shm', 0)} shm"
        )
    print(f"fusion time:   {timings['fusion']:.3f}s")
    print(f"rounds:        {result.rounds} (converged: {result.converged})")
    print(f"triples:       {len(result.probabilities)}")
    print(f"unpredicted:   {len(result.unpredicted)}")
    print(f"coverage:      {result.coverage():.4f}")
    if result.probabilities:
        mean = sum(result.probabilities.values()) / len(result.probabilities)
        print(f"mean p(true):  {mean:.4f}")
    return 0


def _run_extract(args) -> int:
    from collections import Counter

    from repro.endtoend import timed_stage
    from repro.errors import ConfigError
    from repro.mapreduce.executors import EXECUTION_MODES
    from repro.world.webgen import generate_corpus
    from repro.world.worldgen import generate_world

    plan = EXECUTION_MODES[args.backend]
    try:
        executor = plan.executor(args.workers)
    except ConfigError as err:
        print(f"repro-kf extract: error: {err}", file=sys.stderr)
        return 2
    timings: dict[str, float] = {}
    try:
        config = _SCALES[args.scale](seed=args.seed)
        with timed_stage(timings, "setup"):
            world = generate_world(config.world, config.seed)
            corpus = generate_corpus(world, config.web, config.seed)
            pipeline = build_extraction_pipeline(config, world)
        # Clocked before the pool is torn down, like ``pipeline``'s
        # ``extraction`` stage for the same work.
        with timed_stage(timings, "extraction"):
            records = pipeline.run(corpus, backend=args.backend, executor=executor)
    finally:
        executor.close()
    elapsed = timings["extraction"]
    pool = executor.diagnostics()

    per_extractor = Counter(record.extractor for record in records)
    errors = sum(1 for record in records if record.is_extraction_error)
    top = ", ".join(f"{name}:{n}" for name, n in per_extractor.most_common(4))
    print(f"backend:       {args.backend}")
    print("synthesis:     batched")
    print(f"pages:         {len(corpus.pages)} ({len(corpus.sites)} sites)")
    print(f"setup time:    {timings['setup']:.3f}s (world + corpus + extractors)")
    print(
        f"extract time:  {elapsed:.3f}s"
        + (f" ({len(records) / elapsed:.0f} records/s)" if elapsed > 0 else "")
    )
    print(f"records:       {len(records)} (top extractors: {top})")
    if records:
        print(f"error records: {errors} ({errors / len(records):.1%})")
    if plan.pooled:
        print(f"workers:       {pool['n_workers']}")
        print(
            f"fallbacks:     {pool['fallbacks_tiny']} tiny, "
            f"{pool['fallbacks_unpicklable']} unpicklable, "
            f"{pool['fallbacks_shm']} shm"
        )
    return 0


def _print_pipeline_report(result) -> None:
    """The one-screen ``pipeline`` report.  It prints what the result has:
    a streamed run reports its column store, chunk count and ``matrix``
    stage where a materialised one reports the scenario cache."""
    timings, metrics, diagnostics = result.timings, result.metrics, result.diagnostics
    streaming = " (streaming)" if result.scenario is None else ""
    print(f"method:        {result.fusion.method}")
    print(f"backend:       {result.backend}{streaming}")
    print(f"backend used:  {diagnostics.get('backend_used', 'serial')}")
    print(f"parity:        {diagnostics.get('parity', 'bitwise')}")
    print(f"sampling:      {diagnostics.get('sampling', 'unbounded')}")
    if "round_state" in diagnostics:
        print(f"round state:   {diagnostics['round_state']}")
    if "column_store" in diagnostics:
        print(f"column store:  {diagnostics['column_store']}")
    if "scenario_cache" in diagnostics:
        print(f"setup cache:   {diagnostics['scenario_cache']}")
    if "n_workers" in diagnostics:
        print(f"workers:       {diagnostics['n_workers']}")
    if "fallbacks_tiny" in diagnostics:
        print(
            f"fallbacks:     {diagnostics['fallbacks_tiny']} tiny, "
            f"{diagnostics['fallbacks_unpicklable']} unpicklable, "
            f"{diagnostics.get('fallbacks_shm', 0)} shm"
        )
    print(
        f"pages:         {result.n_pages} -> records: {result.n_records}"
        + (
            f" ({diagnostics['n_chunks']} chunks of {diagnostics['chunk_pages']})"
            if "chunk_pages" in diagnostics
            else ""
        )
    )
    for stage, elapsed in timings.items():
        print(f"{stage + ':':<15}{elapsed:.3f}s")
    print(f"peak rss:      {diagnostics['peak_rss_mb']:.1f} MiB")
    print(f"rounds:        {result.fusion.rounds} (converged: {result.fusion.converged})")
    print(f"triples:       {len(result.fusion.probabilities)}")
    print(f"coverage:      {metrics['coverage']:.4f}")
    print(f"deviation:     {metrics['deviation']:.4f} (weighted: {metrics['weighted_deviation']:.4f})")
    print(f"auc-pr:        {metrics['auc_pr']:.4f}")
    print(f"gold accuracy: {metrics['gold_accuracy']:.4f} (n={metrics['n_labelled']})")


def _run_pipeline(args) -> int:
    from repro.endtoend import run_end_to_end
    from repro.errors import ConfigError

    try:
        result = run_end_to_end(
            config=_SCALES[args.scale](seed=args.seed),
            method=args.method,
            backend=args.backend,
            n_workers=args.workers,
            cache_dir=args.cache_dir,
            # The streaming scales' corpus must never be materialised.
            chunk_pages=args.chunk_pages if args.scale in STREAMING_SCALES else None,
        )
    except ConfigError as err:
        print(f"repro-kf pipeline: error: {err}", file=sys.stderr)
        return 2
    _print_pipeline_report(result)
    return 0


def _run_cache(args) -> int:
    from repro.artifacts import prune_cache

    stale = prune_cache(args.cache_dir, apply=args.apply)
    if not stale:
        print(f"cache {args.cache_dir}: nothing stale")
        return 0
    verb = "pruned" if args.apply else "would prune"
    for path in stale:
        print(f"{verb}: {path}")
    if not args.apply:
        print(f"{len(stale)} stale entr{'y' if len(stale) == 1 else 'ies'} "
              "(dry run; pass --apply to delete)")
    return 0


def _run_lint(args) -> int:
    from repro.analysis import find_repo_root, render_human, render_json, run_lint

    root = args.root if args.root is not None else find_repo_root()
    result = run_lint(root, baseline_path=args.baseline)
    if args.format == "json":
        print(render_json(result))
    else:
        print(render_human(result))
    return 0 if result.ok else 1


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        for experiment_id in experiment_ids():
            print(experiment_id)
        return 0
    if args.command == "fuse":
        return _run_fuse(args)
    if args.command == "extract":
        return _run_extract(args)
    if args.command == "pipeline":
        return _run_pipeline(args)
    if args.command == "cache":
        return _run_cache(args)
    if args.command == "lint":
        return _run_lint(args)
    scenario = build_scenario(_SCALES[args.scale](seed=args.seed))
    ids = experiment_ids() if args.experiment == "all" else [args.experiment]
    for experiment_id in ids:
        result = run_experiment(experiment_id, scenario)
        print(result.text)
        print()
    return 0


def _entry() -> int:  # pragma: no cover - thin wrapper
    try:
        return main()
    except BrokenPipeError:
        # `repro-kf list | head` closes the pipe early; exit quietly.
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(_entry())
