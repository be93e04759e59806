#!/usr/bin/env python3
"""Time page generation alone: drain ``stream_corpus`` and report its rate.

Page generation is one sequential RNG stream in the parent process, so
no worker pool divides it; this isolates its share of a streamed run's
``extraction`` stage.  It builds the preset's seed-0 world, then drains
``stream_corpus(world, config.web, seed, 2048, 1024)``
without extracting anything, and prints the pages generated, the
seconds the drain took and the microseconds per page.  The chunk size
and copy window are the ``pipeline`` defaults (2,048 and 1,024).

    python tools/page_rate.py                    # the web preset
    python tools/page_rate.py --scale small
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.cli import _SCALES  # noqa: E402  (the CLI's --scale presets)
from repro.endtoend import timed_stage  # noqa: E402
from repro.world.webgen import stream_corpus  # noqa: E402
from repro.world.worldgen import generate_world  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--scale", choices=sorted(_SCALES), default="web")
    args = parser.parse_args(argv)
    config = _SCALES[args.scale](0)
    world = generate_world(config.world, config.seed)
    timings: dict[str, float] = {}
    pages = 0
    with timed_stage(timings, "drain"):
        for chunk in stream_corpus(world, config.web, config.seed, 2048, 1024):
            pages += len(chunk)
    seconds = timings["drain"]
    print(f"scale:    {args.scale} (seed 0)")
    print(f"pages:    {pages}")
    print(f"seconds:  {seconds:.2f}")
    print(f"us/page:  {seconds / pages * 1e6:.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
