"""The parent side of kfbench: protocol, rep hygiene, aggregation.

Closed loop, one client: the harness is a single process that starts one
child at a time (:mod:`.rep`) and never overlaps two; the only concurrency
is the program's own 2-worker pool inside ``pool-hybrid``.  It imports
nothing but the standard library, so the children's ``ru_maxrss`` is not
inflated by a fat parent image and a checkout without the program fails
before any measurement.

Two kinds of run, matching the driver's ``--trace`` flag:

- :func:`measure` (trace off) — slices of one cold ``prepare`` child
  (``setup_s``) and then untraced ``rep`` children for a share of the time
  budget, checked against the expected outputs (``expected.json`` for
  blessed seeds, else a serial ``reference`` child before the first rep).
  End-to-end numbers only ever come from here.
- :func:`trace` (trace on) — one traced cold prepare, one untraced rep
  (the yardstick for ``trace.replica_gap_share``) and one traced replica;
  :mod:`.layers` turns the spans into the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from benchmarks.kfbench import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
SPEC_PATH = ROOT / "BENCHMARK.json"
EXPECTED_PATH = HERE / "expected.json"

#: A workload's samples are taken in this many slices, each one cold prepare
#: (``setup_s`` is their median) and then its share of the rep budget, but
#: at least one rep.  This machine's speed wanders by the minute: with the
#: slices spread over the run, a slow stretch shorter than the run costs
#: both sample sets a minority of their samples, and the medians hold.
#: ``run`` also interleaves the workloads' slices.
PASSES = 3
CHILD_TIMEOUT_S = 60
#: The driver allows a run 180 s: start no child later than this, so that
#: even one that then times out ends the run in time.
RUN_LIMIT_S = 110

SAMPLE_UNITS = {"setup_s": "s", "wall_s": "s", "us_per_record": "us", "peak_rss_mib": "MiB"}
MIN_COVERAGE_SHARE = 0.95


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


def workload_names() -> list[str]:
    return [workload["name"] for workload in load_spec()["workloads"]]


def quartiles(values: list[float]) -> dict:
    """Median, quartiles and n — n is below 11, so no tail is claimed."""
    if len(values) >= 2:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def exit_on_sigterm() -> None:
    """Turn SIGTERM into SystemExit, so the ``finally`` blocks that kill
    and reap the running child (and remove the temp root) still run."""

    def terminate(_signum, _frame):
        raise SystemExit(143)

    signal.signal(signal.SIGTERM, terminate)


class RepFailed(Exception):
    """A child raised, timed out, leaked, or failed an output check."""


def _shm_census() -> set[str]:
    """Python shared-memory segments (``psm_*``) currently in ``/dev/shm``."""
    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}
    except OSError:
        return set()


def _leaked_segments(before: set[str]) -> list[str]:
    """Segments that appeared since ``before`` and that no live process maps.

    The child and its whole process group are dead when this runs, so a
    segment of theirs is mapped by nobody; one that another program on the
    machine (a second kfbench run, the self-test) is using is not a leak.
    """
    new = _shm_census() - before
    if not new:
        return []
    in_use: set[str] = set()
    for maps in Path("/proc").glob("[0-9]*/maps"):
        try:
            text = maps.read_text()
        except OSError:  # the process ended, or is not ours to read
            continue
        in_use.update(name for name in new if f"/dev/shm/{name}" in text)
    return sorted(new - in_use)


class Harness:
    """One run of one workload: owns the temp root and the failure tally."""

    def __init__(self, workload: str, seed: int, quick: bool) -> None:
        if workload not in workload_names():
            raise ValueError(f"unknown workload {workload!r}; one of {workload_names()}")
        self.workload = workload
        self.seed = seed
        self.quick = quick
        self.attempted = 0
        self.failures: list[str] = []
        self.tmp = OUT / f"tmp-{os.getpid()}-{workload}"
        self._children = 0

    def __enter__(self) -> "Harness":
        shutil.rmtree(self.tmp, ignore_errors=True)
        self.tmp.mkdir(parents=True)
        return self

    def __exit__(self, *_exc) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)

    @property
    def failed(self) -> int:
        return min(len(self.failures), self.attempted)

    def fresh_dir(self, name: str) -> Path:
        self._children += 1
        path = self.tmp / f"{name}-{self._children}"
        path.mkdir()
        return path

    def child(self, mode: str, cache_dir: Path, **extra) -> dict | None:
        """Run one child and count it; None (and a recorded failure) if it failed."""
        self.attempted += 1
        scratch = self.fresh_dir(mode)
        request = {
            "mode": mode,
            "workload": self.workload,
            "seed": self.seed,
            "quick": self.quick,
            "cache_dir": str(cache_dir),
            "scratch": str(scratch),
            **extra,
        }
        try:
            answer = self._run(request, scratch)
            if answer.get("problems"):
                raise RepFailed("; ".join(answer["problems"]))
            return answer
        except RepFailed as failure:
            self.failures.append(f"{mode}: {failure}")
            return None
        finally:
            shutil.rmtree(scratch, ignore_errors=True)

    def _run(self, request: dict, scratch: Path) -> dict:
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join([str(ROOT), str(ROOT / "src")]),
            PYTHONHASHSEED="0",
            OMP_NUM_THREADS="1",
            OPENBLAS_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
            TMPDIR=str(scratch),
        )
        shm_before = _shm_census()
        process = subprocess.Popen(
            [sys.executable, "-m", "benchmarks.kfbench.rep", json.dumps(request)],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,  # so a timeout can kill the pool workers too
        )
        try:
            stdout, stderr = process.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise RepFailed(f"timed out after {CHILD_TIMEOUT_S} s") from None
        finally:
            # Also reaps pool workers a crashed or timed-out child left.
            try:
                os.killpg(process.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            process.wait()
        if process.returncode != 0:
            raise RepFailed(f"exit {process.returncode}: {stderr.strip()[-400:]}")
        try:
            answer = json.loads(stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            raise RepFailed(f"unreadable answer: {stdout[-200:]!r}") from None
        leaked = _leaked_segments(shm_before)
        if leaked:
            raise RepFailed(f"leaked /dev/shm segments: {leaked}")
        stale = sorted(str(p) for p in self.tmp.rglob("*.tmp-*"))
        if stale:
            raise RepFailed(f"leaked publish dirs: {stale}")
        return answer

    def blessed(self) -> dict | None:
        """This seed's committed expectations, if it was blessed."""
        if self.quick or not EXPECTED_PATH.exists():
            return None
        seeds = json.loads(EXPECTED_PATH.read_text())["seeds"]
        return seeds.get(str(self.seed), {}).get(self.workload)

    def expected(self, cache_dir: Path) -> dict | None:
        """Blessed expectations for this seed, else a fresh serial reference."""
        blessed = self.blessed()
        if blessed is not None:
            return blessed
        answer = self.child("reference", cache_dir)
        return answer["expected"] if answer else None

    def notes(self, fingerprint: dict) -> list[str]:
        if self.workload == "pool-hybrid" and fingerprint.get("nproc", 2) < 2:
            note = (
                "OVERSUBSCRIBED: pool-hybrid runs 2 workers on "
                f"{fingerprint['nproc']} cpu; its timings measure contention"
            )
            print(f"kfbench: {note}", file=sys.stderr)
            return [note]
        return []


class Measurement:
    """The untraced samples of one workload, taken in one or more slices.

    ``prepare`` adds one ``setup_s`` sample, ``reps`` adds ``wall_s`` and
    ``peak_rss_mib`` samples.  Every child counts into ``attempted``; one
    that raised, timed out, leaked or failed an output check counts into
    ``failed`` and contributes no sample.
    """

    def __init__(self, harness: Harness) -> None:
        self.h = harness
        self.setup: list[float] = []
        self.wall: list[float] = []
        self.rss: list[float] = []
        self.digests: set[tuple] = set()
        self.warm: Path | None = None
        self.expected: dict | None = None
        self.observed: dict | None = None
        self.fingerprint: dict = {}

    def prepare(self) -> None:
        """One cold prepare; the first that succeeds leaves the warm cache."""
        cache = self.h.fresh_dir("cache")
        answer = self.h.child("prepare", cache)
        if answer:
            self.setup.append(answer["setup_s"])
            self.fingerprint = answer["fingerprint"]
        if answer and self.warm is None:
            self.warm = cache
        else:
            shutil.rmtree(cache, ignore_errors=True)

    def reps(self, seconds: float, at_least: int, deadline: float | None = None) -> None:
        """Rep children until ``seconds`` have passed, but ``at_least`` that many."""
        if self.warm is None:
            raise RepFailed(f"no prepare succeeded: {self.h.failures}")
        if self.expected is None:
            self.expected = self.h.expected(self.warm)
            if self.expected is None:
                raise RepFailed(f"no expected outputs: {self.h.failures}")
        done = 0
        start = time.monotonic()
        while done < at_least or time.monotonic() - start < seconds:
            if deadline is not None and time.monotonic() > deadline:
                break
            answer = self.h.child("rep", self.warm, expected=self.expected)
            done += 1
            if answer:
                self.wall.append(answer["wall_s"])
                self.rss.append(answer["peak_rss_mib"])
                self.observed = answer["observed"]
                self.digests.add(
                    tuple(m["digest"] for m in self.observed["methods"].values())
                )

    def result(self) -> dict:
        h, observed = self.h, self.observed
        if observed is None:
            raise RepFailed(f"no rep succeeded: {h.failures}")
        if len(self.digests) > 1:
            h.failures.append("reps of one workload produced different result digests")
        n_fusions = len(observed["methods"])  # 5 on fuse-ladder, else 1
        per_record = 1e6 / (observed["records"] * n_fusions)
        headline = observed["methods"]["popaccu+"]
        return {
            "workload": h.workload,
            "seed": h.seed,
            "quick": h.quick,
            "attempted": h.attempted,
            "failed": h.failed,
            "failures": h.failures,
            "samples": {
                "setup_s": self.setup,
                "wall_s": self.wall,
                "us_per_record": [w * per_record for w in self.wall],
                "peak_rss_mib": self.rss,
            },
            "counts": {
                key: observed[key] for key in ("pages", "records", "chunks") if key in observed
            }
            | {"n_fusions": n_fusions}
            | headline["counts"],
            "quality": {
                "auc_pr": headline["metrics"]["auc_pr"],
                "wdev": headline["metrics"]["weighted_deviation"],
            },
            "fingerprint": self.fingerprint | {"git_commit": git_commit()},
            "notes": h.notes(self.fingerprint),
        }


def measure(
    workload: str,
    seed: int,
    seconds: float,
    quick: bool = False,
    reps: int | None = None,
) -> dict:
    """The untraced run: :data:`PASSES` slices of ``setup_s`` and rep samples.

    ``reps`` fixes the rep count instead of the time budget; the quick
    mode takes one slice, and one rep unless told otherwise.
    """
    deadline = time.monotonic() + RUN_LIMIT_S
    passes = 1 if quick else PASSES
    if quick and reps is None:
        reps = 1
    with Harness(workload, seed, quick) as h:
        measurement = Measurement(h)
        for _ in range(passes):
            if time.monotonic() > deadline:
                break
            measurement.prepare()
            if measurement.warm is None:
                continue  # that prepare failed and is counted; the next slice tries again
            if reps is None:
                measurement.reps(seconds / passes, 1, deadline)
            else:
                measurement.reps(0, math.ceil(reps / passes), deadline)
        return measurement.result()


def end_to_end(measured: dict) -> dict[str, dict]:
    """Median, quartiles and n of every end-to-end sample set of one run.

    ``wall_s`` is in here although ``BENCHMARK.json`` does not declare it:
    the driver runs every sample on another seed, and wall-clock follows
    the seed's record count, so the driver gets the normalised
    ``us_per_record`` only; same-seed ``compare`` rows keep ``wall_s``.
    """
    return {
        name: quartiles(measured["samples"][name]) | {"unit": unit}
        for name, unit in SAMPLE_UNITS.items()
    }


def trace(workload: str, seed: int, quick: bool = False) -> dict:
    """The traced run: per-layer metrics from one replica rep."""
    with Harness(workload, seed, quick) as h:
        warm = h.fresh_dir("cache")
        rows: list[dict] = []
        counters: dict[str, float] = {}

        def absorb(answer: dict) -> None:
            offset = len(rows)
            for row in answer["spans"]:
                row["id"] += offset
                if row["parent"] is not None:
                    row["parent"] += offset
                rows.append(row)
            counters.update(answer["counters"])

        if workload != "stream-batched":
            answer = h.child("traced-prepare", warm, rep=0)
            if answer is None:
                raise RepFailed(f"traced prepare failed: {h.failures}")
            absorb(answer)

        expected = h.blessed()
        untraced = h.child("rep", warm, expected=expected)
        traced = h.child("traced", warm, rep=1, expected=expected)
        if untraced is None or traced is None:
            raise RepFailed(f"traced run failed: {h.failures}")
        absorb(traced)
        digests = [
            [m["digest"] for m in answer["observed"]["methods"].values()]
            for answer in (untraced, traced)
        ]
        if digests[0] != digests[1]:
            h.failures.append("the replica's result differs from the entry point's")
        per_layer = layers.derive(rows, counters, untraced["wall_s"])
        # The no-gaps assertion.  The tiny twins' spans are too short for it.
        if not quick and per_layer["trace.coverage_share"] < MIN_COVERAGE_SHARE:
            h.failures.append(
                f"trace.coverage_share {per_layer['trace.coverage_share']:.3f} "
                f"is below {MIN_COVERAGE_SHARE}: the replica has gaps"
            )

        return {
            "workload": workload,
            "seed": seed,
            "quick": quick,
            "attempted": h.attempted,
            "failed": h.failed,
            "failures": h.failures,
            "per_layer": per_layer,
            "spans": rows,
        }


def write_trace(traced: dict, directory: Path) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"trace-{traced['workload']}.jsonl"
    path.write_text("".join(json.dumps(row) + "\n" for row in traced["spans"]))
    return path


def suite(
    seed: int,
    seconds: float,
    quick: bool = False,
    out_dir: Path = OUT,
) -> dict:
    """Every workload, untraced then traced: the full result document.

    The untraced samples are taken in :data:`PASSES` interleaved passes
    over the workloads (one slice per workload and pass), then each
    workload is traced once.  Writes ``trace-<workload>.jsonl`` per
    workload into ``out_dir`` and returns the document ``python -m benchmarks.kfbench run`` saves.  The
    quick mode (tiny twins, one rep) is stamped ``comparable: false``.
    """
    spec = load_spec()
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    document = {
        "benchmark": "kfbench",
        "seed": seed,
        "comparable": not quick,
        "run_seconds": seconds,
        "environment": {},
        "notes": [],
        "workloads": {},
    }
    names = workload_names()
    passes = 1 if quick else PASSES
    with contextlib.ExitStack() as stack:
        measurements = {
            name: Measurement(stack.enter_context(Harness(name, seed, quick))) for name in names
        }
        # Interleaved: a slow minute of the machine then costs every
        # workload a minority of its samples, not one workload all of them.
        for _ in range(passes):
            for measurement in measurements.values():
                measurement.prepare()
                measurement.reps(0 if quick else seconds / passes, 1)
        measured_by_name = {name: m.result() for name, m in measurements.items()}
    for workload, measured in measured_by_name.items():
        traced = trace(workload, seed, quick=quick)
        write_trace(traced, out_dir)
        attempted = measured["attempted"] + traced["attempted"]
        failed = measured["failed"] + traced["failed"]
        document["environment"] = measured["fingerprint"]
        document["notes"] += measured["notes"]
        document["workloads"][workload] = {
            "end_to_end": end_to_end(measured),
            "samples": measured["samples"],
            "quality": measured["quality"],
            "counts": measured["counts"],
            "attempted": attempted,
            "failed": failed,
            "failed_share": failed / attempted,
            "failures": measured["failures"] + traced["failures"],
            "per_layer": {
                name: {"value": traced["per_layer"][name], "unit": unit}
                for name, unit in layer_units.items()
            },
        }
    # This benchmark is the instrument; it claims no gain itself.
    document["claim"] = None
    return document


def bless(seeds: list[int]) -> dict:
    """Serial-reference expectations of every workload for ``seeds``."""
    blessed: dict[str, dict] = {}
    for seed in seeds:
        blessed[str(seed)] = {}
        for workload in workload_names():
            with Harness(workload, seed, quick=False) as h:
                cache = h.fresh_dir("cache")
                if workload != "stream-batched" and h.child("prepare", cache) is None:
                    raise RepFailed(f"prepare failed: {h.failures}")
                answer = h.child("reference", cache)
                if answer is None:
                    raise RepFailed(f"reference failed: {h.failures}")
                blessed[str(seed)][workload] = answer["expected"]
    return {"config": "small", "seeds": blessed}
