"""What a dead pool worker does to a pooled fuse or extraction (Linux only).

A worker killed mid-job is not retried and not replaced by an in-process
run: the stage raises :class:`~repro.errors.WorkerPoolError` naming the
job, from the pool's ``BrokenProcessPool`` — promptly, not a hang — and
leaves nothing behind in the parent: no new ``psm_*`` shared-memory
segment in ``/dev/shm`` and no extra open file descriptor.
"""

import glob
import multiprocessing
import os
import signal
import sys
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro.errors import WorkerPoolError
from repro.extract.pipeline import ExtractionPipeline
from repro.fusion import FusionConfig
from repro.fusion.popaccu import PopAccuKernel
from repro.fusion.runner import run_bayesian_fusion
from repro.mapreduce.executors import ParallelExecutor, ShardedMapJob

pytestmark = [
    pytest.mark.parallel_backend,
    pytest.mark.skipif(
        not sys.platform.startswith("linux"), reason="reads /dev/shm and /proc/self/fd"
    ),
]


class _KillsItsWorker(PopAccuKernel):
    """POPACCU whose batched Stage I SIGKILLs the pool worker that scores
    global row 0 — one item, so exactly one shard of the first round."""

    def batch_round(self, cols, accuracies, active, require_repeated, keep=None):
        if multiprocessing.parent_process() is not None and 0 in cols.rows:
            os.kill(os.getpid(), signal.SIGKILL)
        return super().batch_round(cols, accuracies, active, require_repeated, keep)


class _KillsItsShard:
    """A one-extractor fleet that covers no page, so the synthesis driver
    asks it for nothing but its coverage mask; the pool worker whose
    shard holds ``url`` SIGKILLs itself inside ``_extract_shard`` (in
    that coverage pass)."""

    name = "KILLER"

    def __init__(self, url: str) -> None:
        self.url = url

    def coverage_mask(self, pages):
        if multiprocessing.parent_process() is not None and any(
            page.url == self.url for page in pages
        ):
            os.kill(os.getpid(), signal.SIGKILL)
        return np.zeros(len(pages), dtype=bool)



def _segments() -> set[str]:
    return set(glob.glob("/dev/shm/psm_*"))


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def _identity_shard(items):
    return items


def _hung(_signum, _frame):
    raise TimeoutError("the fuse hung on a dead worker")


@pytest.fixture
def warm_pool_state():
    """One pool (and one segment) first: the resource tracker they start
    keeps its pipe open for the life of the process."""
    with ParallelExecutor(max_workers=2) as warm:
        warm.install_round_state("test.warm", {"values": np.zeros(4)})
        warm.run_map(
            list(range(4)), ShardedMapJob(name="warm", map_shard=_identity_shard)
        )


def _raises_worker_pool_error(job_name: str, run) -> None:
    """``run()`` fails with a WorkerPoolError naming ``job_name``, raised
    from ``BrokenProcessPool``, within 60 s, leaking no segment or fd."""
    segments, fds = _segments(), _open_fds()
    signal.signal(signal.SIGALRM, _hung)
    signal.alarm(60)
    try:
        with pytest.raises(WorkerPoolError, match=f"job {job_name!r}") as raised:
            run()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
    assert isinstance(raised.value.__cause__, BrokenProcessPool)
    del raised
    assert _segments() <= segments
    assert _open_fds() == fds


def test_killed_worker_fails_the_fuse_and_leaks_nothing(micro_scenario, warm_pool_state):
    fusion_input = micro_scenario.fusion_input()
    _raises_worker_pool_error(
        "fusion.stage1",
        lambda: run_bayesian_fusion(
            fusion_input,
            FusionConfig(backend="hybrid", n_workers=2),
            _KillsItsWorker(),
            "POPACCU",
        ),
    )


def test_killed_worker_fails_extraction_and_leaks_nothing(micro_scenario, warm_pool_state):
    corpus = micro_scenario.corpus
    pipeline = ExtractionPipeline([_KillsItsShard(corpus.pages[0].url)])
    _raises_worker_pool_error(
        "extract.pages",
        lambda: pipeline.run(corpus, backend="hybrid", n_workers=2),
    )
