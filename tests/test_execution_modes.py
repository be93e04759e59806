"""The one execution-mode table, checked against every stage that reads it.

``EXECUTION_MODES`` maps each public backend spelling to an
``ExecutionPlan(pooled, batched)``; the four public backend tuples are
views of it and every reported contract is derived from the two fields.
The expectations below are spelled out by hand on purpose — they are the
public surface, so deriving them from the table would test nothing.
"""

import pytest

from repro import endtoend
from repro.datasets import tiny_config
from repro.endtoend import PIPELINE_BACKENDS, PIPELINE_METHODS, run_end_to_end
from repro.errors import ConfigError
from repro.extract import EXTRACTION_BACKENDS
from repro.fusion import BACKENDS, FusionConfig, parity_of
from repro.mapreduce.executors import (
    EXECUTION_MODES,
    ExecutionPlan,
    ParallelExecutor,
    SerialExecutor,
)

pytestmark = pytest.mark.parallel_backend

#: name -> ((pooled, batched), the entry points that accept the name);
#: ``pipeline`` / ``streaming`` are the two cases of ``run_end_to_end``.
MODES = {
    "serial": ((False, False), {"fusion", "extraction", "pipeline", "streaming"}),
    "batched": ((False, True), {"extraction", "pipeline", "streaming"}),
    "vectorized": ((False, True), {"fusion"}),
    "hybrid": ((True, True), {"fusion", "extraction", "pipeline", "streaming"}),
}

#: ``chunk_pages`` of the two pipeline cases.
CASES = {"pipeline": None, "streaming": 32}

#: What each pipeline backend's fusion stage must report at ``tiny``: the
#: mode's fusion spelling, except a materialised in-process run fuses serial.
FUSION_STAGE = {
    ("pipeline", "serial"): ("serial", "bitwise"),
    ("pipeline", "batched"): ("serial", "bitwise"),
    ("pipeline", "hybrid"): ("hybrid", "tolerance"),
    ("streaming", "serial"): ("serial", "bitwise"),
    ("streaming", "batched"): ("vectorized", "tolerance"),
    ("streaming", "hybrid"): ("hybrid", "tolerance"),
}


def _workers(backend):
    return 2 if EXECUTION_MODES[backend].pooled else None


def _accepted(call):
    try:
        call()
    except ConfigError:
        return False
    return True


class TestTable:
    def test_table_is_exactly_the_four_spellings(self):
        assert {
            name: (plan.pooled, plan.batched)
            for name, plan in EXECUTION_MODES.items()
        } == {name: fields for name, (fields, _) in MODES.items()}

    def test_public_tuples_keep_contents_and_order(self):
        assert BACKENDS == ("serial", "vectorized", "hybrid")
        assert EXTRACTION_BACKENDS == ("serial", "batched", "hybrid")
        assert PIPELINE_BACKENDS == ("serial", "batched", "hybrid")
        assert not hasattr(endtoend, "STREAMING_PIPELINE_BACKENDS")  # one pipeline
        assert PIPELINE_METHODS == ("vote", "accu", "popaccu", "popaccu+unsup", "popaccu+")

    @pytest.mark.parametrize("name", [*MODES, "parallel", "gpu"])
    def test_each_entry_point_accepts_exactly_its_vocabulary(
        self, tiny_scenario, name
    ):
        """Acceptance is probed through the entry points themselves; the
        pipeline probes use an unknown method so an accepted backend
        stops at the next validation step instead of running."""
        with SerialExecutor() as executor:
            accepted = {
                "fusion": _accepted(lambda: FusionConfig(backend=name)),
                "extraction": _accepted(
                    lambda: list(
                        tiny_scenario.pipeline.run_stream(
                            [], backend=name, executor=executor
                        )
                    )
                ),
            }
        for label, chunk_pages in CASES.items():
            with pytest.raises(ConfigError) as rejected:
                run_end_to_end(
                    tiny_config(seed=7),
                    method="no-such-method",
                    backend=name,
                    chunk_pages=chunk_pages,
                )
            accepted[label] = "unknown fusion method" in str(rejected.value)
        expected = MODES.get(name, (None, set()))[1]
        assert {label for label, ok in accepted.items() if ok} == expected

    @pytest.mark.parametrize(
        "name, executor_type",
        [
            ("serial", SerialExecutor),
            ("batched", SerialExecutor),
            ("vectorized", SerialExecutor),
            ("hybrid", ParallelExecutor),
        ],
    )
    def test_plan_chooses_the_executor(self, name, executor_type):
        with EXECUTION_MODES[name].executor(2) as executor:
            assert type(executor) is executor_type

    @pytest.mark.parametrize("n_workers", [0, -1])
    @pytest.mark.parametrize("pooled", [False, True])
    def test_bad_worker_count_rejected_for_every_mode(self, pooled, n_workers):
        with pytest.raises(ConfigError, match="n_workers must be >= 1"):
            ExecutionPlan(pooled=pooled, batched=False).executor(n_workers)

    @pytest.mark.parametrize("n_workers", [0, -1])
    def test_extraction_rejects_bad_worker_count(self, tiny_scenario, n_workers):
        with pytest.raises(ConfigError, match="n_workers must be >= 1"):
            tiny_scenario.pipeline.run(
                tiny_scenario.corpus, backend="hybrid", n_workers=n_workers
            )


class TestDerivedContracts:
    @pytest.mark.parametrize("case, backend", FUSION_STAGE)
    def test_pipeline_backend_used_and_parity(self, case, backend):
        result = run_end_to_end(
            tiny_config(seed=7),
            backend=backend,
            n_workers=_workers(backend),
            chunk_pages=CASES[case],
        )
        diagnostics = result.diagnostics
        assert (diagnostics["backend_used"], diagnostics["parity"]) == FUSION_STAGE[
            case, backend
        ]
        assert diagnostics["extraction_synthesis"] == "batched"
        assert ("n_workers" in diagnostics) == EXECUTION_MODES[backend].pooled

    @pytest.mark.parametrize(
        "backend, parity",
        [
            ("serial", "bitwise"),
            ("vectorized", "tolerance"),
            ("hybrid", "tolerance"),
        ],
    )
    def test_parity_of_known_spellings(self, backend, parity):
        assert parity_of(backend) == parity

    @pytest.mark.parametrize(
        "backend",
        ["gpu", "batched", "", "parallel", "serial (vectorized fallback)"],
    )
    def test_parity_of_unknown_name_raises(self, backend):
        """An unknown name used to be silently blessed as bitwise; the
        fallback spellings are gone with the fallbacks."""
        with pytest.raises(ConfigError):
            parity_of(backend)


class TestOneValidation:
    @pytest.mark.parametrize(
        "bad, message",
        [
            ({"chunk_pages": 0}, "chunk_pages must be >= 1"),
            ({"chunk_pages": -5}, "chunk_pages must be >= 1"),
            # It used to surface as deque's bare ValueError, after the setup stage.
            ({"chunk_pages": 16, "copy_window": -5}, "copy_window must be >= 0"),
            ({"copy_window": -5}, "copy_window must be >= 0"),
            ({"method": "nope"}, "unknown fusion method"),
            ({"chunk_pages": 16, "method": "nope"}, "unknown fusion method"),
            ({"backend": "gpu"}, "pipeline backend must be one of"),
            ({"chunk_pages": 16, "backend": "vectorized"}, "pipeline backend must be one of"),
        ],
    )
    def test_bad_request_is_a_config_error_before_any_work(
        self, bad, message, monkeypatch
    ):
        monkeypatch.setattr(endtoend, "generate_world", pytest.fail)
        monkeypatch.setattr(endtoend, "setup_worldgen", pytest.fail)
        with pytest.raises(ConfigError, match=message):
            run_end_to_end(tiny_config(seed=7), **bad)
