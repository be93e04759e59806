"""Self-test of the benchmark itself, on the tiny twins (under 30 s).

    PYTHONPATH=src python -m pytest benchmarks/kfbench -q

Not part of tier 1 (``testpaths`` is ``tests/``): this checks the
instrument, not the program.
"""

from __future__ import annotations

import json
import re
import statistics

import pytest

from benchmarks.kfbench import compare, harness, run, spans

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SPEC = harness.load_spec()
WORKLOADS = harness.workload_names()


@pytest.fixture(scope="module")
def quick(tmp_path_factory) -> dict:
    """One ``--quick`` suite: every workload, untraced then traced."""
    out = tmp_path_factory.mktemp("kfbench")
    document = harness.suite(seed=0, seconds=0, quick=True, out_dir=out)
    document["out_dir"] = out
    return document


def test_quick_suite_is_green_and_stamped(quick):
    assert quick["comparable"] is False
    assert quick["claim"] is None
    assert list(quick["workloads"]) == WORKLOADS
    for workload, result in quick["workloads"].items():
        assert result["failures"] == [], workload
        assert result["failed_share"] == 0


def test_emitted_names_are_the_declared_names(quick):
    declared_layers = [m["name"] for m in SPEC["per_layer"]]
    declared_e2e = [m["name"] for m in SPEC["end_to_end"]]
    assert len(set(declared_layers + declared_e2e)) == len(declared_layers + declared_e2e)
    for name in declared_layers + declared_e2e + WORKLOADS:
        assert NAME.fullmatch(name), name
    for workload, result in quick["workloads"].items():
        assert set(result["per_layer"]) == set(declared_layers), workload
        assert set(result["end_to_end"]) == set(declared_e2e) | {"wall_s"}, workload
        assert all(stat["median"] > 0 for stat in result["end_to_end"].values())


def test_span_trees_are_well_formed(quick):
    for workload in WORKLOADS:
        path = quick["out_dir"] / f"trace-{workload}.jsonl"
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert [row["id"] for row in rows] == list(range(len(rows)))
        for row in rows:
            assert NAME.fullmatch(row["name"]), row["name"]
            assert row["level"] in spans.LEVELS
            assert row["workload"] == workload
            assert row["end"] >= row["start"]
            if row["parent"] is not None:
                parent = rows[row["parent"]]
                assert parent["rep"] == row["rep"]
                assert parent["start"] <= row["start"] and row["end"] <= parent["end"]
            assert spans.self_time(rows, row["id"]) >= -1e-9
        roots = [row["rep"] for row in rows if row["parent"] is None]
        assert len(roots) == len(set(roots)), "one root per rep"
        assert [row["name"] for row in rows if row["parent"] is None][-1] == "kfbench.rep"


def test_bypassed_layers_read_zero(quick):
    layers = {w: r["per_layer"] for w, r in quick["workloads"].items()}

    def value(workload: str, name: str) -> float:
        return layers[workload][name]["value"]

    assert value("pool-hybrid", "mapreduce.executors.run_map_s") > 0
    assert value("mem-batched", "mapreduce.executors.run_map_s") == 0
    assert value("stream-batched", "world.webgen.stream_corpus_s") > 0
    assert value("mem-batched", "world.webgen.stream_corpus_s") == 0
    assert value("fuse-ladder", "extract.pipeline.run_s") == 0
    assert value("fuse-ladder", "fusion.runner.fuse_s.vote") > 0


def test_seed_changes_inputs_not_names(quick):
    other = harness.measure("mem-batched", seed=1, seconds=0, quick=True)
    assert other["failures"] == []
    assert set(harness.end_to_end(other)) == set(quick["workloads"]["mem-batched"]["end_to_end"])
    assert other["counts"]["records"] != quick["workloads"]["mem-batched"]["counts"]["records"]
    # What the driver reads: exactly the contract's keys and the declared metrics.
    line = run.driver_line(other, SPEC, traced=False)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert list(line["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]


def _document(measured: dict) -> dict:
    return {
        "seed": measured["seed"],
        "comparable": False,
        "workloads": {
            measured["workload"]: {
                "end_to_end": harness.end_to_end(measured),
                "quality": measured["quality"],
                "failed_share": measured["failed"] / measured["attempted"],
            }
        },
    }


def test_planted_slowdown_is_flagged_and_honest_runs_are_not(monkeypatch):
    # The tiny twin's 0.08 s wall is scheduler noise on a shared box, so
    # all three runs carry the same fixed delay in one wrapped call; the
    # planted run adds 1.4 × the time bound of the honest median wall to
    # that call (the issue's 20 % assumed 15 % bounds; they are 25 % here).
    base = 0.3
    plant = "repro.endtoend:label_gold:{:.4f}"
    bound = next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == "us_per_record")

    def measured(delay: float) -> dict:
        monkeypatch.setenv("KFBENCH_PLANT", plant.format(delay))
        return harness.measure("mem-batched", seed=0, seconds=0, quick=True, reps=3)

    honest_a, honest_b = measured(base), measured(base)
    wall = statistics.median(honest_a["samples"]["wall_s"])
    slowed = measured(base + 1.4 * bound * wall)

    def verdicts(a: dict, b: dict) -> dict:
        rows = compare.compare_results(_document(a), _document(b), SPEC)
        return {row["metric"]: row["verdict"] for row in rows}

    honest = verdicts(honest_a, honest_b)
    # A quick run has one 90 ms set-up sample: nothing there to resolve.
    honest.pop("setup_s")
    assert "worse" not in honest.values(), honest
    planted = verdicts(honest_a, slowed)
    assert planted["wall_s"] == "worse" and planted["us_per_record"] == "worse", planted
    assert planted["auc_pr"] == planted["wdev"] == planted["failed_share"] == "same"
    assert compare.regressed(compare.compare_results(_document(honest_a), _document(slowed), SPEC))
