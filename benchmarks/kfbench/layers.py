"""Per-layer metrics: names are ``<module>.<metric>``, module = layer.

:func:`derive` turns one traced run — the spans of the traced prepare
(rep 0) and of the replica (rep 1), plus the counters taken at the same
boundaries — into a value for every per-layer metric ``BENCHMARK.json``
declares.  A layer the workload does not exercise reports 0: that is the
"this workload bypasses the mechanism" half of the interaction table.

A ``*_s`` metric is the summed duration of the spans of that name inside
the replica's entry-point mirror (for names that only occur in the traced
prepare, inside the prepare); the few that are not are spelled out below.
"""

from __future__ import annotations

import statistics

from benchmarks.kfbench import spans

#: ``*_s`` metrics that are plain span totals: metric name → span name.
SPAN_TOTALS = {
    "world.worldgen.generate_world_s": "world.worldgen.generate_world",
    "world.facts.build_freebase_snapshot_s": "world.facts.build_freebase_snapshot",
    "world.webgen.generate_corpus_s": "world.webgen.generate_corpus",
    "world.webgen.stream_corpus_s": "world.webgen.stream_corpus",
    "artifacts.cold_build_s": "artifacts.cold_build",
    "artifacts.save_scenario_artifact_s": "artifacts.save_scenario_artifact",
    "artifacts.warm_load_s": "artifacts.warm_load",
    "artifacts.page_decode_s": "artifacts.page_decode",
    "datasets.scenario.build_extraction_pipeline_s": "datasets.scenario.build_extraction_pipeline",
    "datasets.scenario.label_gold_s": "datasets.scenario.label_gold",
    "extract.base.coverage_mask_s": "extract.base.coverage_mask",
    "extract.synthesis.synthesize_batch_s": "extract.synthesis.synthesize_batch",
    "extract.kernels.classify_batch_s": "extract.kernels.classify_batch",
    "mapreduce.executors.install_state_s": "mapreduce.executors.install_state",
    "mapreduce.executors.install_round_state_s": "mapreduce.executors.install_round_state",
    "mapreduce.executors.run_map_s": "mapreduce.executors.run_map",
    "fusion.observations.claim_matrix_build_s": "fusion.observations.claim_matrix_build",
    "fusion.matrix.add_records_s": "fusion.matrix.add_records",
    "fusion.matrix.build_s": "fusion.matrix.build",
    "fusion.matrix.persist_s": "fusion.matrix.persist",
    "eval.headline_metrics_s": "eval.headline_metrics",
}

#: Metrics that are counters taken in the child, reported as counted.
COUNTERS = (
    "world.webgen.pages",
    "artifacts.artifact_mib",
    "extract.base.covered_pairs",
    "extract.synthesis.records",
    "extract.synthesis.fallbacks",
    "extract.kernels.changed",
    "mapreduce.executors.state_bytes_shipped",
    "mapreduce.executors.fallbacks",
    "mapreduce.executors.worker_peak_rss_mib",
    "mapreduce.codec.wire_bytes_per_record",
    "fusion.observations.n_claims",
    "fusion.observations.n_items",
    "fusion.observations.n_provenances",
    "fusion.matrix.column_store_mib",
    "datasets.scenario.labelled_share",
    "fusion.runner.rounds_total",
    "eval.auc_pr",
    "eval.wdev",
)

LADDER_KEYS = ("vote", "accu", "popaccu", "popaccu-plus-unsup", "popaccu-plus")
EXTRACT_SPANS = ("extract.pipeline.run", "extract.pipeline.run_stream")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def derive(rows: list[dict], counters: dict[str, float], untraced_wall_s: float) -> dict:
    """Every per-layer metric of one traced run, by name."""
    root = spans.find(rows, "kfbench.rep")
    mirror = next(row for row in rows if row["parent"] == root["id"])
    inside = spans.descendants(rows, mirror["id"])
    prepare = [row for row in rows if row["rep"] != root["rep"]]

    def seconds(name: str) -> float:
        """Summed span time inside the mirror, else inside the traced prepare."""
        mirrored = [r for r in rows if r["name"] == name and r["id"] in inside]
        return sum(r["end"] - r["start"] for r in mirrored or prepare if r["name"] == name)

    def probe(name: str) -> float:
        """Median duration of a probe span (probes sit outside the mirror)."""
        found = [
            r["end"] - r["start"]
            for r in rows
            if r["name"] == name and r["id"] not in inside and r["rep"] == root["rep"]
        ]
        return statistics.median(found) if found else 0.0

    def without(row: dict, child_name: str) -> float:
        """A span's duration minus its direct children called ``child_name``."""
        return (row["end"] - row["start"]) - sum(
            c["end"] - c["start"]
            for c in rows
            if c["parent"] == row["id"] and c["name"] == child_name
        )

    out = {metric: seconds(span) for metric, span in SPAN_TOTALS.items()}
    out.update({name: counters.get(name, 0) for name in COUNTERS})

    # Extraction: the whole run/run_stream call without the lazy page
    # decode the legacy envelopes charge to it; overhead is its self time.
    extract = [r for r in rows if r["name"] in EXTRACT_SPANS and r["id"] in inside]
    out["extract.pipeline.run_s"] = sum(without(r, "artifacts.page_decode") for r in extract)
    out["extract.pipeline.overhead_s"] = sum(spans.self_time(rows, r["id"]) for r in extract)
    out["extract.synthesis.us_per_record"] = 1e6 * _ratio(
        out["extract.synthesis.synthesize_batch_s"], out["extract.synthesis.records"]
    )
    out["world.webgen.us_per_page"] = 1e6 * _ratio(
        out["world.webgen.generate_corpus_s"] + out["world.webgen.stream_corpus_s"],
        out["world.webgen.pages"],
    )

    # Fusion: a method's fuse time is its span without the claim-matrix
    # build nested in it (the "warm-matrix" fuse).
    warm_fuse = 0.0
    for key in LADDER_KEYS:
        value = sum(
            without(r, "fusion.observations.claim_matrix_build")
            for r in rows
            if r["name"] == f"fusion.runner.fuse.{key}" and r["id"] in inside
        )
        out[f"fusion.runner.fuse_s.{key}"] = value
        warm_fuse += value
    for kernel in ("accu_round", "popaccu_round", "stage2_accuracies"):
        out[f"fusion.kernels.{kernel}_s"] = probe(f"fusion.kernels.{kernel}")
    stage2 = out["fusion.kernels.stage2_accuracies_s"]
    out["fusion.kernels.ns_per_claim_round"] = 1e9 * _ratio(
        out["fusion.kernels.popaccu_round_s"] + stage2,
        counters.get("_kernel_probe_claims", 0),
    )
    # Rounds × direct kernel time is what the batched rounds must cost;
    # the rest of the warm fuse is the round loop, θ-rescue and
    # finalisation.  With no kernel probe (scalar loop, pool) that is all of it.
    kernel_time = counters.get("_rounds.accu", 0) * (
        out["fusion.kernels.accu_round_s"] + stage2
    ) + counters.get("_rounds.popaccu", 0) * (out["fusion.kernels.popaccu_round_s"] + stage2)
    out["fusion.runner.overhead_s"] = warm_fuse - kernel_time
    out["fusion.runner.us_per_claim_round"] = 1e6 * _ratio(
        warm_fuse, counters.get("_claim_rounds", 0)
    )

    # Pool: what the same pages and records cost without it (probes) over
    # what they cost with it (mirror).  Below 1 the pool loses.
    out["mapreduce.executors.pool_start_s"] = probe("mapreduce.executors.pool_start")
    out["mapreduce.codec.encode_s"] = probe("mapreduce.codec.encode")
    out["mapreduce.codec.decode_s"] = probe("mapreduce.codec.decode")
    pooled = bool(out["mapreduce.executors.run_map_s"])
    out["mapreduce.executors.extract_pool_speedup"] = (
        _ratio(probe("probe.extract_inprocess"), out["extract.pipeline.run_s"]) if pooled else 0.0
    )
    out["mapreduce.executors.fuse_pool_speedup"] = (
        _ratio(probe("probe.fuse_vectorized"), warm_fuse) if pooled else 0.0
    )

    # Trace health: no gaps inside the mirror, and the mirror still costs
    # what the untraced entry point costs.
    wall = mirror["end"] - mirror["start"]
    out["trace.coverage_share"] = _ratio(spans.children_total(rows, mirror["id"]), wall)
    out["trace.replica_gap_share"] = _ratio(abs(wall - untraced_wall_s), untraced_wall_s)
    return out
