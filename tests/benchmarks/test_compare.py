"""The perf-trajectory comparator: tolerance math, structural vs timing
drift, baseline round-trips, atomic blessing, and its CLI surface.

Everything here runs on hand-built envelopes — no benchmark case is
executed — so the suite stays tier-1 fast while pinning exactly the
behaviour the CI ``perf-crossover`` gate relies on.
"""

from __future__ import annotations

import json

import pytest

from benchmarks import compare as cmp


def make_envelope(**overrides) -> dict:
    envelope = {
        "case": "pipeline",
        "kind": "stage",
        "scale": "small",
        "seed": 0,
        "python": "3.11.7",
        "machine": "x86_64",
        "cpu_count": 1,
        "workers": 2,
        "git_commit": "abc123def456",
        "elapsed_seconds": 12.0,
        "timing_rounds": 3,
        "best_of_seconds": {"serial.fusion": 1.0, "serial.extraction": 2.0},
        "report": {
            "bit_identical": True,
            "hybrid_parity": "tolerance",
            "round_state": "shared-memory",
            "n_pages": 2500,
            "n_records": 36842,
            "best_of": {"serial.fusion": 1.0, "serial.extraction": 2.0},
        },
    }
    envelope.update(overrides)
    return envelope


@pytest.fixture
def blessed(tmp_path):
    """A baseline directory holding the blessing of ``make_envelope()``."""
    cmp.update_baseline(make_envelope(), tmp_path)
    return tmp_path


class TestFingerprint:
    def test_runner_class_key(self):
        assert cmp.fingerprint_of(make_envelope()) == "py3.11-x86_64-cpu1-w2"

    def test_patch_version_is_not_a_new_class(self):
        a = cmp.fingerprint_of(make_envelope(python="3.11.7"))
        b = cmp.fingerprint_of(make_envelope(python="3.11.9"))
        assert a == b

    def test_workers_and_cpus_are(self):
        base = cmp.fingerprint_of(make_envelope())
        assert cmp.fingerprint_of(make_envelope(workers=4)) != base
        assert cmp.fingerprint_of(make_envelope(cpu_count=4)) != base


class TestBaselineRoundTrip:
    def test_bless_then_compare_is_clean(self, blessed):
        baseline = cmp.load_baseline("pipeline", blessed)
        result = cmp.compare_envelope(make_envelope(), baseline)
        assert result.ok
        assert result.timing_gated
        assert result.errors == []

    def test_baseline_schema(self, blessed):
        baseline = cmp.load_baseline("pipeline", blessed)
        assert baseline["format"] == cmp.BASELINE_FORMAT
        assert baseline["case"] == "pipeline"
        assert baseline["scale"] == "small"
        assert baseline["seed"] == 0
        assert baseline["timing_rounds"] == 3
        assert baseline["stages"] == ["serial.extraction", "serial.fusion"]
        assert baseline["contracts"]["hybrid_parity"] == "tolerance"
        assert baseline["contracts"]["n_records"] == 36842
        (entry,) = baseline["environments"].values()
        assert entry["git_commit"] == "abc123def456"
        assert entry["best_of_seconds"] == {
            "serial.fusion": 1.0,
            "serial.extraction": 2.0,
        }

    def test_missing_baseline_is_an_error(self, tmp_path):
        assert cmp.load_baseline("pipeline", tmp_path) is None
        result = cmp.compare_envelope(make_envelope(), None)
        assert not result.ok
        assert "no committed baseline" in result.errors[0]

    def test_wrong_format_is_an_error(self, blessed):
        baseline = cmp.load_baseline("pipeline", blessed)
        baseline["format"] = 99
        result = cmp.compare_envelope(make_envelope(), baseline)
        assert not result.ok
        assert "format" in result.errors[0]


class TestAtomicWrite:
    def test_no_tmp_droppings(self, blessed):
        cmp.update_baseline(make_envelope(), blessed)
        names = [p.name for p in blessed.iterdir()]
        assert names == ["BASELINE_pipeline.json"]

    def test_rebless_merges_new_fingerprint(self, blessed):
        other = make_envelope(cpu_count=4, workers=4)
        cmp.update_baseline(other, blessed)
        baseline = cmp.load_baseline("pipeline", blessed)
        assert set(baseline["environments"]) == {
            "py3.11-x86_64-cpu1-w2",
            "py3.11-x86_64-cpu4-w4",
        }

    def test_structural_change_drops_stale_fingerprints(self, blessed):
        changed = make_envelope(
            cpu_count=4,
            workers=4,
            best_of_seconds={"serial.fusion": 1.0},
        )
        changed["report"] = dict(changed["report"], best_of={"serial.fusion": 1.0})
        cmp.update_baseline(changed, blessed)
        baseline = cmp.load_baseline("pipeline", blessed)
        # The stage set changed, so the old 1-core blessing is invalid
        # and must not survive into the new baseline.
        assert set(baseline["environments"]) == {"py3.11-x86_64-cpu4-w4"}
        assert baseline["stages"] == ["serial.fusion"]


class TestToleranceMath:
    def test_budget_is_multiplier_times_base(self, blessed):
        baseline = cmp.load_baseline("pipeline", blessed)
        fresh = make_envelope(
            best_of_seconds={"serial.fusion": 2.99, "serial.extraction": 2.0}
        )
        assert cmp.compare_envelope(fresh, baseline).ok  # 2.99 < 1.0 * 3
        slow = make_envelope(
            best_of_seconds={"serial.fusion": 3.01, "serial.extraction": 2.0}
        )
        result = cmp.compare_envelope(slow, baseline)
        assert not result.ok
        assert "timing regression" in result.errors[0]
        assert "serial.fusion" in result.errors[0]

    def test_floor_absorbs_tiny_stage_noise(self, tmp_path):
        fast = make_envelope(best_of_seconds={"serial.fusion": 0.01})
        fast["report"] = dict(fast["report"], best_of={"serial.fusion": 0.01})
        cmp.update_baseline(fast, tmp_path)
        baseline = cmp.load_baseline("pipeline", tmp_path)
        # 0.03 > 0.01 * 3 but within the absolute floor.
        wobbling = make_envelope(best_of_seconds={"serial.fusion": 0.03})
        wobbling["report"] = fast["report"]
        assert cmp.compare_envelope(wobbling, baseline).ok
        over_floor = make_envelope(best_of_seconds={"serial.fusion": 0.5})
        over_floor["report"] = fast["report"]
        assert not cmp.compare_envelope(over_floor, baseline).ok

    def test_improvement_is_a_note_not_an_error(self, blessed):
        baseline = cmp.load_baseline("pipeline", blessed)
        fast = make_envelope(
            best_of_seconds={"serial.fusion": 0.05, "serial.extraction": 0.1}
        )
        result = cmp.compare_envelope(fast, baseline)
        assert result.ok
        assert any("improved" in note for note in result.notes)


class TestStructuralDrift:
    def test_missing_stage_is_always_an_error(self, blessed):
        baseline = cmp.load_baseline("pipeline", blessed)
        fresh = make_envelope(best_of_seconds={"serial.fusion": 1.0})
        result = cmp.compare_envelope(fresh, baseline)
        assert not result.ok
        assert any(
            "'serial.extraction' disappeared" in error for error in result.errors
        )

    def test_new_stage_requires_blessing(self, blessed):
        baseline = cmp.load_baseline("pipeline", blessed)
        fresh = make_envelope(
            best_of_seconds={
                "serial.fusion": 1.0,
                "serial.extraction": 2.0,
                "serial.shiny": 0.1,
            }
        )
        result = cmp.compare_envelope(fresh, baseline)
        assert not result.ok
        assert any("new stage 'serial.shiny'" in error for error in result.errors)

    def test_changed_contract_is_always_an_error(self, blessed):
        baseline = cmp.load_baseline("pipeline", blessed)
        fresh = make_envelope()
        fresh["report"] = dict(fresh["report"], hybrid_parity="bitwise")
        result = cmp.compare_envelope(fresh, baseline)
        assert not result.ok
        assert any("'hybrid_parity' changed" in error for error in result.errors)

    def test_disappeared_contract_key_is_an_error(self, blessed):
        baseline = cmp.load_baseline("pipeline", blessed)
        fresh = make_envelope()
        fresh["report"] = {
            k: v for k, v in fresh["report"].items() if k != "bit_identical"
        }
        result = cmp.compare_envelope(fresh, baseline)
        assert not result.ok
        assert any("'bit_identical' disappeared" in error for error in result.errors)

    def test_changed_scale_is_an_error_even_if_faster(self, blessed):
        baseline = cmp.load_baseline("pipeline", blessed)
        fresh = make_envelope(
            scale="tiny", best_of_seconds={"serial.fusion": 0.001,
                                           "serial.extraction": 0.001}
        )
        result = cmp.compare_envelope(fresh, baseline)
        assert not result.ok
        assert any("scale" in error for error in result.errors)

    def test_timing_keys_are_not_contract_keys(self):
        # Speedups and cache status are timing/execution facts: pinning
        # them structurally would make every noisy run a "drift".
        for key in ("vectorized_speedup", "classify_speedup", "scenario_cache",
                    "elapsed_seconds", "timings_ms", "metrics"):
            assert key not in cmp.CONTRACT_KEYS


class TestEnvironmentFingerprintGate:
    def test_unblessed_fingerprint_skips_timing_only(self, blessed):
        baseline = cmp.load_baseline("pipeline", blessed)
        ci_run = make_envelope(
            cpu_count=4,
            workers=4,
            best_of_seconds={"serial.fusion": 500.0, "serial.extraction": 2.0},
        )
        result = cmp.compare_envelope(ci_run, baseline)
        assert result.ok  # absurd wall-clock, but a different runner class
        assert not result.timing_gated
        assert any("timing gate skipped" in note for note in result.notes)

    def test_unblessed_fingerprint_still_gates_structure(self, blessed):
        baseline = cmp.load_baseline("pipeline", blessed)
        ci_run = make_envelope(
            cpu_count=4, workers=4, best_of_seconds={"serial.fusion": 0.1}
        )
        result = cmp.compare_envelope(ci_run, baseline)
        assert not result.ok
        assert any("disappeared" in error for error in result.errors)


class TestRender:
    def test_report_names_verdict_and_stages(self, blessed):
        baseline = cmp.load_baseline("pipeline", blessed)
        text = cmp.compare_envelope(make_envelope(), baseline).render()
        assert "verdict: OK" in text
        assert "serial.fusion" in text
        assert "py3.11-x86_64-cpu1-w2" in text

    def test_regression_report_carries_the_numbers(self, blessed):
        baseline = cmp.load_baseline("pipeline", blessed)
        slow = make_envelope(
            best_of_seconds={"serial.fusion": 9.0, "serial.extraction": 2.0}
        )
        text = cmp.compare_envelope(slow, baseline).render()
        assert "verdict: REGRESSION" in text
        assert "9.000" in text


class TestCompareCli:
    def write_envelope(self, tmp_path, envelope, name="BENCH_pipeline.json"):
        path = tmp_path / name
        path.write_text(json.dumps(envelope))
        return path

    def test_bless_then_gate_round_trip(self, tmp_path, capsys):
        envelope_path = self.write_envelope(tmp_path, make_envelope())
        baselines = tmp_path / "baselines"
        assert cmp.main(
            [str(envelope_path), "--update-baseline",
             "--baselines-dir", str(baselines)]
        ) == 0
        assert (baselines / "BASELINE_pipeline.json").exists()
        assert cmp.main(
            [str(envelope_path), "--baselines-dir", str(baselines)]
        ) == 0
        assert "verdict: OK" in capsys.readouterr().out

    def test_gate_fails_on_regression(self, tmp_path, capsys):
        baselines = tmp_path / "baselines"
        cmp.update_baseline(make_envelope(), baselines)
        slow = make_envelope(
            best_of_seconds={"serial.fusion": 9.0, "serial.extraction": 2.0}
        )
        envelope_path = self.write_envelope(tmp_path, slow)
        assert cmp.main(
            [str(envelope_path), "--baselines-dir", str(baselines)]
        ) == 1
        assert "timing regression" in capsys.readouterr().out

    def test_gate_fails_without_baseline(self, tmp_path, capsys):
        envelope_path = self.write_envelope(tmp_path, make_envelope())
        assert cmp.main(
            [str(envelope_path), "--baselines-dir", str(tmp_path / "empty")]
        ) == 1
        assert "no committed baseline" in capsys.readouterr().out


class TestCommittedBaselines:
    """The repo's own blessed baselines stay coherent with the registry."""

    CASES = ("pipeline",)

    @pytest.mark.parametrize("case", CASES)
    def test_committed_baseline_is_wellformed(self, case):
        baseline = cmp.load_baseline(case)
        assert baseline is not None, (
            f"benchmarks/baselines/BASELINE_{case}.json is missing — the "
            "CI perf gate has nothing to compare against"
        )
        assert baseline["format"] == cmp.BASELINE_FORMAT
        assert baseline["case"] == case
        assert baseline["scale"] == "small"
        assert baseline["stages"], "a baseline without stages gates nothing"
        for entry in baseline["environments"].values():
            assert set(baseline["stages"]) == set(entry["best_of_seconds"])
            assert all(v > 0 for v in entry["best_of_seconds"].values())

    def test_pipeline_baseline_pins_the_contract(self):
        baseline = cmp.load_baseline("pipeline")
        assert baseline["contracts"]["bit_identical"] is True
        assert baseline["contracts"]["hybrid_parity"] == "tolerance"
        assert {"serial.fusion", "hybrid.fusion"} <= set(baseline["stages"])
        assert not any(stage.startswith("parallel.") for stage in baseline["stages"])

    @pytest.mark.parametrize("case", CASES)
    def test_committed_baseline_blesses_multiple_runner_classes(self, case):
        # The timing gate only fires for fingerprints with blessed
        # entries; a single-environment baseline would leave every other
        # runner class structurally checked but never timing-gated.
        baseline = cmp.load_baseline(case)
        assert len(baseline["environments"]) >= 2, (
            f"BASELINE_{case}.json blesses only "
            f"{sorted(baseline['environments'])} — the perf trajectory "
            "needs at least two runner-class fingerprints"
        )


class TestScaleQualifiedStems:
    """Scale tiers get their own envelope/baseline stems, so the web
    tier's structure and timings never gate the small tier's."""

    def test_default_scales_keep_the_bare_stem(self):
        assert cmp.stem_of("pipeline") == "pipeline"
        assert cmp.stem_of("pipeline", None) == "pipeline"
        assert cmp.stem_of("pipeline", "small") == "pipeline"

    def test_other_scales_qualify(self):
        assert cmp.stem_of("pipeline", "web") == "pipeline--web"
        assert cmp.stem_of("pipeline", "tiny") == "pipeline--tiny"
        assert cmp.stem_of("extraction", "web") == "extraction--web"

    def test_bless_routes_by_scale(self, tmp_path):
        cmp.update_baseline(make_envelope(), tmp_path)
        cmp.update_baseline(make_envelope(scale="web"), tmp_path)
        assert (tmp_path / "BASELINE_pipeline.json").exists()
        assert (tmp_path / "BASELINE_pipeline--web.json").exists()
        small = cmp.load_baseline("pipeline", tmp_path)
        web = cmp.load_baseline("pipeline--web", tmp_path)
        assert small["scale"] == "small" and web["scale"] == "web"

    def test_web_round_trip_gates_cleanly(self, tmp_path):
        envelope = make_envelope(scale="web")
        cmp.update_baseline(envelope, tmp_path)
        baseline = cmp.load_baseline(cmp.stem_of("pipeline", "web"), tmp_path)
        assert cmp.compare_envelope(envelope, baseline).ok

    def test_committed_web_baseline_pins_the_workload(self):
        # The web tier's structural gate is live from day one: the
        # committed baseline must pin the streamed workload shape so a
        # silent worldgen/extraction change at scale fails CI.
        baseline = cmp.load_baseline(cmp.stem_of("pipeline", "web"))
        assert baseline is not None, (
            "BASELINE_pipeline--web.json is missing — the CI web lane "
            "has nothing to gate against"
        )
        assert baseline["format"] == cmp.BASELINE_FORMAT
        assert baseline["scale"] == "web"
        contracts = baseline["contracts"]
        assert contracts["hybrid_parity"] == "tolerance"
        assert contracts["round_state"] == "shared-memory"
        assert contracts["n_records"] > 1_000_000
        assert contracts["n_pages"] > 70_000
        assert "hybrid.total" in baseline["stages"]
