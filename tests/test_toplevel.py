"""Tests for the top-level modules: report rendering, CLI, errors, package."""

import pytest

import repro
from repro.cli import main
from repro.errors import (
    ConfigError,
    EvaluationError,
    ExperimentError,
    ExtractionError,
    FusionError,
    ReproError,
    SchemaError,
    WorkerPoolError,
)
from repro.report import format_series, format_table


class TestErrors:
    @pytest.mark.parametrize(
        "exc",
        [ConfigError, SchemaError, ExtractionError, FusionError,
         EvaluationError, ExperimentError, WorkerPoolError],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)
        with pytest.raises(ReproError):
            raise exc("boom")


class TestReport:
    def test_format_table_aligns(self):
        table = format_table(("name", "value"), [("a", 1), ("bbbb", 22)])
        lines = table.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("name")
        assert all(len(line) == len(lines[0]) or True for line in lines)

    def test_format_table_title(self):
        assert format_table(("x",), [(1,)], title="T").splitlines()[0] == "T"

    def test_format_table_floats(self):
        table = format_table(("x",), [(0.123456,)], float_digits=2)
        assert "0.12" in table

    def test_format_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            format_table(("a", "b"), [(1,)])

    def test_format_series(self):
        out = format_series("S", [(1, 2.0)], "x", "y")
        assert "S" in out and "x" in out

    def test_bools_and_ints_are_not_formatted_as_floats(self):
        table = format_table(("flag", "n"), [(True, 3), (False, 12)])
        assert table.splitlines()[2:] == ["True   3 ", "False  12"]

    def test_format_series_float_digits(self):
        out = format_series("S", [(0.5, 0.123456)])
        assert out.splitlines() == ["S", "x      y    ", "-----  -----",
                                    "0.500  0.123"]


class TestPackage:
    def test_version(self):
        assert repro.__version__

    def test_public_names_importable(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig9" in out and "table1" in out

    def test_run_single_experiment(self, capsys):
        assert main(["run", "table3", "--scale", "tiny", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "functional" in out.lower()

    def test_unknown_experiment_raises(self, capsys):
        # A usage error, rejected before any scenario is built.
        with pytest.raises(SystemExit) as exc:
            main(["run", "fig99", "--scale", "tiny"])
        assert exc.value.code == 2
        assert "invalid choice: 'fig99'" in capsys.readouterr().err

    def test_bad_scale_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "fig9", "--scale", "galactic"])

    def test_extract_serial(self, capsys):
        assert main(["extract", "--scale", "tiny", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "backend:       serial" in out
        assert "records:" in out and "extract time:" in out

    def test_extract_time_excludes_executor_teardown(self, capsys, monkeypatch):
        """On a clock that ticks once per reading: the extraction clock
        used to be read after ``executor.close()``, billing pool teardown
        (here 1000 ticks) to the stage."""
        import itertools
        import time

        from repro.mapreduce.executors import SerialExecutor

        clock = itertools.count()
        close = SerialExecutor.close

        def slow_close(self):
            for _ in range(1000):
                next(clock)
            close(self)

        monkeypatch.setattr(time, "perf_counter", lambda: float(next(clock)))
        monkeypatch.setattr(SerialExecutor, "close", slow_close)
        assert main(["extract", "--scale", "tiny", "--seed", "7"]) == 0
        assert "extract time:  1.000s" in capsys.readouterr().out

    def test_extract_hybrid_reports_workers(self, capsys):
        assert (
            main(
                ["extract", "--scale", "tiny", "--seed", "7",
                 "--backend", "hybrid", "--workers", "2"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "backend:       hybrid" in out
        assert "workers:       2" in out
        assert "fallbacks:" not in out  # a pooled job never runs in-process

    def test_extract_batched_reports_synthesis_mode(self, capsys):
        assert (
            main(["extract", "--scale", "tiny", "--seed", "7",
                  "--backend", "batched"])
            == 0
        )
        out = capsys.readouterr().out
        assert "backend:       batched" in out
        assert "synthesis:     batched" in out
        # Stock fleet: every family ships a kernel, no scalar fallback.
        assert "scalar fallback" not in out

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_extract_invalid_workers_exits_2(self, capsys, workers):
        # Same validation (and exit code) as fuse/pipeline: 0 used to run
        # on the CPU-count default, -1 died in run_map with an IndexError.
        argv = ["extract", "--scale", "tiny", "--backend", "hybrid"]
        assert main([*argv, "--workers", workers]) == 2
        assert "n_workers must be >= 1" in capsys.readouterr().err

    def test_extract_top_extractors_tie_in_first_arrival_order(self, capsys, monkeypatch):
        """``Counter.most_common``'s order: most records first, ties in the
        order the extractors first appear.  ``C`` is interned as a URL
        before ``A`` extracts anything, so string-code order would differ."""
        from repro.extract.pipeline import ExtractionPipeline
        from repro.extract.records import ExtractionRecord, RecordTables
        from repro.kb.triples import Triple
        from repro.kb.values import StringValue

        rows = [("B", "C"), ("A", "u"), ("A", "u"), ("C", "u"), ("C", "u"), ("B", "u"), ("D", "u")]
        records = RecordTables.of(
            [
                ExtractionRecord(Triple("/m/1", "p/t/a", StringValue("x")), name, url, "s", "TXT")
                for name, url in rows
            ]
        )
        monkeypatch.setattr(ExtractionPipeline, "run", lambda *args, **kwargs: records)
        assert main(["extract", "--scale", "tiny", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "records:       7 (top extractors: B:2, A:2, C:2, D:1)" in out
        assert "error records: 0 (0.0%)" in out

    def test_extract_backends_report_identical_record_counts(self, capsys):
        main(["extract", "--scale", "tiny", "--seed", "7"])
        serial_out = capsys.readouterr().out
        line = next(l for l in serial_out.splitlines() if l.startswith("records:"))
        for extra in (["--backend", "hybrid", "--workers", "2"],
                      ["--backend", "batched"]):
            main(["extract", "--scale", "tiny", "--seed", "7", *extra])
            assert line in capsys.readouterr().out


class TestCLIRunIsolation:
    """``repro-kf run``'s exit code and failure isolation, with the
    scenario and the experiments faked so the paths run in milliseconds;
    the real experiments run in ``tests/benchmarks/test_reproduction.py``."""

    @pytest.fixture(autouse=True)
    def fake_experiments(self, monkeypatch):
        from repro import cli
        from repro.experiments import ExperimentResult

        def fake(experiment_id, scenario):
            if experiment_id == "fig9":
                raise KeyError("lost-shard")
            checks = {"holds": True, "spread": experiment_id != "table2"}
            text = f"{experiment_id} report"
            return ExperimentResult(experiment_id, experiment_id, text, {"n": 1}, checks)

        monkeypatch.setattr(cli, "build_scenario", lambda config: None)
        monkeypatch.setattr(cli, "run_experiment", fake)

    def test_a_crash_does_not_stop_the_rest(self, tmp_path, capsys):
        from repro.experiments import experiment_ids

        assert main(["run", "all", "--out-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "fig9: ERROR" in err
        assert "Traceback" in err and "lost-shard" in err
        assert "table2: FAILED spread" in err
        assert "2 experiment(s) failed: table2, fig9" in err
        written = sorted(path.name for path in tmp_path.iterdir())
        assert written == sorted(f"{i}.txt" for i in experiment_ids() if i != "fig9")
        assert (tmp_path / "table2.txt").read_text() == "table2 report\n"

    def test_all_green_exits_zero(self, tmp_path, capsys):
        assert main(["run", "fig10", "--out-dir", str(tmp_path)]) == 0
        captured = capsys.readouterr()
        assert captured.out == "fig10 report\n\n"
        assert captured.err == ""
        assert [path.name for path in tmp_path.iterdir()] == ["fig10.txt"]


class TestCLIFuse:
    def test_fuse_serial(self, capsys):
        assert main(["fuse", "popaccu", "--scale", "tiny", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "method:        POPACCU" in out
        assert "backend:       serial" in out
        assert "backend used:  serial" in out
        assert "coverage:" in out

    @pytest.mark.parallel_backend
    def test_fuse_backend_round_trip_identical_summary(self, capsys):
        """Numbers lines (rounds/triples/coverage/mean) must agree across
        every backend — serial, vectorized, hybrid (the tolerance
        backends' 1e-9 drift vanishes at 4-decimal display)."""
        summaries = {}
        for backend in ("serial", "vectorized", "hybrid"):
            assert (
                main(["fuse", "popaccu", "--scale", "tiny", "--seed", "7",
                      "--backend", backend])
                == 0
            )
            out = capsys.readouterr().out
            summaries[backend] = [
                line for line in out.splitlines()
                if line.startswith(("rounds:", "triples:", "unpredicted:",
                                    "coverage:", "mean p(true):"))
            ]
        assert summaries["serial"] == summaries["vectorized"]
        assert summaries["serial"] == summaries["hybrid"]

    @pytest.mark.parallel_backend
    def test_fuse_hybrid_reports_tolerance_parity(self, capsys):
        assert (
            main(["fuse", "popaccu+", "--scale", "tiny", "--seed", "7",
                  "--backend", "hybrid", "--workers", "2"])
            == 0
        )
        out = capsys.readouterr().out
        assert "backend:       hybrid" in out
        assert "backend used:  hybrid" in out
        assert "parity:        tolerance" in out
        assert "round state:   shared-memory" in out

    def test_fuse_invalid_workers_exits_2(self, capsys):
        assert main(["fuse", "popaccu", "--workers", "0"]) == 2
        assert "error" in capsys.readouterr().err

    def test_fuse_unknown_backend_rejected(self):
        with pytest.raises(SystemExit):
            main(["fuse", "popaccu", "--backend", "gpu"])


class TestCLIPipeline:
    def test_pipeline_serial(self, capsys):
        assert main(["pipeline", "--scale", "tiny", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "method:        POPACCU+" in out
        assert "backend:       serial" in out
        for stage in ("setup:", "extraction:", "labeling:", "fusion:", "total:"):
            assert stage in out
        assert "auc-pr:" in out and "gold accuracy:" in out
        # One 15-column label gutter ("scenario cache: " used to be 16).
        assert "setup cache:   off" in out
        assert all(line[14] == " " and line[15] != " " for line in out.splitlines())

    @pytest.mark.parallel_backend
    def test_pipeline_hybrid_reports_workers(self, capsys):
        assert (
            main(["pipeline", "vote", "--scale", "tiny", "--seed", "7",
                  "--backend", "hybrid", "--workers", "2"])
            == 0
        )
        out = capsys.readouterr().out
        assert "method:        VOTE" in out
        assert "backend:       hybrid" in out
        assert "workers:       2" in out
        assert "fallbacks:" not in out

    @pytest.mark.parallel_backend
    def test_pipeline_backend_round_trip_identical_metrics(self, capsys):
        metric_lines = {}
        for backend in ("serial", "batched", "hybrid"):
            assert (
                main(["pipeline", "popaccu+", "--scale", "tiny", "--seed", "7",
                      "--backend", backend])
                == 0
            )
            out = capsys.readouterr().out
            metric_lines[backend] = [
                line for line in out.splitlines()
                if line.startswith(("pages:", "rounds:", "triples:", "coverage:",
                                    "deviation:", "auc-pr:", "gold accuracy:"))
            ]
        assert metric_lines["serial"] == metric_lines["batched"]
        # Hybrid's 1e-9 tolerance drift is invisible at display precision.
        assert metric_lines["serial"] == metric_lines["hybrid"]

    @pytest.mark.parallel_backend
    def test_pipeline_hybrid_reports_parity(self, capsys):
        assert (
            main(["pipeline", "popaccu+", "--scale", "tiny", "--seed", "7",
                  "--backend", "hybrid", "--workers", "2"])
            == 0
        )
        out = capsys.readouterr().out
        assert "backend:       hybrid" in out
        assert "backend used:  hybrid" in out
        assert "parity:        tolerance" in out
        assert "workers:       2" in out

    def test_pipeline_unknown_scale_rejected(self):
        with pytest.raises(SystemExit):
            main(["pipeline", "--scale", "galactic"])

    def test_pipeline_unknown_method_rejected(self):
        with pytest.raises(SystemExit):
            main(["pipeline", "bayes-net"])


class TestCLICache:
    def test_prune_empty_cache(self, tmp_path, capsys):
        assert main(["cache", "prune", "--cache-dir", str(tmp_path)]) == 0
        assert "nothing stale" in capsys.readouterr().out

    def test_prune_dry_run_lists_but_keeps(self, tmp_path, capsys):
        leftover = tmp_path / "columns-dead.tmp-1"
        leftover.mkdir()
        assert main(["cache", "prune", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert f"would prune: {leftover}" in out
        assert "dry run" in out and "--apply" in out
        assert leftover.exists()

    def test_prune_apply_deletes(self, tmp_path, capsys):
        leftover = tmp_path / "scenario-beef.tmp-2"
        leftover.mkdir()
        assert (
            main(["cache", "prune", "--cache-dir", str(tmp_path), "--apply"])
            == 0
        )
        assert f"pruned: {leftover}" in capsys.readouterr().out
        assert not leftover.exists()

    @pytest.mark.parametrize("kind", ["missing", "file"])
    def test_prune_rejects_a_path_that_is_not_a_directory(
        self, tmp_path, capsys, kind
    ):
        path = tmp_path / "cache-typo"
        if kind == "file":
            path.write_text("not a cache")
        assert main(["cache", "prune", "--cache-dir", str(path)]) == 2
        captured = capsys.readouterr()
        assert "nothing stale" not in captured.out
        assert f"error: {path} is not a directory" in captured.err

    def test_cache_requires_a_subcommand(self):
        with pytest.raises(SystemExit):
            main(["cache"])


class TestCLIStreamingScale:
    def test_web_accepts_serial_backend(self, capsys, monkeypatch):
        """The streaming route used to refuse ``serial``; driven here with
        the ``web`` preset swapped for ``tiny`` so it runs in a second."""
        from repro import cli
        from repro.datasets import tiny_config

        monkeypatch.setattr(cli, "_SCALES", dict(cli._SCALES, web=tiny_config))
        assert main(["pipeline", "--scale", "web", "--backend", "serial",
                     "--seed", "7", "--chunk-pages", "32"]) == 0
        out = capsys.readouterr().out
        assert "backend used:  serial" in out
        assert "3 chunks of 32" in out

    def test_web_rejects_bad_chunk_pages(self, capsys):
        # Rejected with the backend/method checks, not after the setup stage.
        assert main(["pipeline", "--scale", "web", "--backend", "batched",
                     "--chunk-pages", "0"]) == 2
        assert "chunk_pages must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("scale", ["tiny", "small", "medium"])
    @pytest.mark.parametrize("chunk_pages", ["0", "-3"])
    def test_materialised_scales_reject_bad_chunk_pages(self, capsys, scale, chunk_pages):
        # The value is streaming-only, but a bad one is a usage error
        # everywhere, before any generation.
        assert main(["pipeline", "--scale", scale, "--chunk-pages", chunk_pages]) == 2
        captured = capsys.readouterr()
        assert "chunk_pages must be >= 1" in captured.err
        assert captured.out == ""

    def test_web_is_pipeline_only(self):
        for subcommand in (["run", "fig9"], ["fuse", "popaccu"], ["extract"]):
            with pytest.raises(SystemExit):
                main([*subcommand, "--scale", "web"])

    def test_chunk_pages_flag_parses(self, capsys):
        # Exercised end to end at tiny through the materialised route
        # (the flag is streaming-only; it must still parse everywhere).
        assert (
            main(["pipeline", "--scale", "tiny", "--seed", "7",
                  "--chunk-pages", "512"])
            == 0
        )
        assert "peak rss:" in capsys.readouterr().out
