"""The docs lint as a tier-1 test: README/ARCHITECTURE must not rot.

Delegates to ``tools/docs_lint.py`` (the same checks CI runs as a
standalone step) so a dead link, a documented-but-nonexistent
``repro-kf`` subcommand, or an undocumented fusion backend fails the
ordinary test run, not just CI.
"""

import importlib.util
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load_docs_lint():
    spec = importlib.util.spec_from_file_location(
        "docs_lint", REPO_ROOT / "tools" / "docs_lint.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("docs_lint", module)
    spec.loader.exec_module(module)
    return module


class TestDocsLint:
    def test_links_resolve(self):
        docs_lint = _load_docs_lint()
        assert docs_lint.check_links() == []

    def test_cli_docs_in_sync(self):
        docs_lint = _load_docs_lint()
        assert docs_lint.check_cli_sync() == []

    def test_bench_entrypoints_in_sync(self):
        docs_lint = _load_docs_lint()
        assert docs_lint.check_bench_sync() == []

    def test_tool_entrypoints_in_sync(self):
        docs_lint = _load_docs_lint()
        assert docs_lint.check_tool_sync() == []

    def test_bench_sync_requires_the_perf_trajectory_surface(self, tmp_path):
        """A README that stops documenting the comparator or the
        --compare gate is a lint failure, not silent rot."""
        docs_lint = _load_docs_lint()
        (tmp_path / "benchmarks").mkdir()
        for script in ("run.py", "compare.py"):
            (tmp_path / "benchmarks" / script).write_text("")
        readme = tmp_path / "README.md"

        readme.write_text("Use benchmarks/run.py only.\n")
        errors = docs_lint.check_bench_sync(tmp_path)
        assert any("benchmarks/compare.py" in e for e in errors)
        assert any("--compare" in e for e in errors)

        readme.write_text(
            "Run benchmarks/run.py --compare, gate via benchmarks/compare.py.\n"
        )
        assert docs_lint.check_bench_sync(tmp_path) == []

    def test_documented_names_resolve(self):
        docs_lint = _load_docs_lint()
        assert docs_lint.check_dotted_names() == []

    def test_dotted_names_catch_a_deleted_name(self, tmp_path):
        """A name that left ``src/`` (here: the engine that moved under
        ``tests/oracle``) must not stay documented; modules, attributes
        and call spellings that do exist pass."""
        docs_lint = _load_docs_lint()
        (tmp_path / "README.md").write_text(
            "`repro.fusion`, `repro.fusion.runner.run_bayesian_fusion()` and\n"
            "`repro.mapreduce.executors.EXECUTION_MODES` exist;\n"
            "`repro.mapreduce.engine.MapReduceEngine` and\n"
            "`repro.fusion.runner.no_such_name` do not.\n"
        )
        errors = docs_lint.check_dotted_names(tmp_path)
        assert len(errors) == 2
        assert "`repro.fusion.runner.no_such_name`" in errors[0]
        assert "`repro.mapreduce.engine.MapReduceEngine`" in errors[1]

    def test_front_door_exists(self):
        """The acceptance criterion verbatim: the front door files exist
        and ROADMAP links them."""
        assert (REPO_ROOT / "README.md").exists()
        assert (REPO_ROOT / "docs" / "ARCHITECTURE.md").exists()
        roadmap = (REPO_ROOT / "ROADMAP.md").read_text()
        assert "README.md" in roadmap
        assert "ARCHITECTURE.md" in roadmap

    def test_scale_presets_in_sync(self):
        docs_lint = _load_docs_lint()
        assert docs_lint.check_scale_sync() == []

    def test_scale_sync_catches_a_missing_tier(self, tmp_path):
        """A new --scale preset without a README table row is lint
        failure, not silent rot (the table carries the RSS/wall-clock
        expectations)."""
        docs_lint = _load_docs_lint()
        (tmp_path / "README.md").write_text(
            "| scale |\n|---|\n| `tiny` |\n| `small` |\n| `medium` |\n"
        )
        errors = docs_lint.check_scale_sync(tmp_path)
        assert errors == [
            "README.md: scale preset 'web' has no row in the "
            "scale-preset table"
        ]

    def test_scale_sync_ignores_prose_mentions(self, tmp_path):
        docs_lint = _load_docs_lint()
        (tmp_path / "README.md").write_text(
            "We support `tiny`, `small`, `medium` and `web` scales.\n"
        )
        errors = docs_lint.check_scale_sync(tmp_path)
        assert len(errors) == 4  # prose is not the table

    def test_scaling_doc_exists_and_is_linked(self):
        """PR acceptance verbatim: docs/SCALING.md exists and both
        front-door docs link it."""
        assert (REPO_ROOT / "docs" / "SCALING.md").exists()
        assert "docs/SCALING.md" in (REPO_ROOT / "README.md").read_text()
        assert "SCALING.md" in (
            REPO_ROOT / "docs" / "ARCHITECTURE.md"
        ).read_text()
