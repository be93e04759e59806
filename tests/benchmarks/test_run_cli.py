"""The result-reproduction runner CLI: exit codes, failure isolation and
flag validation.

The registry is monkeypatched with throwaway cases so the CLI paths run
in milliseconds; the real case bodies are exercised by
``test_reproduction.py``.
"""

from __future__ import annotations

import pytest

import benchmarks.run as run_mod
from benchmarks.registry import BenchCase


def _case(name: str, body) -> BenchCase:
    return BenchCase(name=name, run=body, description="test case", kind="experiment")


def _writes(name: str):
    def run(ctx) -> None:
        (ctx.results_dir / f"{name}.txt").write_text(f"{name}\n")

    return run


def _raises(error: Exception):
    def run(ctx) -> None:
        raise error

    return run


def _bare_assert(ctx) -> None:
    # What a failing bare ``assert`` raises; pytest would rewrite a real one
    # here to carry a message.
    raise AssertionError


@pytest.fixture
def fake_registry(monkeypatch):
    registry = {
        "alpha": _case("alpha", _writes("alpha")),
        "boom": _case("boom", _raises(KeyError("lost-shard"))),
        "contract": _case("contract", _raises(AssertionError("parity broke"))),
        "bare": _case("bare", _bare_assert),
        "omega": _case("omega", _writes("omega")),
    }
    monkeypatch.setattr(run_mod, "REGISTRY", registry)
    return registry


def run_cli(tmp_path, *argv: str) -> int:
    return run_mod.main(["--out-dir", str(tmp_path / "results"), *argv])


class TestSelection:
    def test_no_selection_is_a_usage_error(self, fake_registry, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli(tmp_path)
        assert exc.value.code == 2

    def test_case_plus_all_is_a_usage_error(self, fake_registry, tmp_path, capsys):
        # Regression: this combination used to silently ignore --all and
        # run only the --case selection.
        with pytest.raises(SystemExit) as exc:
            run_cli(tmp_path, "--case", "alpha", "--all")
        assert exc.value.code == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_all_runs_every_registered_case(self, fake_registry, tmp_path, capsys):
        assert run_cli(tmp_path, "--all") == 1  # bare + boom + contract fail
        results = tmp_path / "results"
        assert (results / "alpha.txt").exists()
        assert (results / "omega.txt").exists()
        assert "3 case(s) failed: bare, boom, contract" in capsys.readouterr().err

    def test_list_exits_zero(self, fake_registry, tmp_path, capsys):
        assert run_mod.main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "alpha" in out and "omega" in out


class TestFailureIsolation:
    def test_non_assertion_error_does_not_stop_the_run(
        self, fake_registry, tmp_path, capsys
    ):
        # Regression: a KeyError from one case used to abort the whole
        # runner, skipping every remaining selected case.
        code = run_cli(
            tmp_path, "--case", "alpha", "--case", "boom", "--case", "omega"
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "boom: ERROR — KeyError" in err
        assert "Traceback" in err and "lost-shard" in err
        assert "1 case(s) failed: boom" in err
        results = tmp_path / "results"
        assert (results / "alpha.txt").exists()
        assert (results / "omega.txt").exists()

    def test_assertion_failure_still_reported_without_traceback(
        self, fake_registry, tmp_path, capsys
    ):
        code = run_cli(tmp_path, "--case", "contract", "--case", "omega")
        assert code == 1
        err = capsys.readouterr().err
        assert "contract: FAILED — parity broke" in err
        assert "Traceback" not in err
        assert (tmp_path / "results" / "omega.txt").exists()

    def test_bare_assert_names_the_failing_check(self, fake_registry, tmp_path, capsys):
        # Regression: a bare ``assert`` printed "bare: FAILED — " and nothing
        # after the dash.
        code = run_cli(tmp_path, "--case", "bare", "--case", "omega")
        assert code == 1
        err = capsys.readouterr().err
        assert f"bare: FAILED — at {__file__}:" in err
        assert err.splitlines()[0].endswith(": raise AssertionError")
        assert "Traceback" not in err
        assert (tmp_path / "results" / "omega.txt").exists()

    def test_all_green_exits_zero(self, fake_registry, tmp_path, capsys):
        assert run_cli(tmp_path, "--case", "alpha", "--case", "omega") == 0
        out = capsys.readouterr().out
        assert "alpha: OK" in out and "omega: OK" in out
