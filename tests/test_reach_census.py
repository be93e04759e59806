"""The reachability and value census (``tools/reach_census.py``) on a
fixture package.

The fixture package has no real entry points: each test hands the census a
``run`` callable that imports the fixture and calls into it, once in this
process and once in a forked child.  The full census (every ``repro-kf``
subcommand, the reproduction runner, the examples and kfbench, about one
minute on 2 vCPUs) is CI's ``static-analysis`` lane; here only its
committed allow-list is checked, statically.
"""

from __future__ import annotations

import importlib
import importlib.util
import json
import os
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load_census():
    spec = importlib.util.spec_from_file_location(
        "reach_census", REPO_ROOT / "tools" / "reach_census.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("reach_census", module)
    spec.loader.exec_module(module)
    return module


census = _load_census()

FIXTURE = '''
import functools
import os
from dataclasses import dataclass, field


def called():
    return inner_user()


def inner_user():
    def nested():
        return 1

    return nested()


def uncalled(depth=2):
    def nested_in_uncalled():
        return 2

    return nested_in_uncalled()


def _decorate(fn):
    @functools.wraps(fn)
    def wrapper(*args):
        return fn(*args)

    return wrapper


@_decorate
def decorated_called():
    return 3


@_decorate
def decorated_uncalled():
    return 4


class Box:
    def method(self):
        return 5

    def unused_method(self):
        return 6


def forked_only():
    return 7


@dataclass(frozen=True)
class FixtureConfig:
    size: int = 3
    rate: float = 0.5
    mix: dict = field(default_factory=lambda: {"a": 1})
    label: str = "x"
    derived: int = field(default=0, init=False)


@dataclass(frozen=True)
class Point:  # not a *Config: its fields are no knobs
    x: float = 0.0


def scaled(value, factor=2.0, offset=1, *, flag=True, name="s"):
    return value * factor + offset


def counter(n=4):
    n = n + 1  # a resumed generator holds this, not what the caller passed
    yield n
    yield n


def run():
    called()
    decorated_called()
    Box().method()
    FixtureConfig(size=5)
    FixtureConfig(rate=0.5)  # the default, spelled out
    Point(x=1.0)
    scaled(1.0)
    scaled(1.0, offset=3)
    list(counter())
    pid = os.fork()
    if pid == 0:
        try:
            forked_only()
            FixtureConfig(mix={"b": 2})
        finally:
            os._exit(0)
    os.waitpid(pid, 0)
'''

UNREACHED = {
    "reachfixture.mod:uncalled",
    "reachfixture.mod:decorated_uncalled",
    "reachfixture.mod:Box.unused_method",
}

KNOBS = {
    "reachfixture.mod:uncalled:depth",
    "reachfixture.mod:FixtureConfig:size",
    "reachfixture.mod:FixtureConfig:rate",
    "reachfixture.mod:FixtureConfig:mix",
    "reachfixture.mod:FixtureConfig:label",
    "reachfixture.mod:scaled:factor",
    "reachfixture.mod:scaled:offset",
    "reachfixture.mod:counter:n",
}

NEVER_VARIED = {
    "reachfixture.mod:FixtureConfig:rate",
    "reachfixture.mod:FixtureConfig:label",
    "reachfixture.mod:scaled:factor",
    "reachfixture.mod:counter:n",
}

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


@pytest.fixture(scope="module")
def src(tmp_path_factory):
    root = tmp_path_factory.mktemp("src")
    package = root / "reachfixture"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(textwrap.dedent(FIXTURE))
    sys.path.insert(0, str(root))
    yield root
    sys.path.remove(str(root))
    for name in [m for m in sys.modules if m.startswith("reachfixture")]:
        del sys.modules[name]


def _run():
    # A fresh import each time: the decorator runs at import, under the hook.
    sys.modules.pop("reachfixture.mod", None)
    importlib.import_module("reachfixture.mod").run()


@pytest.fixture(scope="module")
def report(src):
    reached = census.trace(src / "reachfixture", _run).reached
    missed = census.never_entered(census.functions(src, "reachfixture"), reached)
    return {f.key for f in missed}, census.outermost(missed)


@pytest.fixture(scope="module")
def values(src):
    _found, knobs = census.parse(src, "reachfixture")
    recorder = census.trace(src / "reachfixture", _run, knobs)
    return knobs, recorder, {k.key for k in census.never_varied(knobs, recorder)}


def _keys(functions):
    return {f.key for f in functions}


class TestReach:
    def test_called_is_reached_and_uncalled_is_reported(self, report):
        missed, outermost = report
        assert _keys(outermost) == UNREACHED
        assert "reachfixture.mod:called" not in missed
        assert "reachfixture.mod:inner_user.<locals>.nested" not in missed

    def test_nested_under_an_unreached_function_is_not_reported(self, report):
        missed, outermost = report
        nested = "reachfixture.mod:uncalled.<locals>.nested_in_uncalled"
        assert nested in missed  # never entered, like its parent...
        assert nested not in _keys(outermost)  # ...but only the parent is reported

    def test_decorated_function_is_keyed_by_its_own_name(self, report):
        missed, outermost = report
        assert "reachfixture.mod:decorated_called" not in missed
        (decorated,) = [f for f in outermost if f.key.endswith(":decorated_uncalled")]
        assert decorated.size == 3  # decorator line, def line, body
        assert not any("wrapper" in key for key in missed)

    def test_function_entered_only_in_a_forked_child_is_reached(self, report):
        missed, _outermost = report
        assert "reachfixture.mod:forked_only" not in missed


class TestValues:
    def test_knobs_are_config_fields_and_number_defaults(self, values):
        knobs, _recorder, _fixed = values
        assert {k.key for k in knobs} == KNOBS

    def test_never_varied_knob_is_reported(self, values):
        _knobs, _recorder, fixed = values
        assert fixed == NEVER_VARIED

    def test_varied_knob_is_not_reported(self, values):
        _knobs, recorder, fixed = values
        assert "reachfixture.mod:FixtureConfig:size" not in fixed
        assert "reachfixture.mod:scaled:offset" not in fixed
        assert recorder.values["reachfixture.mod:FixtureConfig:size"] == {3, 5}
        assert recorder.values["reachfixture.mod:scaled:offset"] == {1, 3}

    def test_knob_varied_only_in_a_forked_child_is_varied(self, values):
        _knobs, recorder, fixed = values
        assert "reachfixture.mod:FixtureConfig:mix" not in fixed
        assert "reachfixture.mod:FixtureConfig:mix" in recorder.varied

    def test_a_resumed_generator_does_not_vary_its_parameter(self, values):
        _knobs, recorder, _fixed = values
        assert recorder.values["reachfixture.mod:counter:n"] == {4}

    def test_knob_of_an_unreached_function_is_left_to_the_function_census(self, values):
        _knobs, _recorder, fixed = values
        assert "reachfixture.mod:uncalled:depth" not in fixed


@pytest.mark.parametrize(
    ("value", "default", "same"),
    [
        pytest.param(1.0, 1, True, id="float-equals-int"),
        pytest.param(True, 1, False, id="bool-is-not-int"),
        pytest.param(None, 1024, False, id="none"),
        pytest.param(np.arange(3), 3, False, id="array"),
        pytest.param(np.float64(0.5), 0.5, True, id="numpy-scalar"),
    ],
)
def test_default_comparison(value, default, same):
    assert census._is_default(value, default) is same


class TestAllowList:
    def _census(self, src, tmp_path, allow: dict) -> int:
        allow_list = tmp_path / "allow.json"
        allow_list.write_text(json.dumps(allow))
        return census.census(src, "reachfixture", _run, allow_list)

    def test_exact_allow_list_passes(self, src, tmp_path, capsys):
        allow = {key: "safety: fixture" for key in UNREACHED | NEVER_VARIED}
        assert self._census(src, tmp_path, allow) == 0
        out = capsys.readouterr().out
        assert f"knobs: {len(KNOBS)}, never varied: 4, allow-listed: 4" in out

    @pytest.mark.parametrize(
        "change",
        [
            pytest.param({"reachfixture.mod:called": "safety: fixture"}, id="reached-entry"),
            pytest.param({"reachfixture.mod:gone": "safety: fixture"}, id="missing-entry"),
            pytest.param(
                {"reachfixture.mod:uncalled.<locals>.nested_in_uncalled": "safety: fixture"},
                id="nested-entry",
            ),
            pytest.param({"reachfixture.mod:uncalled": "convenience"}, id="bad-reason"),
            pytest.param({"reachfixture.mod:uncalled": None}, id="unlisted"),
            pytest.param({"reachfixture.mod:scaled:factor": None}, id="unlisted-knob"),
            pytest.param(
                {"reachfixture.mod:scaled:offset": "safety: fixture"}, id="varied-knob-entry"
            ),
            pytest.param(
                {"reachfixture.mod:scaled:gone": "safety: fixture"}, id="missing-knob-entry"
            ),
            pytest.param(
                {"reachfixture.mod:uncalled:depth": "safety: fixture"},
                id="unreached-knob-entry",
            ),
            pytest.param(
                {"reachfixture.mod:scaled:factor": "convenience"}, id="bad-knob-reason"
            ),
        ],
    )
    def test_stale_or_unlisted_entries_fail(self, src, tmp_path, change, capsys):
        allow = {key: "safety: fixture" for key in UNREACHED | NEVER_VARIED}
        allow.update(change)
        allow = {key: reason for key, reason in allow.items() if reason is not None}
        assert self._census(src, tmp_path, allow) == 1
        assert "reach census: 1 problem(s)" in capsys.readouterr().out


def test_committed_allow_list_names_live_functions_with_a_known_reason():
    """The static half of the census: every entry names a ``def`` or a
    knob that still exists and gives one of the allowed reasons."""
    allow = json.loads(census.ALLOW_LIST.read_text())
    found, knobs = census.parse(REPO_ROOT / "src", "repro")
    keys = {f.key for f in found} | {k.key for k in knobs}
    assert set(allow) <= keys
    reasons = tuple(f"{reason}: " for reason in census.REASONS)
    assert all(reason.startswith(reasons) for reason in allow.values())
