"""Good/bad fixture pairs for every DET rule.

Each rule must (a) fire on its bad fixture and (b) stay silent on the
good twin — the twin is always the bad snippet written the contract-
compliant way, so the pair documents the repair as well as the defect.
Fixtures are virtual files: paths are chosen to land inside each rule's
real scope (``KERNEL_MODULES`` / ``PAYLOAD_MODULES`` / ``src/repro``).
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from repro.analysis.lint import lint_sources
from repro.analysis.rules import (
    ALL_RULES,
    DET001,
    DET002,
    DET003,
    DET004,
    DET005,
    DET006,
)
from repro.analysis.rules.common import KERNEL_MODULES, PAYLOAD_MODULES

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Any path inside src/repro works for the repo-wide rules.
ANY_PATH = "src/repro/somewhere.py"
KERNEL_PATH = KERNEL_MODULES[0]
PAYLOAD_PATH = PAYLOAD_MODULES[0]


def _rules_fired(files, rule):
    result = lint_sources(files, rules=[rule])
    return [f.rule for f in result.findings]


def test_registry_covers_all_six_rules():
    assert [rule.id for rule in ALL_RULES] == [
        "DET001",
        "DET002",
        "DET003",
        "DET004",
        "DET005",
        "DET006",
    ]


def test_kernel_modules_exist():
    missing = [path for path in KERNEL_MODULES if not (REPO_ROOT / path).is_file()]
    assert missing == []


class TestDET001Rng:
    def test_bad_stdlib_random_import(self):
        assert _rules_fired({ANY_PATH: "import random\n"}, DET001) == ["DET001"]

    def test_bad_from_random_import(self):
        assert _rules_fired(
            {ANY_PATH: "from random import shuffle\n"}, DET001
        ) == ["DET001"]

    def test_bad_legacy_numpy_global_rng(self):
        snippet = "import numpy as np\nx = np.random.shuffle(values)\n"
        assert _rules_fired({ANY_PATH: snippet}, DET001) == ["DET001"]

    def test_bad_unseeded_default_rng(self):
        snippet = "import numpy as np\nrng = np.random.default_rng()\n"
        assert _rules_fired({ANY_PATH: snippet}, DET001) == ["DET001"]

    def test_bad_os_urandom(self):
        snippet = "import os\ntoken = os.urandom(8)\n"
        assert _rules_fired({ANY_PATH: snippet}, DET001) == ["DET001"]

    def test_good_seeded_named_stream(self):
        snippet = (
            "import numpy as np\n"
            "from repro.rng import split_seed\n"
            "rng = np.random.default_rng(split_seed(seed, 'extract', url))\n"
        )
        assert _rules_fired({ANY_PATH: snippet}, DET001) == []

    def test_outside_src_repro_is_ignored(self):
        assert _rules_fired({"benchmarks/kfbench/rep.py": "import random\n"}, DET001) == []


class TestDET002Order:
    def test_bad_loop_over_set_accumulating(self):
        snippet = (
            "def reduce_(provs: set[str]) -> float:\n"
            "    total = 0.0\n"
            "    for prov in provs:\n"
            "        total += score(prov)\n"
            "    return total\n"
        )
        assert _rules_fired({KERNEL_PATH: snippet}, DET002) == ["DET002"]

    def test_good_sorted_loop(self):
        snippet = (
            "def reduce_(provs: set[str]) -> float:\n"
            "    total = 0.0\n"
            "    for prov in sorted(provs):\n"
            "        total += score(prov)\n"
            "    return total\n"
        )
        assert _rules_fired({KERNEL_PATH: snippet}, DET002) == []

    def test_bad_comprehension_over_set(self):
        snippet = "seen = {1, 2}\nordered = [x * 2 for x in seen]\n"
        assert _rules_fired({KERNEL_PATH: snippet}, DET002) == ["DET002"]

    def test_bad_sum_of_set(self):
        snippet = "values: set[float] = load()\ntotal = sum(values)\n"
        assert _rules_fired({KERNEL_PATH: snippet}, DET002) == ["DET002"]

    def test_good_order_insensitive_sinks(self):
        snippet = (
            "values: set[float] = load()\n"
            "n = len(values)\n"
            "top = max(values)\n"
            "ok = any(v > 0 for v in values)\n"
            "canon = sorted(values)\n"
        )
        assert _rules_fired({KERNEL_PATH: snippet}, DET002) == []

    def test_good_building_a_set_is_order_free(self):
        snippet = (
            "def collect(provs: set[str]) -> set[str]:\n"
            "    out = set()\n"
            "    for prov in provs:\n"
            "        out.add(prov)\n"
            "    return out\n"
        )
        assert _rules_fired({KERNEL_PATH: snippet}, DET002) == []

    def test_bad_dict_of_set_subscript(self):
        snippet = (
            "def fold(claims: dict[str, set[str]], key: str) -> list[str]:\n"
            "    return [p for p in claims[key]]\n"
        )
        assert _rules_fired({KERNEL_PATH: snippet}, DET002) == ["DET002"]

    def test_iteration_outside_kernel_modules_is_ignored(self):
        snippet = "seen = {1, 2}\nordered = [x for x in seen]\n"
        assert _rules_fired({ANY_PATH: snippet}, DET002) == []

    def test_bad_builtin_hash(self):
        snippet = "def shard(key):\n    return hash(key) % 4\n"
        assert _rules_fired({ANY_PATH: snippet}, DET002) == ["DET002"]

    def test_bad_hash_in_executors_has_no_exemption(self):
        """The executors shard by position: no function anywhere may call
        ``hash()``, not even one named like the old sharding helper."""
        snippet = "def shard_for_key(key):\n    return hash(key) % 4\n"
        assert _rules_fired(
            {"src/repro/mapreduce/executors.py": snippet}, DET002
        ) == ["DET002"]


class TestDET003Payload:
    def test_bad_ndarray_field(self):
        snippet = (
            "import numpy as np\n"
            "from dataclasses import dataclass\n"
            "@dataclass(frozen=True)\n"
            "class Stage1Shard:\n"
            "    accuracies: np.ndarray\n"
        )
        assert _rules_fired({PAYLOAD_PATH: snippet}, DET003) == ["DET003"]

    def test_bad_domain_object_field(self):
        snippet = (
            "from dataclasses import dataclass\n"
            "from repro.kb.triples import Triple\n"
            "@dataclass(frozen=True)\n"
            "class ExtractShard:\n"
            "    triples: tuple[Triple, ...]\n"
        )
        assert _rules_fired({PAYLOAD_PATH: snippet}, DET003) == ["DET003"]

    def test_good_ids_and_handle_fields(self):
        snippet = (
            "from dataclasses import dataclass\n"
            "from typing import Callable\n"
            "from repro.mapreduce.executors import RoundStateHandle\n"
            "@dataclass(frozen=True)\n"
            "class Stage1Shard:\n"
            "    name: str\n"
            "    item_ids: tuple[int, ...]\n"
            "    seed: int\n"
            "    sample_limit: int | None\n"
            "    kernel: Callable\n"
            "    state: RoundStateHandle\n"
        )
        assert _rules_fired({PAYLOAD_PATH: snippet}, DET003) == []

    def test_bad_column_handle_field(self):
        # No shard payload carries a ColumnHandle; mapped columns stay in
        # the parent and cross as round-state CSR slices.
        snippet = (
            "from dataclasses import dataclass\n"
            "from repro.artifacts import ColumnHandle\n"
            "@dataclass(frozen=True)\n"
            "class Stage1Shard:\n"
            "    columns: ColumnHandle\n"
        )
        assert _rules_fired({PAYLOAD_PATH: snippet}, DET003) == ["DET003"]

    def test_payload_modules_each_define_a_shard_dataclass(self):
        for path in PAYLOAD_MODULES:
            tree = ast.parse((REPO_ROOT / path).read_text())
            shards = [
                node.name
                for node in ast.walk(tree)
                if isinstance(node, ast.ClassDef) and node.name.endswith("Shard")
            ]
            assert shards, f"{path} defines no *Shard class for DET003 to audit"

    def test_non_shard_classes_are_ignored(self):
        snippet = (
            "import numpy as np\n"
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class RoundBuffers:\n"
            "    accuracies: np.ndarray\n"
        )
        assert _rules_fired({PAYLOAD_PATH: snippet}, DET003) == []

    def test_outside_payload_modules_is_ignored(self):
        snippet = (
            "import numpy as np\n"
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class LocalShard:\n"
            "    buffer: np.ndarray\n"
        )
        assert _rules_fired({ANY_PATH: snippet}, DET003) == []


class TestDET004Shm:
    def test_bad_unpaired_install_state(self):
        snippet = "def setup(executor, cols):\n    executor.install_state(KEY, cols)\n"
        assert _rules_fired({ANY_PATH: snippet}, DET004) == ["DET004"]

    def test_good_paired_install_uninstall(self):
        snippet = (
            "def setup(executor, cols):\n"
            "    executor.install_state(KEY, cols)\n"
            "def teardown(executor):\n"
            "    executor.uninstall_state(KEY)\n"
        )
        assert _rules_fired({ANY_PATH: snippet}, DET004) == []

    def test_bad_round_state_key_mismatch(self):
        snippet = (
            "def setup(executor, buffers):\n"
            "    executor.install_round_state(ROUND_KEY, buffers)\n"
            "def teardown(executor):\n"
            "    executor.uninstall_round_state(OTHER_KEY)\n"
        )
        assert _rules_fired({ANY_PATH: snippet}, DET004) == ["DET004"]

    def test_bad_shared_memory_without_unlink(self):
        snippet = (
            "from multiprocessing import shared_memory\n"
            "def publish(size):\n"
            "    return shared_memory.SharedMemory(create=True, size=size)\n"
        )
        assert _rules_fired({ANY_PATH: snippet}, DET004) == ["DET004"]

    def test_good_shared_memory_with_unlink(self):
        snippet = (
            "from multiprocessing import shared_memory\n"
            "def publish(size):\n"
            "    segment = shared_memory.SharedMemory(create=True, size=size)\n"
            "    return segment\n"
            "def release(segment):\n"
            "    segment.close()\n"
            "    segment.unlink()\n"
        )
        assert _rules_fired({ANY_PATH: snippet}, DET004) == []

    def test_attaching_existing_segment_is_fine(self):
        snippet = (
            "from multiprocessing import shared_memory\n"
            "def attach(name):\n"
            "    return shared_memory.SharedMemory(name=name)\n"
        )
        assert _rules_fired({ANY_PATH: snippet}, DET004) == []


class TestDET005Clock:
    def test_bad_wall_clock_read(self):
        snippet = "import time\nstamp = time.time()\n"
        assert _rules_fired({KERNEL_PATH: snippet}, DET005) == ["DET005"]

    def test_bad_datetime_now(self):
        snippet = "import datetime\nstamp = datetime.datetime.now()\n"
        assert _rules_fired({KERNEL_PATH: snippet}, DET005) == ["DET005"]

    def test_bad_environ_read(self):
        snippet = "import os\nmode = os.environ['REPRO_MODE']\n"
        assert _rules_fired({KERNEL_PATH: snippet}, DET005) == ["DET005"]

    def test_bad_from_import(self):
        snippet = "from time import perf_counter\n"
        assert _rules_fired({KERNEL_PATH: snippet}, DET005) == ["DET005"]

    def test_good_pure_kernel(self):
        snippet = (
            "import numpy as np\n"
            "def kernel(values: np.ndarray) -> np.ndarray:\n"
            "    return np.cumsum(values)\n"
        )
        assert _rules_fired({KERNEL_PATH: snippet}, DET005) == []

    def test_timing_outside_kernel_modules_is_fine(self):
        # Benchmarks and the CLI layer time things; that is their job.
        snippet = "import time\nstart = time.perf_counter()\n"
        assert _rules_fired({ANY_PATH: snippet}, DET005) == []


TABLE_OK = (
    "EXECUTION_MODES = {\n"
    "    'serial': ExecutionPlan(pooled=False, batched=False),\n"
    "    'hybrid': ExecutionPlan(pooled=True, batched=True),\n"
    "}\n"
)


class TestDET006Contracts:
    TABLE = "src/repro/mapreduce/executors.py"

    def _fired(self, source):
        return _rules_fired({self.TABLE: source}, DET006)

    def test_good_literal_table(self):
        assert self._fired(TABLE_OK) == []

    def test_bad_missing_table(self):
        assert self._fired("OTHER = {}\n") == ["DET006"]

    def test_bad_non_literal_table(self):
        assert self._fired(
            "EXECUTION_MODES = {name: plan_for(name) for name in NAMES}\n"
        ) == ["DET006"]

    def test_bad_non_literal_key(self):
        assert self._fired(
            TABLE_OK.replace("'hybrid':", "HYBRID:")
        ) == ["DET006"]

    def test_bad_duplicate_key(self):
        assert self._fired(
            TABLE_OK.replace("'hybrid':", "'serial':")
        ) == ["DET006"]

    def test_bad_computed_field(self):
        assert self._fired(
            TABLE_OK.replace("pooled=True", "pooled=HAS_CORES")
        ) == ["DET006"]

    def test_bad_positional_fields(self):
        # (True, True) does not say which axis is which; keywords do.
        assert self._fired(
            TABLE_OK.replace(
                "ExecutionPlan(pooled=True, batched=True)",
                "ExecutionPlan(True, True)",
            )
        ) == ["DET006"]

    def test_bad_value_is_not_a_plan(self):
        assert self._fired(
            TABLE_OK.replace(
                "ExecutionPlan(pooled=True, batched=True)", "'parallel'"
            )
        ) == ["DET006"]

    def test_absent_table_module_is_silent(self):
        # Fixture sets without executors.py have no contract surface to check.
        assert _rules_fired({ANY_PATH: "x = 1\n"}, DET006) == []


PRAGMA = "  # det: ignore[{rule}] -- a well-formed reason"

#: One violating fixture per rule, from the classes above, with the line
#: each rule reports it on.
VIOLATIONS = [
    (DET001, ANY_PATH, "import random\n", 1),
    (DET002, ANY_PATH, "def shard(key):\n    return hash(key) % 4\n", 2),
    (
        DET003,
        PAYLOAD_PATH,
        "import numpy as np\n"
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class Stage1Shard:\n"
        "    accuracies: np.ndarray\n",
        5,
    ),
    (
        DET004,
        ANY_PATH,
        "def setup(executor, cols):\n    executor.install_state(KEY, cols)\n",
        2,
    ),
    (DET005, KERNEL_PATH, "import time\nstamp = time.time()\n", 2),
    (
        DET006,
        TestDET006Contracts.TABLE,
        TABLE_OK.replace("pooled=True", "pooled=HAS_CORES"),
        3,
    ),
]


@pytest.mark.parametrize(
    "rule, path, snippet, line", VIOLATIONS, ids=[rule.id for rule, *_ in VIOLATIONS]
)
def test_ignore_comment_does_not_suppress(rule, path, snippet, line):
    """There is no suppression: a pragma-shaped comment on the reported
    line is an ordinary comment, and the finding still fails the run."""
    lines = snippet.splitlines()
    lines[line - 1] += PRAGMA.format(rule=rule.id)
    result = lint_sources({path: "\n".join(lines) + "\n"}, rules=[rule])
    assert [(f.rule, f.line) for f in result.findings] == [(rule.id, line)]
