"""The column-native §5 fusers against their dict implementations.

``tests/oracle/extensions.py`` holds the four fusers as they were — a
private dict round loop each, verbatim.  The array steps reorder float
sums (``np.bincount`` / ``np.add.reduceat`` in column order against the
oracles' dict and ``set`` iteration), so the contract is the repo's
``tolerance`` one: every probability, accuracy and learned factor within
1e-9 absolute, and ``rounds`` / ``converged`` identical.  Measured drift is
~1e-13 at ``small``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.extract.records import ExtractionRecord
from repro.fusion import FusionConfig, FusionInput
from repro.fusion import extensions as ours
from repro.fusion.base import PARITY_TOLERANCE_ABS
from repro.kb.hierarchy import ValueHierarchy
from repro.kb.schema import EntityType, Predicate, Schema, ValueKind
from repro.kb.triples import Triple
from repro.kb.values import EntityRef, StringValue
from tests.oracle import extensions as oracle

FLAT = "t/t/label"
PLACE = "t/t/place"

SCHEMA = Schema()
SCHEMA.add_type(EntityType("t/t"))
SCHEMA.add_predicate(Predicate(FLAT, "t/t", ValueKind.STRING))
SCHEMA.add_predicate(
    Predicate(PLACE, "t/t", ValueKind.ENTITY, object_type_id="t/t", hierarchical=True)
)

#: country > state > county > {city, town}, plus a place outside the chain.
HIERARCHY = ValueHierarchy()
for child, parent in (
    ("/m/state", "/m/country"),
    ("/m/county", "/m/state"),
    ("/m/city", "/m/county"),
    ("/m/town", "/m/county"),
):
    HIERARCHY.add_edge(child, parent)
PLACES = ["/m/country", "/m/state", "/m/county", "/m/city", "/m/town", "/m/elsewhere"]


def _pairs(world_schema, world_hierarchy, config):
    """``(ours, oracle)`` per fuser, configured alike."""
    return [
        (ours.SplitQualityFuser(config), oracle.SplitQualityFuser(config)),
        (ours.MultiTruthFuser(config), oracle.MultiTruthFuser(config)),
        (
            ours.HierarchicalFuser(world_schema, world_hierarchy, config),
            oracle.HierarchicalFuser(world_schema, world_hierarchy, config),
        ),
        (ours.ConfidenceWeightedFuser(config), oracle.ConfidenceWeightedFuser(config)),
    ]


def assert_within_tolerance(got, want) -> None:
    def close(value):
        return pytest.approx(value, abs=PARITY_TOLERANCE_ABS)

    assert got.method == want.method
    assert (got.rounds, got.converged) == (want.rounds, want.converged)
    assert got.probabilities == close(want.probabilities)
    assert got.unpredicted == want.unpredicted == set()
    assert got.accuracies == close(want.accuracies)
    assert got.diagnostics.keys() == want.diagnostics.keys()
    for key, value in want.diagnostics.items():
        if isinstance(value, dict):  # extractor_quality / site_accuracy / functionality
            assert got.diagnostics[key] == close(value), key
        else:
            assert got.diagnostics[key] == value, key


@pytest.mark.parametrize("max_rounds", [1, 3, 5])
def test_tiny_scenario(tiny_scenario, max_rounds):
    world = tiny_scenario.world
    config = FusionConfig(max_rounds=max_rounds)
    for column_fuser, dict_fuser in _pairs(world.schema, world.hierarchy, config):
        assert_within_tolerance(
            column_fuser.fuse(FusionInput(tiny_scenario.records)),
            dict_fuser.fuse(FusionInput(tiny_scenario.records)),
        )


def _record(subject, predicate, obj, extractor, site, page, confidence):
    return ExtractionRecord(
        triple=Triple(subject, predicate, obj),
        extractor=extractor,
        url=f"http://{site}/{page}",
        site=site,
        content_type="TXT",
        confidence=confidence,
    )


_flat = st.tuples(
    st.just(FLAT), st.builds(StringValue, st.sampled_from(["v0", "v1", "v2"]))
)
_place = st.tuples(st.just(PLACE), st.builds(EntityRef, st.sampled_from(PLACES)))

#: Few subjects, extractors and sites so items collect rival values and
#: provenances repeat; confidences are missing on some records and tie on
#: others; many items end up with a single provenance.
records_strategy = st.lists(
    st.builds(
        lambda subject, value, extractor, site, page, confidence: _record(
            subject, *value, extractor, site, page, confidence
        ),
        st.sampled_from(["/m/a", "/m/b", "/m/c", "/m/d"]),
        st.one_of(_flat, _place),
        st.sampled_from(["E1", "E2", "E3"]),
        st.sampled_from(["s1.org", "s2.org", "s3.org"]),
        st.sampled_from(["p", "q"]),
        st.one_of(st.none(), st.sampled_from([0.0, 0.2, 0.5, 0.5, 0.9, 1.0])),
    ),
    max_size=40,
)


@given(records_strategy, st.integers(min_value=1, max_value=4))
@settings(max_examples=100, deadline=None)
def test_drawn_records(records, max_rounds):
    config = FusionConfig(max_rounds=max_rounds)
    for column_fuser, dict_fuser in _pairs(SCHEMA, HIERARCHY, config):
        assert_within_tolerance(
            column_fuser.fuse(FusionInput(records)),
            dict_fuser.fuse(FusionInput(records)),
        )
