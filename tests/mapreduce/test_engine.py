"""Unit tests for the keyed MapReduce engine of the fusion reference oracle."""

import pytest

from repro.errors import FusionError
from tests.oracle.engine import MapReduceEngine, MapReduceJob


def word_count_job(sample_limit=None):
    return MapReduceJob(
        name="wordcount",
        mapper=lambda text: [(word, 1) for word in text.split()],
        reducer=lambda word, ones: [(word, sum(ones))],
        sample_limit=sample_limit,
    )


class TestBasics:
    def test_word_count(self):
        engine = MapReduceEngine()
        out = dict(engine.run(["a b a", "b c"], word_count_job()))
        assert out == {"a": 2, "b": 2, "c": 1}

    def test_empty_input(self):
        assert MapReduceEngine().run([], word_count_job()) == []

    def test_mapper_can_emit_nothing(self):
        job = MapReduceJob(
            name="drop", mapper=lambda _r: [], reducer=lambda k, v: [(k, v)]
        )
        assert MapReduceEngine().run([1, 2, 3], job) == []

    def test_reducer_can_emit_many(self):
        job = MapReduceJob(
            name="fan",
            mapper=lambda r: [("k", r)],
            reducer=lambda k, values: [(k, v) for v in values],
        )
        assert MapReduceEngine().run([1, 2], job) == [("k", 1), ("k", 2)]

    def test_keys_reduced_in_sorted_order(self):
        engine = MapReduceEngine()
        seen = []
        job = MapReduceJob(
            name="order",
            mapper=lambda r: [(r, r)],
            reducer=lambda k, v: seen.append(k) or [],
        )
        engine.run(["c", "a", "b"], job)
        assert seen == ["a", "b", "c"]

    def test_output_independent_of_input_order(self):
        engine = MapReduceEngine()
        a = engine.run(["a b a", "b c"], word_count_job())
        b = engine.run(["b c", "a b a"], word_count_job())
        assert a == b


class TestSampling:
    def test_no_sampling_below_limit(self):
        engine = MapReduceEngine()
        out = dict(engine.run(["a a a"], word_count_job(sample_limit=5)))
        assert out == {"a": 3}

    def test_sampling_caps_reducer_input(self):
        engine = MapReduceEngine()
        out = dict(engine.run(["a " * 100], word_count_job(sample_limit=10)))
        assert out == {"a": 10}

    def test_sampling_deterministic(self):
        engine = MapReduceEngine()
        job = MapReduceJob(
            name="pick",
            mapper=lambda r: [("k", r)],
            reducer=lambda k, values: [tuple(values)],
            sample_limit=3,
            seed=42,
        )
        data = list(range(100))
        assert engine.run(data, job) == engine.run(data, job)

    def test_sampling_differs_by_seed(self):
        data = list(range(1000))

        def run_with(seed):
            job = MapReduceJob(
                name="pick",
                mapper=lambda r: [("k", r)],
                reducer=lambda k, values: [tuple(values)],
                sample_limit=5,
                seed=seed,
            )
            return MapReduceEngine().run(data, job)

        assert run_with(1) != run_with(2)

    def test_invalid_sample_limit_rejected(self):
        with pytest.raises(FusionError):
            word_count_job(sample_limit=0)
