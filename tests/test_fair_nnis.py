"""Tests for the Section 4 r-NNIS data structure (independent fair sampling)."""

import numpy as np
import pytest

from repro.core import IndependentFairSampler
from repro.exceptions import InvalidParameterError, NotFittedError
from repro.fairness.metrics import total_variation_from_uniform
from repro.lsh import MinHashFamily
from repro.sketches import BottomTSketch


def make_sampler(dataset, radius=0.5, seed=0, num_tables=60, **kwargs):
    return IndependentFairSampler(
        MinHashFamily(),
        radius=radius,
        far_radius=0.05,
        num_hashes=1,
        num_tables=num_tables,
        seed=seed,
        **kwargs,
    ).fit(dataset)


class TestCorrectness:
    def test_returns_near_point(self, planted_sets):
        sampler = make_sampler(planted_sets["dataset"])
        assert sampler.sample(planted_sets["query"]) in planted_sets["near_indices"]

    def test_returns_none_without_neighbors(self):
        dataset = [frozenset({400 + i}) for i in range(6)]
        sampler = make_sampler(dataset)
        assert sampler.sample(frozenset({1, 2})) is None

    def test_not_fitted_raises(self):
        sampler = IndependentFairSampler(MinHashFamily(), radius=0.4, num_hashes=1, num_tables=4)
        with pytest.raises(NotFittedError):
            sampler.sample(frozenset({1}))

    def test_invalid_constants_rejected(self):
        with pytest.raises(InvalidParameterError):
            IndependentFairSampler(MinHashFamily(), radius=0.4, lambda_factor=0.0)
        with pytest.raises(InvalidParameterError):
            IndependentFairSampler(MinHashFamily(), radius=0.4, max_rounds=0)

    def test_colliding_count_estimate_reasonable(self, planted_sets):
        sampler = make_sampler(planted_sets["dataset"], seed=1)
        estimate = sampler.estimate_colliding_count(planted_sets["query"])
        # The true number of colliding points is at least the neighborhood
        # size (5) and at most the dataset size; the sketch guarantees a
        # 1/2-approximation.
        true_colliding = sampler.tables.query_candidates(planted_sets["query"]).size
        assert 0.4 * true_colliding <= estimate <= 1.8 * true_colliding

    def test_estimate_zero_for_non_colliding_query(self):
        dataset = [frozenset({500 + i, 600 + i}) for i in range(5)]
        sampler = make_sampler(dataset, seed=2)
        assert sampler.estimate_colliding_count(frozenset({1, 2, 3})) == 0.0

    def test_stats_record_rounds(self, planted_sets):
        sampler = make_sampler(planted_sets["dataset"], seed=3)
        result = sampler.sample_detailed(planted_sets["query"])
        assert result.found
        assert result.stats.rounds >= 1

    def test_estimate_merges_the_colliding_buckets_sketches(self, small_set_dataset):
        """The estimate is the paper's: the merged sketches of the colliding buckets."""
        sampler = IndependentFairSampler(
            MinHashFamily(), radius=0.3, far_radius=0.1, num_hashes=1, num_tables=20, seed=4,
        ).fit(small_set_dataset)
        for query in small_set_dataset[:10]:
            sketches = [
                sampler._sketcher.sketch_keys(bucket.indices)
                for bucket in sampler.tables.query_buckets(query)
                if len(bucket)
            ]
            assert len(sketches) == sampler.tables.num_tables  # a point meets itself
            merged = BottomTSketch.merge_all(sketches).estimate()
            assert sampler.estimate_colliding_count(query) == merged


class TestUniformityAndIndependence:
    def test_repeated_query_output_is_uniform(self, planted_sets):
        """Theorem 2: repeated queries on a single structure are uniform draws."""
        sampler = make_sampler(planted_sets["dataset"], seed=5)
        counts = {i: 0 for i in planted_sets["near_indices"]}
        repetitions = 2000
        failures = 0
        for _ in range(repetitions):
            index = sampler.sample(planted_sets["query"])
            if index is None:
                failures += 1
            else:
                counts[index] += 1
        assert failures < 0.02 * repetitions
        assert total_variation_from_uniform(list(counts.values())) < 0.1
        assert min(counts.values()) > 0.4 * (repetitions - failures) / len(counts)

    def test_consecutive_outputs_look_independent(self, planted_sets):
        """The repeat probability of consecutive outputs matches 1/b(q, r)."""
        sampler = make_sampler(planted_sets["dataset"], seed=6)
        outputs = [sampler.sample(planted_sets["query"]) for _ in range(800)]
        repeats = sum(a == b for a, b in zip(outputs, outputs[1:]))
        rate = repeats / (len(outputs) - 1)
        # For 5 equally likely outcomes the repeat rate should be ~0.2.
        assert 0.1 < rate < 0.32

    def test_different_queries_are_answered(self, small_set_dataset, jaccard):
        sampler = IndependentFairSampler(
            MinHashFamily(), radius=0.2, far_radius=0.1, recall=0.95, seed=7
        ).fit(small_set_dataset)
        answered = 0
        with_neighbors = 0
        for query in small_set_dataset[:20]:
            values = jaccard.values_to_query(small_set_dataset, query)
            if np.sum(values >= 0.2) > 0:
                with_neighbors += 1
                if sampler.sample(query) is not None:
                    answered += 1
        assert answered >= 0.85 * with_neighbors

    def test_uniformity_holds_with_small_lambda(self, planted_sets):
        """Even with an aggressive (small) lambda the output stays uniform."""
        sampler = make_sampler(planted_sets["dataset"], seed=8, lambda_factor=0.5)
        counts = {i: 0 for i in planted_sets["near_indices"]}
        for _ in range(1200):
            index = sampler.sample(planted_sets["query"])
            if index is not None:
                counts[index] += 1
        assert total_variation_from_uniform(list(counts.values())) < 0.12


class TestQueryCostShape:
    def test_cost_scales_with_candidate_load_not_neighborhood(self, planted_sets):
        """The number of distance evaluations per query stays far below n."""
        sampler = make_sampler(planted_sets["dataset"], seed=9)
        result = sampler.sample_detailed(planted_sets["query"])
        assert result.stats.distance_evaluations <= len(planted_sets["dataset"])

    def test_view_cache_reused_across_repetitions(self, planted_sets):
        sampler = make_sampler(planted_sets["dataset"], seed=10)
        sampler.sample(planted_sets["query"])
        assert len(sampler._view_cache) == 1
        sampler.sample(planted_sets["query"])
        assert len(sampler._view_cache) == 1
