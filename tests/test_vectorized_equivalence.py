"""Scalar-vs-vectorized equivalence of the candidate-evaluation pipeline.

Two layers of guarantees, both required by the pipeline's contract
(``docs/performance.md``):

1. **Kernel equivalence** — for every measure, the batched
   :meth:`~repro.distances.base.Measure.values_at` kernel over a columnar
   :mod:`repro.store` matches a loop over the scalar
   :meth:`~repro.distances.base.Measure.value` to 1e-12 (and, because the
   scalar implementations share the kernels' einsum recipes, bitwise) across
   dtypes and shapes.

2. **Sampler equivalence** — every rewritten sampler, seeded identically,
   returns *byte-identical* :class:`~repro.core.result.QueryResult` objects
   (index, value, and every stats counter) whether candidates are scored
   through the vectorized kernels or through the forced scalar fallback
   (:func:`repro.core.evaluator.scalar_kernels`), including over
   :class:`~repro.engine.dynamic.DynamicLSHTables` with tombstones still
   awaiting compaction.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    ApproximateNeighborhoodSampler,
    CollectAllFairSampler,
    ExactUniformSampler,
    FilterFairSampler,
    GaussianFilterIndex,
    IndependentFairSampler,
    PermutationFairSampler,
    StandardLSHSampler,
    WeightedFairSampler,
    exponential_similarity_weight,
    scalar_kernels,
)
from repro.core.evaluator import CandidateEvaluator, vectorized_kernels_enabled
from repro.data import make_store
from repro.store import DenseStore, SetStore
from repro.distances import (
    AngularDistance,
    CosineSimilarity,
    EuclideanDistance,
    HammingDistance,
    InnerProductSimilarity,
    JaccardSimilarity,
)
from repro.engine import BatchQueryEngine
from repro.lsh import MinHashFamily

FAST = settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])

DENSE_MEASURES = [
    EuclideanDistance(),
    CosineSimilarity(),
    AngularDistance(),
    InnerProductSimilarity(),
]


def _assert_kernel_matches_scalar(measure, store, dataset, query):
    indices = np.arange(len(dataset), dtype=np.intp)
    batched = measure.values_at(store, indices, query)
    looped = np.asarray([measure.value(point, query) for point in dataset], dtype=np.float64)
    np.testing.assert_allclose(batched, looped, rtol=0.0, atol=1e-12)
    # The implementations share one arithmetic recipe, so the match is in
    # fact exact — which is what makes byte-identical sampler outputs
    # possible at all.
    assert np.array_equal(batched, looped)


class TestKernelEquivalence:
    @pytest.mark.parametrize("measure", DENSE_MEASURES, ids=lambda m: m.name)
    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64])
    @pytest.mark.parametrize("shape", [(1, 1), (7, 3), (64, 16), (200, 5)])
    def test_dense_measures(self, measure, dtype, shape):
        rng = np.random.default_rng(hash((measure.name, str(dtype), shape)) % 2**32)
        data = (10 * rng.standard_normal(shape)).astype(dtype)
        query = (10 * rng.standard_normal(shape[1])).astype(dtype)
        store = make_store(data.astype(np.float64) if dtype == np.int64 else data)
        assert isinstance(store, DenseStore)
        _assert_kernel_matches_scalar(measure, store, list(data), query)

    @pytest.mark.parametrize("shape", [(5, 4), (40, 9)])
    def test_hamming_binary(self, shape):
        rng = np.random.default_rng(3)
        data = rng.integers(0, 2, size=shape)
        query = rng.integers(0, 2, size=shape[1])
        store = make_store(data)
        assert isinstance(store, DenseStore)
        _assert_kernel_matches_scalar(HammingDistance(), store, list(data), query)

    @FAST
    @given(
        dataset=st.lists(
            st.frozensets(st.integers(0, 200), max_size=25), min_size=1, max_size=40
        ),
        query=st.frozensets(st.integers(0, 200), max_size=25),
    )
    def test_jaccard_property(self, dataset, query):
        store = make_store(dataset)
        assert isinstance(store, SetStore)
        _assert_kernel_matches_scalar(JaccardSimilarity(), store, dataset, query)

    def test_jaccard_string_sets_fall_back_to_scalar_path(self):
        """Non-integer set items have no CSR packing; scoring must not crash."""
        dataset = [frozenset({"a", "b"}), frozenset({"b", "c"}), frozenset({"d"})]
        assert make_store(dataset) is None  # no columnar form
        sampler = ExactUniformSampler(JaccardSimilarity(), radius=0.3, seed=0).fit(dataset)
        assert sampler.sample(frozenset({"a", "b"})) in (0, 1)
        np.testing.assert_allclose(
            JaccardSimilarity().values_to_query(dataset, frozenset({"b"})),
            [0.5, 0.5, 0.0],
        )
        # Integer store + non-integer query: kernel falls back per call.
        int_sets = [frozenset({1, 2}), frozenset({3})]
        store = make_store(int_sets)
        assert isinstance(store, SetStore)
        values = JaccardSimilarity().values_at(store, np.asarray([0, 1]), frozenset({"x"}))
        np.testing.assert_allclose(values, [0.0, 0.0])

    def test_jaccard_empty_rows_and_query(self):
        dataset = [frozenset(), frozenset({1, 2}), frozenset({3})]
        store = make_store(dataset)
        _assert_kernel_matches_scalar(JaccardSimilarity(), store, dataset, frozenset())
        _assert_kernel_matches_scalar(JaccardSimilarity(), store, dataset, frozenset({2, 3}))

    @FAST
    @given(
        vectors=st.lists(
            st.lists(st.floats(-20, 20, allow_nan=False, allow_infinity=False), min_size=4, max_size=4),
            min_size=1,
            max_size=25,
        ),
        query=st.lists(st.floats(-20, 20, allow_nan=False, allow_infinity=False), min_size=4, max_size=4),
    )
    def test_euclidean_property(self, vectors, query):
        data = np.asarray(vectors, dtype=np.float64)
        store = make_store(data)
        _assert_kernel_matches_scalar(EuclideanDistance(), store, list(data), np.asarray(query))

    def test_default_kernel_falls_back_to_scalar_loop(self):
        """Measures without a columnar kernel loop over ``value`` by default."""
        from repro.distances.base import Measure, MeasureKind

        class FirstCoordinateGap(Measure):
            kind = MeasureKind.DISTANCE
            name = "first-coordinate-gap"

            def value(self, a, b):
                return abs(float(a[0]) - float(b[0]))

        data = np.asarray([[1.0, 9.0], [4.0, 9.0]])
        store = make_store(data)
        batched = FirstCoordinateGap().values_at(store, np.asarray([0, 1]), np.asarray([2.0, 0.0]))
        np.testing.assert_array_equal(batched, [1.0, 2.0])


def _set_workload(seed=0, n=120):
    rng = np.random.default_rng(seed)
    dataset = [
        frozenset(int(x) for x in rng.choice(80, size=rng.integers(4, 20), replace=False))
        for _ in range(n)
    ]
    query = dataset[0] | frozenset({200})
    return dataset, query


def _results_in_both_modes(build, query, exclude_index=None, repeats=3):
    """Query two identically seeded samplers, one per kernel mode."""
    vectorized = build()
    with scalar_kernels():
        assert not vectorized_kernels_enabled()
        scalar = build()
        scalar_results = [
            scalar.sample_detailed(query, exclude_index=exclude_index) for _ in range(repeats)
        ]
    assert vectorized_kernels_enabled()
    vector_results = [
        vectorized.sample_detailed(query, exclude_index=exclude_index) for _ in range(repeats)
    ]
    return vector_results, scalar_results


def _assert_byte_identical(vector_results, scalar_results):
    for vectorized, scalar in zip(vector_results, scalar_results):
        assert vectorized.index == scalar.index
        assert vectorized.value == scalar.value  # exact float equality
        assert vectorized.stats == scalar.stats  # every counter, dataclass-equal


LSH_KWARGS = dict(radius=0.3, far_radius=0.1, num_hashes=1, num_tables=25)


class TestSamplerEquivalence:
    @pytest.mark.parametrize(
        "sampler_cls",
        [PermutationFairSampler, IndependentFairSampler, CollectAllFairSampler,
         ApproximateNeighborhoodSampler, StandardLSHSampler],
    )
    def test_lsh_samplers_byte_identical(self, sampler_cls):
        dataset, query = _set_workload(seed=5)

        def build():
            return sampler_cls(MinHashFamily(), seed=17, **LSH_KWARGS).fit(dataset)

        _assert_byte_identical(*_results_in_both_modes(build, query, exclude_index=0))

    def test_standard_lsh_with_far_limit_and_shuffle(self):
        dataset, query = _set_workload(seed=6)

        def build():
            return StandardLSHSampler(
                MinHashFamily(), seed=8, shuffle_tables=True, far_point_limit_factor=1.0, **LSH_KWARGS
            ).fit(dataset)

        _assert_byte_identical(*_results_in_both_modes(build, query))

    def test_exact_sampler_byte_identical(self):
        dataset, query = _set_workload(seed=7)

        def build():
            return ExactUniformSampler(JaccardSimilarity(), radius=0.3, seed=3).fit(dataset)

        _assert_byte_identical(*_results_in_both_modes(build, query, exclude_index=2))

    def test_exact_sampler_dense_byte_identical(self):
        rng = np.random.default_rng(11)
        data = rng.standard_normal((150, 8))
        query = data[0] + 0.01 * rng.standard_normal(8)

        def build():
            return ExactUniformSampler(EuclideanDistance(), radius=2.5, seed=4).fit(data)

        _assert_byte_identical(*_results_in_both_modes(build, query))

    def test_weighted_sampler_byte_identical(self):
        dataset, query = _set_workload(seed=8)
        weight = exponential_similarity_weight(scale=2.0)

        def build():
            return WeightedFairSampler(
                IndependentFairSampler(MinHashFamily(), seed=9, **LSH_KWARGS),
                weight=weight,
                max_weight=weight(1.0),
                seed=5,
            ).fit(dataset)

        _assert_byte_identical(*_results_in_both_modes(build, query))

    def test_filter_samplers_byte_identical(self):
        from repro.data import planted_inner_product_neighborhood

        points, query, _ = planted_inner_product_neighborhood(
            n_background=250, n_neighbors=10, dim=16, alpha=0.8, beta_max=0.2, seed=13
        )

        def build_index():
            return GaussianFilterIndex(alpha=0.8, beta=0.3, seed=21).fit(points)

        _assert_byte_identical(*_results_in_both_modes(build_index, query))

        def build_fair():
            return FilterFairSampler(alpha=0.8, beta=0.3, num_structures=4, seed=22).fit(points)

        _assert_byte_identical(*_results_in_both_modes(build_fair, query))

    def test_dynamic_tables_with_pending_tombstones(self):
        """Equivalence must survive churn, with tombstones left un-compacted."""
        dataset, query = _set_workload(seed=9, n=100)

        def run(mode_scalar):
            def serve():
                sampler = IndependentFairSampler(MinHashFamily(), seed=31, **LSH_KWARGS)
                # max_tombstone_fraction=1.0: deletes stay pending tombstones.
                engine = BatchQueryEngine.build(
                    sampler, dataset, max_tombstone_fraction=1.0, seed=31
                )
                for index in (0, 3, 4):
                    engine.delete(index)
                engine.insert_many([frozenset({1, 2, 3}), query | frozenset({5})])
                assert engine.tables.pending_tombstones > 0
                return engine.run([query, query])

            if mode_scalar:
                with scalar_kernels():
                    return serve()
            return serve()

        vector_responses = run(mode_scalar=False)
        scalar_responses = run(mode_scalar=True)
        for vectorized, scalar in zip(vector_responses, scalar_responses):
            assert vectorized.indices == scalar.indices
            assert vectorized.value == scalar.value
            assert vectorized.stats == scalar.stats

    def test_standalone_tables_with_pending_tombstones(self):
        """Without an engine sync nothing sweeps: the gather filters dead
        members, identically under both kernel modes."""
        dataset, query = _set_workload(seed=11, n=100)

        def run():
            sampler = PermutationFairSampler(MinHashFamily(), seed=13, **LSH_KWARGS)
            engine = BatchQueryEngine.build(
                sampler, dataset, max_tombstone_fraction=1.0, seed=13
            )
            tables = engine.tables
            first = sampler.sample(query)
            for index in {first, 0, 3}:
                tables.delete(index)
            assert tables.pending_tombstones > 0
            view = tables.colliding_view(query)
            assert tables.alive[view.indices].all()
            # The exact answer: the lowest-ranked live near colliding point.
            near = [
                int(index)
                for bucket in tables.query_buckets(query)
                for index in bucket.indices
                if sampler.measure.within(
                    sampler.measure.value(dataset[index], query), sampler.radius
                )
            ]
            exact = min(near, key=lambda index: tables.ranks[index]) if near else None
            return first, exact, sampler.sample_detailed_from_candidates(query, view)

        first, exact, vectorized = run()
        with scalar_kernels():
            _, _, scalar = run()
        assert vectorized.index != first
        assert vectorized.index == exact
        assert vectorized == scalar

    def test_nan_valued_pairs_are_evaluated_once(self):
        """The memo marks evaluated slots in a mask, so a NaN measure value
        is served from it like any other."""
        rows = np.array([[0.0, 1.0], [np.nan, 2.0], [3.0, 4.0]])
        query = np.array([1.0, 1.0])
        for store in (DenseStore(rows), None):
            evaluator = CandidateEvaluator(
                EuclideanDistance(), query, store=store, dataset=list(rows), size=3
            )
            first = evaluator.values(np.array([0, 1, 2]))
            again = evaluator.values(np.array([1, 2]))
            assert np.isnan(first[1]) and np.isnan(again[0])
            assert again[1] == first[2]
            assert np.isnan(evaluator.value(1))
            assert evaluator.fresh_evaluations == 3
            assert evaluator.kernel_calls == 1

    def test_permutation_sampler_k_lowest_matches_exact_ball(self):
        """The rewritten k-lowest-rank scan still returns true near neighbors."""
        dataset, query = _set_workload(seed=10)
        sampler = PermutationFairSampler(MinHashFamily(), seed=12, **LSH_KWARGS).fit(dataset)
        exact = ExactUniformSampler(JaccardSimilarity(), radius=0.3, seed=0).fit(dataset)
        ball = set(exact.neighborhood(query).tolist())
        sample = sampler.sample_k(query, 5, replacement=False)
        assert set(sample) <= ball
        with scalar_kernels():
            scalar_sampler = PermutationFairSampler(MinHashFamily(), seed=12, **LSH_KWARGS).fit(dataset)
            assert scalar_sampler.sample_k(query, 5, replacement=False) == sample
