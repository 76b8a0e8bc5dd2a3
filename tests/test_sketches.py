"""Tests for the count-distinct sketch substrate."""

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError
from repro.sketches import BottomTSketch, DistinctCountSketcher, PairwiseIndependentHash


class TestPairwiseIndependentHash:
    def test_output_in_range(self):
        h = PairwiseIndependentHash.sample(output_range=1000, seed=0)
        for key in range(100):
            assert 0 <= h(key) < 1000

    def test_deterministic(self):
        h = PairwiseIndependentHash(a=12345, b=678, output_range=10**6)
        assert h(42) == h(42)

    def test_different_functions_differ(self):
        h1 = PairwiseIndependentHash.sample(10**9, seed=1)
        h2 = PairwiseIndependentHash.sample(10**9, seed=2)
        values1 = [h1(k) for k in range(50)]
        values2 = [h2(k) for k in range(50)]
        assert values1 != values2

    def test_hash_array_matches_scalar(self):
        h = PairwiseIndependentHash.sample(10**6, seed=3)
        keys = np.arange(30)
        np.testing.assert_array_equal(h.hash_array(keys), [h(int(k)) for k in keys])

    @pytest.mark.parametrize("output_range", [2**20, 4000**3, 2**61 - 1, 2**61, 2**64 + 3])
    def test_hash_array_is_exact_at_the_edges(self, output_range):
        """Uint64 Mersenne arithmetic equals the Python-int scalar hash."""
        prime = 2**61 - 1
        keys = np.array(
            [0, 1, 2**31 - 1, 2**32, 2**61 - 2, 2**61 - 1, 2**61, 2**62, 2**63 - 1],
            dtype=np.int64,
        )
        rng = np.random.default_rng(output_range % 1000)
        keys = np.concatenate([keys, rng.integers(0, 2**63 - 1, size=200, dtype=np.int64)])
        multipliers = [(prime - 1, prime - 1), (1, 0), (prime - 1, 0), (2**32 + 1, prime - 1)]
        multipliers += [(int(rng.integers(1, prime)), int(rng.integers(0, prime))) for _ in range(5)]
        for a, b in multipliers:
            h = PairwiseIndependentHash(a=a, b=b, output_range=output_range)
            values = h.hash_array(keys)
            assert values.dtype == np.int64
            assert values.tolist() == [h(int(k)) for k in keys], (a, b)

    def test_hash_array_rejects_negative_keys(self):
        h = PairwiseIndependentHash.sample(10**6, seed=4)
        with pytest.raises(InvalidParameterError):
            h.hash_array(np.array([3, -1]))
        assert h.hash_array(np.empty(0, dtype=np.int64)).size == 0

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            PairwiseIndependentHash(a=0, b=0, output_range=10)
        with pytest.raises(InvalidParameterError):
            PairwiseIndependentHash(a=1, b=0, output_range=0)


class TestBottomTSketch:
    def test_exact_for_small_streams(self):
        sketcher = DistinctCountSketcher(universe_size=1000, epsilon=0.5, seed=0)
        sketch = sketcher.sketch_keys(range(5))
        assert sketch.estimate() == pytest.approx(5.0)

    def test_duplicates_do_not_inflate(self):
        sketcher = DistinctCountSketcher(universe_size=1000, epsilon=0.5, seed=1)
        sketch = sketcher.sketch_keys([1, 2, 3] * 10)
        assert sketch.estimate() == pytest.approx(3.0)

    def test_estimate_accuracy_on_large_stream(self):
        sketcher = DistinctCountSketcher(universe_size=100_000, epsilon=0.25, delta=0.01, seed=2)
        true_count = 3000
        estimate = sketcher.sketch_keys(range(true_count)).estimate()
        assert 0.6 * true_count <= estimate <= 1.6 * true_count

    def test_merge_equals_union(self):
        sketcher = DistinctCountSketcher(universe_size=10_000, epsilon=0.5, seed=3)
        a = sketcher.sketch_keys(range(0, 400))
        b = sketcher.sketch_keys(range(200, 600))
        merged = a.merge(b)
        union_estimate = merged.estimate()
        direct = sketcher.sketch_keys(range(0, 600)).estimate()
        assert union_estimate == pytest.approx(direct, rel=1e-9)

    def test_merge_all(self):
        sketcher = DistinctCountSketcher(universe_size=10_000, epsilon=0.5, seed=4)
        parts = [sketcher.sketch_keys(range(i * 100, (i + 1) * 100)) for i in range(5)]
        merged = BottomTSketch.merge_all(parts)
        assert 250 <= merged.estimate() <= 900  # true value 500, epsilon=1/2 guarantee

    def test_merge_all_empty_rejected(self):
        with pytest.raises(InvalidParameterError):
            BottomTSketch.merge_all([])

    def test_merge_incompatible_sketches_rejected(self):
        a = DistinctCountSketcher(universe_size=100, epsilon=0.5, seed=5).sketch_keys([1])
        b = DistinctCountSketcher(universe_size=100, epsilon=0.5, seed=6).sketch_keys([2])
        with pytest.raises(InvalidParameterError):
            a.merge(b)

    def test_merge_is_commutative(self):
        sketcher = DistinctCountSketcher(universe_size=5_000, epsilon=0.5, seed=7)
        a = sketcher.sketch_keys(range(0, 300))
        b = sketcher.sketch_keys(range(150, 450))
        assert a.merge(b).estimate() == pytest.approx(b.merge(a).estimate())

    def test_empty_sketch_estimates_zero(self):
        sketch = DistinctCountSketcher(universe_size=100, seed=8).new_sketch()
        assert sketch.estimate() == 0.0

    def test_half_approximation_guarantee_typical(self):
        """Section 4 relies on a 1/2-approximation; check it holds on typical data."""
        sketcher = DistinctCountSketcher(universe_size=50_000, epsilon=0.5, delta=0.01, seed=9)
        for true_count in (50, 500, 2000):
            estimate = sketcher.sketch_keys(range(true_count)).estimate()
            assert 0.5 * true_count <= estimate <= 1.6 * true_count


def _rows(sketch):
    return [row.tolist() for row in sketch._rows]


def _reference_rows(sketcher, keys):
    """Bottom-t rows computed with the scalar hash and Python sets."""
    return [sorted({h(int(k)) for k in keys})[: sketcher.t] for h in sketcher._hashes]


class TestBatchedSketchOperations:
    """The array paths equal one-key-at-a-time bottom-t sketching."""

    @pytest.mark.parametrize("seed", range(4))
    def test_sketch_keys_equals_scalar_sketching(self, seed):
        rng = np.random.default_rng(seed)
        sketcher = DistinctCountSketcher(universe_size=5000, epsilon=0.5, seed=seed)
        # Empty, tiny, exactly-t and much-larger-than-t groups, with repeats.
        for size in [0, 1, sketcher.t, sketcher.t + 1, 3, 200, 57]:
            keys = rng.integers(0, 5000, size=size)
            assert _rows(sketcher.sketch_keys(keys)) == _reference_rows(sketcher, keys)
            assert _rows(sketcher.sketch_keys(keys.tolist())) == _reference_rows(sketcher, keys)

    def test_merge_all_equals_the_union_stream(self):
        sketcher = DistinctCountSketcher(universe_size=5000, epsilon=0.5, seed=9)
        parts = [sketcher.sketch_keys(range(i * 40, i * 40 + 70)) for i in range(5)]
        parts.append(sketcher.new_sketch())
        merged = BottomTSketch.merge_all(parts)
        assert _rows(merged) == _reference_rows(sketcher, range(0, 230))
        assert _rows(merged) == _rows(sketcher.sketch_keys(range(0, 230)))


class TestDistinctCountSketcher:
    def test_invalid_epsilon(self):
        with pytest.raises(InvalidParameterError):
            DistinctCountSketcher(universe_size=10, epsilon=0.0)

    def test_invalid_delta(self):
        with pytest.raises(InvalidParameterError):
            DistinctCountSketcher(universe_size=10, delta=1.5)

    def test_invalid_universe(self):
        with pytest.raises(InvalidParameterError):
            DistinctCountSketcher(universe_size=0)

    def test_t_grows_with_accuracy(self):
        loose = DistinctCountSketcher(universe_size=100, epsilon=0.5, seed=0)
        tight = DistinctCountSketcher(universe_size=100, epsilon=0.1, seed=0)
        assert tight.t > loose.t

    def test_rows_grow_with_confidence(self):
        loose = DistinctCountSketcher(universe_size=100, delta=0.5, seed=0)
        tight = DistinctCountSketcher(universe_size=100, delta=0.001, seed=0)
        assert tight.num_rows >= loose.num_rows

    def test_sketches_from_same_sketcher_are_mergeable(self):
        sketcher = DistinctCountSketcher(universe_size=1000, seed=10)
        a = sketcher.sketch_keys([1, 2, 3])
        b = sketcher.sketch_keys([3, 4, 5])
        assert a.merge(b).estimate() == pytest.approx(5.0)
