"""Tests for the LSH families: collision probabilities and basic behaviour."""

import numpy as np
import pytest

from repro.distances import CosineSimilarity, EuclideanDistance, HammingDistance, JaccardSimilarity
from repro.exceptions import InvalidParameterError, UnsupportedDataTypeError
from repro.lsh import (
    BitSamplingFamily,
    HyperplaneFamily,
    MinHashFamily,
    OneBitMinHashFamily,
    PStableFamily,
)
from repro.engine.dynamic import DynamicLSHTables
from repro.lsh.family import ConcatenatedFamily
from repro.lsh.tables import Bucket, LSHTables


def empirical_collision_rate(family, a, b, trials, seed=0):
    rng = np.random.default_rng(seed)
    collisions = 0
    for _ in range(trials):
        h = family.sample(rng)
        if h(a) == h(b):
            collisions += 1
    return collisions / trials


class TestMinHash:
    def test_collision_probability_equals_jaccard(self):
        assert MinHashFamily().collision_probability(0.37) == pytest.approx(0.37)

    def test_collision_probability_rejects_out_of_range(self):
        with pytest.raises(InvalidParameterError):
            MinHashFamily().collision_probability(1.5)

    def test_empirical_collision_rate_matches_similarity(self):
        a = frozenset(range(0, 20))
        b = frozenset(range(10, 30))  # Jaccard 10/30 = 1/3
        rate = empirical_collision_rate(MinHashFamily(), a, b, trials=3000, seed=1)
        assert rate == pytest.approx(1 / 3, abs=0.04)

    def test_identical_sets_always_collide(self):
        s = frozenset({3, 9, 27})
        rng = np.random.default_rng(2)
        family = MinHashFamily()
        for _ in range(50):
            h = family.sample(rng)
            assert h(s) == h(s)

    def test_empty_set_gets_sentinel(self):
        rng = np.random.default_rng(3)
        h = MinHashFamily().sample(rng)
        assert h(frozenset()) == -1

    def test_rejects_vector_input(self):
        rng = np.random.default_rng(4)
        h = MinHashFamily().sample(rng)
        with pytest.raises(UnsupportedDataTypeError):
            h(np.array([[1.0, 2.0], [3.0, 4.0]]))

    def test_measure_is_jaccard(self):
        assert isinstance(MinHashFamily().measure, JaccardSimilarity)


class TestOneBitMinHash:
    def test_collision_probability_formula(self):
        assert OneBitMinHashFamily().collision_probability(0.4) == pytest.approx(0.7)

    def test_collision_probability_at_zero(self):
        assert OneBitMinHashFamily().collision_probability(0.0) == pytest.approx(0.5)

    def test_hash_values_are_bits(self):
        rng = np.random.default_rng(5)
        family = OneBitMinHashFamily()
        s = frozenset({1, 5, 9})
        for _ in range(20):
            assert family.sample(rng)(s) in (0, 1)

    def test_empirical_collision_rate(self):
        a = frozenset(range(0, 10))
        b = frozenset(range(5, 15))  # Jaccard 5/15 = 1/3 -> collision (1+1/3)/2 = 2/3
        rate = empirical_collision_rate(OneBitMinHashFamily(), a, b, trials=3000, seed=6)
        assert rate == pytest.approx(2 / 3, abs=0.04)


class TestHyperplane:
    def test_collision_probability_parallel(self):
        assert HyperplaneFamily(4).collision_probability(1.0) == pytest.approx(1.0)

    def test_collision_probability_orthogonal(self):
        assert HyperplaneFamily(4).collision_probability(0.0) == pytest.approx(0.5)

    def test_collision_probability_opposite(self):
        assert HyperplaneFamily(4).collision_probability(-1.0) == pytest.approx(0.0, abs=1e-12)

    def test_empirical_rate(self):
        a = np.array([1.0, 0.0, 0.0])
        b = np.array([0.0, 1.0, 0.0])  # orthogonal -> 0.5
        rate = empirical_collision_rate(HyperplaneFamily(3), a, b, trials=2000, seed=7)
        assert rate == pytest.approx(0.5, abs=0.05)

    def test_hash_values_are_bits(self):
        rng = np.random.default_rng(8)
        h = HyperplaneFamily(5).sample(rng)
        assert h(np.ones(5)) in (0, 1)

    def test_invalid_dim(self):
        with pytest.raises(InvalidParameterError):
            HyperplaneFamily(0)

    def test_measure(self):
        assert isinstance(HyperplaneFamily(3).measure, CosineSimilarity)


class TestPStable:
    def test_collision_probability_decreasing(self):
        family = PStableFamily(dim=4, width=4.0)
        probs = [family.collision_probability(d) for d in (0.5, 1.0, 2.0, 4.0, 8.0)]
        assert all(earlier > later for earlier, later in zip(probs, probs[1:]))

    def test_collision_probability_zero_distance(self):
        assert PStableFamily(4).collision_probability(0.0) == 1.0

    def test_negative_distance_rejected(self):
        with pytest.raises(InvalidParameterError):
            PStableFamily(4).collision_probability(-1.0)

    def test_empirical_rate_close_to_theory(self):
        family = PStableFamily(dim=6, width=4.0)
        rng = np.random.default_rng(9)
        a = rng.normal(size=6)
        b = a + np.array([2.0, 0, 0, 0, 0, 0])  # distance 2
        rate = empirical_collision_rate(family, a, b, trials=2000, seed=10)
        assert rate == pytest.approx(family.collision_probability(2.0), abs=0.05)

    def test_invalid_width(self):
        with pytest.raises(InvalidParameterError):
            PStableFamily(dim=3, width=0.0)

    def test_measure(self):
        assert isinstance(PStableFamily(3).measure, EuclideanDistance)

    def test_hash_dataset_matches_scalar(self):
        rng = np.random.default_rng(11)
        h = PStableFamily(dim=4, width=2.0).sample(rng)
        data = rng.normal(size=(10, 4))
        assert h.hash_dataset(data) == [h(row) for row in data]


class TestBitSampling:
    def test_collision_probability_formula(self):
        assert BitSamplingFamily(10).collision_probability(3) == pytest.approx(0.7)

    def test_out_of_range_distance(self):
        with pytest.raises(InvalidParameterError):
            BitSamplingFamily(4).collision_probability(5)

    def test_empirical_rate(self):
        a = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        b = np.array([0, 0, 0, 0, 0, 0, 1, 1])  # Hamming distance 2 of 8 -> 0.75
        rate = empirical_collision_rate(BitSamplingFamily(8), a, b, trials=2000, seed=12)
        assert rate == pytest.approx(0.75, abs=0.04)

    def test_measure(self):
        assert isinstance(BitSamplingFamily(3).measure, HammingDistance)


class TestConcatenation:
    def test_collision_probability_is_power(self):
        family = ConcatenatedFamily(MinHashFamily(), 3)
        assert family.collision_probability(0.5) == pytest.approx(0.125)

    def test_invalid_k(self):
        with pytest.raises(InvalidParameterError):
            ConcatenatedFamily(MinHashFamily(), 0)

    def test_keys_are_tuples_of_length_k(self):
        rng = np.random.default_rng(13)
        h = ConcatenatedFamily(MinHashFamily(), 4).sample(rng)
        key = h(frozenset({1, 2, 3}))
        assert isinstance(key, tuple) and len(key) == 4

    def test_concatenate_helper(self):
        family = MinHashFamily().concatenate(2)
        assert isinstance(family, ConcatenatedFamily)
        assert family.k == 2

    def test_hash_dataset_consistent_with_call(self):
        rng = np.random.default_rng(14)
        h = ConcatenatedFamily(OneBitMinHashFamily(), 3).sample(rng)
        dataset = [frozenset({1, 2}), frozenset({3, 4, 5}), frozenset({1, 9})]
        assert h.hash_dataset(dataset) == [h(p) for p in dataset]

    def test_empirical_rate_matches_power(self):
        a = frozenset(range(0, 10))
        b = frozenset(range(0, 9))  # Jaccard 0.9
        family = ConcatenatedFamily(MinHashFamily(), 2)
        rate = empirical_collision_rate(family, a, b, trials=3000, seed=15)
        assert rate == pytest.approx(0.81, abs=0.04)


#: Batches for the MinHash batch-hasher checks: single sets, then mixed batches.
_BATCHES = ["one-empty", "one-set", 4, 64]


class TestBatchHashers:
    def test_minhash_batch_matches_individual_on_point(self):
        rng = np.random.default_rng(16)
        family = MinHashFamily()
        functions = [family.sample(rng) for _ in range(20)]
        hasher = family.make_batch_hasher(functions)
        point = frozenset({4, 8, 15, 16, 23, 42})
        assert hasher.keys_for_point(point) == [f(point) for f in functions]

    def test_minhash_batch_matches_individual_on_dataset(self):
        rng = np.random.default_rng(17)
        family = MinHashFamily()
        functions = [family.sample(rng) for _ in range(10)]
        hasher = family.make_batch_hasher(functions)
        dataset = [frozenset({1, 2, 3}), frozenset({2, 3, 4}), frozenset({100, 200})]
        batch = hasher.keys_for_dataset(dataset)
        for function, keys in zip(functions, batch):
            assert keys == [function(p) for p in dataset]

    def test_onebit_batch_matches_individual(self):
        rng = np.random.default_rng(18)
        family = OneBitMinHashFamily()
        functions = [family.sample(rng) for _ in range(15)]
        hasher = family.make_batch_hasher(functions)
        dataset = [frozenset({i, i + 1, i + 2}) for i in range(12)]
        batch = hasher.keys_for_dataset(dataset)
        for function, keys in zip(functions, batch):
            assert keys == [function(p) for p in dataset]

    def test_batch_handles_empty_sets(self):
        rng = np.random.default_rng(19)
        family = MinHashFamily()
        functions = [family.sample(rng) for _ in range(5)]
        hasher = family.make_batch_hasher(functions)
        dataset = [frozenset(), frozenset({1, 2}), frozenset()]
        batch = hasher.keys_for_dataset(dataset)
        for keys in batch:
            assert keys[0] == -1 and keys[2] == -1

    def test_concatenated_batch_matches_individual(self):
        rng = np.random.default_rng(20)
        family = ConcatenatedFamily(MinHashFamily(), 3)
        functions = [family.sample(rng) for _ in range(8)]
        hasher = family.make_batch_hasher(functions)
        dataset = [frozenset({1, 5, 9}), frozenset({2, 5}), frozenset({7, 8, 9, 10})]
        batch = hasher.keys_for_dataset(dataset)
        for function, keys in zip(functions, batch):
            assert keys == [function(p) for p in dataset]
        point = frozenset({5, 9, 11})
        assert hasher.keys_for_point(point) == [f(point) for f in functions]

    @pytest.mark.parametrize("family_cls", [MinHashFamily, OneBitMinHashFamily])
    @pytest.mark.parametrize("batch", _BATCHES)
    def test_mixed_empty_batches_match_individual(self, family_cls, batch):
        rng = np.random.default_rng(22)
        family = family_cls()
        # More functions than one hashing chunk (64), so chunk seams show.
        functions = [family.sample(rng) for _ in range(70)]
        hasher = family.make_batch_hasher(functions)
        dataset = _mixed_sets(rng, batch)
        batch = hasher.keys_for_dataset(dataset)
        assert len(batch) == len(functions)
        for function, keys in zip(functions, batch):
            assert keys == [function(p) for p in dataset]
            assert all(type(key) is int for key in keys)

    @pytest.mark.parametrize("family_cls", [MinHashFamily, OneBitMinHashFamily])
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("batch", _BATCHES)
    def test_query_keys_many_matches_query_keys(self, family_cls, k, batch):
        rng = np.random.default_rng(23)
        family = family_cls() if k == 1 else ConcatenatedFamily(family_cls(), k)
        tables = LSHTables(family, l=50, seed=k)
        queries = _mixed_sets(rng, batch)
        many = tables.query_keys_many(queries)
        assert many == [tables.query_keys(q) for q in queries]
        assert many == [[f(q) for f in tables._functions] for q in queries]
        for keys in many:
            for key in keys:
                parts = (key,) if k == 1 else key
                assert type(parts) is tuple and len(parts) == k
                assert all(type(part) is int for part in parts)

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("batch", [1, 7, 200])
    def test_pstable_batch_keys_agree_every_way(self, k, batch):
        """keys_for_point, the rows of keys_for_points, the columns of
        keys_for_dataset and the per-function hashes are the same keys."""
        rng = np.random.default_rng(31)
        base = PStableFamily(dim=5, width=1.5)
        family = base if k == 1 else ConcatenatedFamily(base, k)
        functions = [family.sample(rng) for _ in range(12)]
        hasher = family.make_batch_hasher(functions)
        data = rng.normal(size=(batch, 5)) * 3
        points = list(data)
        rows = hasher.keys_for_points(points)
        columns = hasher.keys_for_dataset(points)
        assert rows == [hasher.keys_for_point(p) for p in points]
        assert rows == [list(row) for row in zip(*columns)]
        assert rows == [[f(p) for f in functions] for p in points]
        assert hasher.keys_for_dataset(data) == columns
        for keys in rows:
            for key in keys:
                parts = (key,) if k == 1 else key
                assert type(parts) is tuple and len(parts) == k
                assert all(type(part) is int for part in parts)

    def test_pstable_tables_hash_through_the_batch_hasher(self):
        tables = LSHTables(PStableFamily(dim=3).concatenate(2), l=4, seed=1)
        assert tables._batch_hasher is not None

    def test_pstable_sweep_after_churn_never_walks_every_bucket(self, monkeypatch):
        rng = np.random.default_rng(33)
        tables = DynamicLSHTables(
            PStableFamily(dim=6, width=2.0).concatenate(2), l=8, seed=3,
            max_tombstone_fraction=0.01,
        )
        tables.fit(list(rng.normal(size=(300, 6))))
        walks = []
        monkeypatch.setattr(tables, "_sweep_all_buckets", lambda: walks.append(1))
        for _ in range(12):
            tables.insert_many(list(rng.normal(size=(int(rng.integers(1, 9)), 6))))
            live = np.flatnonzero(tables.alive)
            for index in rng.choice(live, size=6, replace=False):
                tables.delete(int(index))
            tables.compact()
        assert tables.rebuilds_triggered > 12
        assert walks == []
        alive = tables.alive
        assert all(alive[b.indices].all() for table in tables._tables for b in table.values())

    def test_hyperplane_family_has_no_batch_hasher(self):
        rng = np.random.default_rng(21)
        family = HyperplaneFamily(4)
        assert family.make_batch_hasher([family.sample(rng)]) is None


def _mixed_sets(rng, batch):
    """One of :data:`_BATCHES`: a single set, or *batch* sets mixing empty and
    non-empty ones."""
    if batch in ("one-empty", "one-set"):
        return [frozenset()] if batch == "one-empty" else [frozenset({3, 9, 27})]
    sets = [
        frozenset() if rng.random() < 0.25
        else frozenset(int(x) for x in rng.integers(0, 500, size=int(rng.integers(1, 12))))
        for _ in range(batch)
    ]
    sets[0], sets[-1] = frozenset(), frozenset({1, 2, 3})
    return sets


class TestBucketSplice:
    """``Bucket.inserted`` against an ``np.insert`` oracle."""

    RANKS = [1, 3, 5, 5, 5, 9]

    @pytest.mark.parametrize(
        "rank", [0, 1, 4, 5, 9, 12],
        ids=["head", "head-tie", "middle", "middle-tie", "tail-tie", "tail"],
    )
    @pytest.mark.parametrize("view", [False, True], ids=["owned", "view"])
    def test_matches_np_insert(self, rank, view):
        members = np.array((np.arange(10, 16), self.RANKS), dtype=np.int64)
        if view:
            # Built buckets are slices of one per-table members array.
            padded = np.array((np.arange(20), np.arange(20)), dtype=np.int64)
            padded[:, 4:10] = members
            members = padded[:, 4:10]
        bucket = Bucket.from_array(members)
        before = members.copy()
        spliced = bucket.inserted(99, rank)
        position = int(np.searchsorted(self.RANKS, rank, side="left"))
        expected = np.insert(before, position, (99, rank), axis=1)
        assert spliced._members.dtype == expected.dtype
        assert np.array_equal(spliced._members, expected)
        assert np.array_equal(bucket._members, before)

    def test_into_empty_bucket(self):
        empty = Bucket(np.empty(0, dtype=np.intp), np.empty(0, dtype=np.int64))
        assert empty.inserted(7, 3)._members.tolist() == [[7], [3]]
