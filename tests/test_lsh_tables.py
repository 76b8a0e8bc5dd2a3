"""Tests for the LSH table layer (buckets, rank ordering, rank-range queries)."""

import numpy as np
import pytest

from repro.exceptions import EmptyDatasetError, InvalidParameterError
from repro.lsh import LSHTables, MinHashFamily, OneBitMinHashFamily
from repro.lsh.tables import Bucket


@pytest.fixture
def tiny_sets():
    return [
        frozenset({1, 2, 3}),
        frozenset({1, 2, 4}),
        frozenset({1, 2, 3, 4}),
        frozenset({50, 51, 52}),
        frozenset({60, 61, 62}),
    ]


class TestBucket:
    def test_len(self):
        bucket = Bucket(np.array([3, 1, 4]))
        assert len(bucket) == 3

    def test_rank_range_requires_ranks(self):
        bucket = Bucket(np.array([0, 1]))
        with pytest.raises(InvalidParameterError):
            bucket.rank_range(0, 1)

    def test_rank_range_selects_half_open_interval(self):
        indices = np.array([10, 11, 12, 13])
        ranks = np.array([2, 5, 7, 9])
        bucket = Bucket(indices, ranks)
        assert bucket.rank_range(5, 9).tolist() == [11, 12]
        assert bucket.rank_range(0, 3).tolist() == [10]
        assert bucket.rank_range(9, 100).tolist() == [13]
        assert bucket.rank_range(3, 5).tolist() == []

    def test_rank_range_on_empty_bucket(self):
        bucket = Bucket(np.empty(0, dtype=np.intp), np.empty(0, dtype=np.int64))
        assert bucket.rank_range(0, 100).tolist() == []
        assert len(bucket) == 0

    def test_rank_range_with_lo_equal_hi_is_empty(self):
        bucket = Bucket(np.array([7, 8]), np.array([1, 3]))
        assert bucket.rank_range(1, 1).tolist() == []
        assert bucket.rank_range(3, 3).tolist() == []

    def test_rank_range_without_ranks_raises_invalid_parameter(self):
        bucket = Bucket(np.array([0, 1, 2]))
        with pytest.raises(InvalidParameterError):
            bucket.rank_range(0, 0)

    def test_inserted_keeps_rank_order(self):
        bucket = Bucket(np.array([10, 11], dtype=np.intp), np.array([2, 8]))
        grown = bucket.inserted(12, 5)
        assert grown.indices.tolist() == [10, 12, 11]
        assert grown.ranks.tolist() == [2, 5, 8]
        # Original bucket is untouched (inserted returns a copy).
        assert bucket.indices.tolist() == [10, 11]

    def test_members_live_in_one_array(self):
        """Each ranked bucket is one array object that owns its data, with
        ``indices`` and ``ranks`` as views of it; tiny buckets dominate an
        index, so a second array (or a base behind a view) per bucket costs
        a large share of its memory."""
        built = Bucket.from_members(np.array([4, 2, 7]), np.array([9, 1, 5]))
        buckets = [
            Bucket(np.array([3, 1]), np.array([5, 9])),
            built,
            built.inserted(8, 6),
            built.filtered(np.array([True, False, True])),
        ]
        for bucket in buckets:
            members = bucket._members
            assert members.shape == (2, len(bucket)) and members.base is None
            assert bucket.indices.base is members and bucket.ranks.base is members
        assert built.indices.tolist() == [2, 7, 4] and built.ranks.tolist() == [1, 5, 9]
        assert buckets[2].indices.tolist() == [2, 7, 8, 4]
        assert buckets[3].indices.tolist() == [2, 4] and buckets[3].ranks.tolist() == [1, 9]

    def test_inserted_rank_mismatch_raises(self):
        with pytest.raises(InvalidParameterError):
            Bucket(np.array([0])).inserted(1, 5)
        with pytest.raises(InvalidParameterError):
            Bucket(np.array([0]), np.array([1])).inserted(1, None)


class TestConstruction:
    def test_requires_at_least_one_table(self):
        with pytest.raises(InvalidParameterError):
            LSHTables(MinHashFamily(), l=0)

    def test_empty_dataset_rejected(self):
        with pytest.raises(EmptyDatasetError):
            LSHTables(MinHashFamily(), l=2, seed=0).fit([])

    def test_query_before_fit_rejected(self, tiny_sets):
        tables = LSHTables(MinHashFamily(), l=2, seed=0)
        with pytest.raises(EmptyDatasetError):
            tables.query_buckets(tiny_sets[0])

    def test_every_point_stored_in_every_table(self, tiny_sets):
        tables = LSHTables(MinHashFamily(), l=4, seed=0).fit(tiny_sets)
        sizes = tables.bucket_sizes()
        assert len(sizes) == 4
        for table in sizes:
            assert sum(table.values()) == len(tiny_sets)
        assert tables.total_stored_references() == 4 * len(tiny_sets)

    def test_ranks_shape_validated(self, tiny_sets):
        tables = LSHTables(MinHashFamily(), l=2, seed=0)
        with pytest.raises(InvalidParameterError):
            tables.fit(tiny_sets, ranks=np.arange(3))

    def test_buckets_sorted_by_rank(self, tiny_sets):
        ranks = np.array([4, 2, 0, 3, 1])
        tables = LSHTables(MinHashFamily(), l=3, seed=1).fit(tiny_sets, ranks=ranks)
        for table in tables._tables:
            for bucket in table.values():
                assert np.all(np.diff(bucket.ranks) >= 0)

    def test_num_points_and_tables(self, tiny_sets):
        tables = LSHTables(MinHashFamily(), l=3, seed=2).fit(tiny_sets)
        assert tables.num_points == len(tiny_sets)
        assert tables.num_tables == 3


class TestQueries:
    def test_identical_point_always_collides_with_itself(self, tiny_sets):
        tables = LSHTables(MinHashFamily(), l=5, seed=3).fit(tiny_sets)
        candidates = tables.query_candidates(tiny_sets[0])
        assert 0 in candidates.tolist()

    def test_similar_points_collide_more_than_dissimilar(self, tiny_sets):
        tables = LSHTables(MinHashFamily(), l=30, seed=4).fit(tiny_sets)
        counts = tables.collision_counts(tiny_sets[0])
        similar = counts.get(2, 0)   # {1,2,3,4} is similar to {1,2,3}
        dissimilar = counts.get(4, 0)  # {60,61,62} is disjoint
        assert similar > dissimilar

    def test_query_keys_match_functions(self, tiny_sets):
        tables = LSHTables(MinHashFamily(), l=6, seed=5).fit(tiny_sets)
        keys = tables.query_keys(tiny_sets[1])
        assert keys == [f(tiny_sets[1]) for f in tables._functions]

    def test_query_candidates_multiset_counts_duplicates(self, tiny_sets):
        tables = LSHTables(MinHashFamily(), l=10, seed=6).fit(tiny_sets)
        multiset = tables.query_candidates_multiset(tiny_sets[0])
        unique = tables.query_candidates(tiny_sets[0])
        assert multiset.size >= unique.size

    def test_rank_range_requires_ranks(self, tiny_sets):
        tables = LSHTables(MinHashFamily(), l=2, seed=7).fit(tiny_sets)
        with pytest.raises(InvalidParameterError):
            tables.rank_range_candidates(tiny_sets[0], 0, 2)

    def test_rank_range_returns_subset_of_candidates(self, tiny_sets):
        ranks = np.arange(len(tiny_sets))
        tables = LSHTables(MinHashFamily(), l=8, seed=8).fit(tiny_sets, ranks=ranks)
        full = set(tables.query_candidates(tiny_sets[0]).tolist())
        windowed = set(tables.rank_range_candidates(tiny_sets[0], 0, 3).tolist())
        assert windowed <= full
        # The union over all windows recovers the full candidate set.
        recovered = set()
        for lo in range(len(tiny_sets)):
            recovered |= set(tables.rank_range_candidates(tiny_sets[0], lo, lo + 1).tolist())
        assert recovered == full

    def test_batch_and_loop_paths_agree(self, tiny_sets):
        """The vectorized MinHash path must build identical tables to the generic path."""
        family = OneBitMinHashFamily()
        batch_tables = LSHTables(family, l=7, seed=9).fit(tiny_sets)
        loop_tables = LSHTables(family, l=7, seed=9)
        loop_tables._batch_hasher = None  # force the per-function fallback
        loop_tables.fit(tiny_sets)
        for table_a, table_b in zip(batch_tables._tables, loop_tables._tables):
            assert set(table_a.keys()) == set(table_b.keys())
            for key in table_a:
                assert sorted(table_a[key].indices.tolist()) == sorted(table_b[key].indices.tolist())

    def test_unseen_query_returns_empty_or_far_buckets(self, tiny_sets):
        tables = LSHTables(MinHashFamily(), l=3, seed=10).fit(tiny_sets)
        candidates = tables.query_candidates(frozenset({999, 1000, 1001}))
        # A completely unrelated set should rarely collide; at worst it returns
        # a small subset of the data, never an error.
        assert candidates.size <= len(tiny_sets)

    def test_collision_counts_with_no_collisions_is_empty(self, tiny_sets):
        # Concatenating several MinHash functions drives the collision
        # probability of a disjoint query to (essentially) zero.
        tables = LSHTables(MinHashFamily().concatenate(4), l=5, seed=11).fit(tiny_sets)
        counts = tables.collision_counts(frozenset({999, 1000, 1001}))
        assert counts == {}


class TestBatchedQueryKeys:
    def test_query_keys_many_matches_per_query_hashing(self, tiny_sets):
        tables = LSHTables(MinHashFamily(), l=6, seed=12).fit(tiny_sets)
        batched = tables.query_keys_many(tiny_sets)
        assert batched == [tables.query_keys(point) for point in tiny_sets]

    def test_query_keys_many_matches_for_concatenated_family(self, tiny_sets):
        tables = LSHTables(OneBitMinHashFamily().concatenate(3), l=4, seed=13).fit(tiny_sets)
        batched = tables.query_keys_many(tiny_sets)
        assert batched == [tables.query_keys(point) for point in tiny_sets]

    def test_query_keys_many_without_batch_hasher_falls_back(self, tiny_sets):
        tables = LSHTables(MinHashFamily(), l=3, seed=14).fit(tiny_sets)
        expected = [tables.query_keys(point) for point in tiny_sets]
        tables._batch_hasher = None
        assert tables.query_keys_many(tiny_sets) == expected
        assert tables.query_keys_many([]) == []

    def test_primed_key_cache_serves_hits_and_clears(self, tiny_sets):
        tables = LSHTables(MinHashFamily(), l=5, seed=15).fit(tiny_sets)
        expected = [tables.query_keys(point) for point in tiny_sets]
        tables.prime_key_cache(tiny_sets, tables.query_keys_many(tiny_sets))
        assert tables.key_cache_hits == 0
        assert [tables.query_keys(point) for point in tiny_sets] == expected
        assert tables.key_cache_hits == len(tiny_sets)
        tables.clear_key_cache()
        assert [tables.query_keys(point) for point in tiny_sets] == expected
        assert tables.key_cache_hits == len(tiny_sets)  # no further hits

    def test_prime_key_cache_length_mismatch_rejected(self, tiny_sets):
        tables = LSHTables(MinHashFamily(), l=2, seed=16).fit(tiny_sets)
        with pytest.raises(InvalidParameterError):
            tables.prime_key_cache(tiny_sets, [[0]])
