"""Tests for the online serving engine (repro.engine).

Covers the dynamic table layer (inserts, tombstone deletes, amortized
compaction), the batched query engine (parity with per-query execution,
primed-key cache, request validation), sampler attach/notify plumbing,
snapshot round-trips, and — the load-bearing one — the fairness acceptance
test: after heavy churn through the dynamic index, with no refit, a fair
sampler must still pass the same uniformity audit the static structure
passes in ``test_fair_nns.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import IndependentFairSampler, PermutationFairSampler, StandardLSHSampler
from repro.engine import (
    RANK_DOMAIN,
    BatchQueryEngine,
    DynamicLSHTables,
    EngineStats,
    QueryRequest,
    load_engine,
    save_engine,
)
from repro.exceptions import InvalidParameterError, NotFittedError
from repro.fairness.metrics import total_variation_from_uniform
from repro.lsh import LSHTables, MinHashFamily


def make_engine(dataset, seed=0, num_tables=40, sampler_cls=PermutationFairSampler, **kwargs):
    sampler = sampler_cls(
        MinHashFamily(),
        radius=0.5,
        far_radius=0.05,
        num_hashes=1,
        num_tables=num_tables,
        seed=seed,
    )
    return BatchQueryEngine.build(sampler, dataset, seed=seed, **kwargs)


NEW_NEAR = [frozenset(range(1, 8)), frozenset(list(range(2, 10)) + [33])]
NEW_FAR = [frozenset(range(500 + 10 * i, 510 + 10 * i)) for i in range(6)]


def churn(engine, planted_sets):
    """Delete 30% of the points (2 near, 6 far) and insert replacements.

    Returns the post-churn near-neighbor index set of the planted query.
    """
    for index in [3, 4, 7, 9, 11, 13, 15, 17]:
        engine.delete(index)
    inserted = [engine.insert(point) for point in NEW_NEAR + NEW_FAR]
    return {0, 1, 2, inserted[0], inserted[1]}


class TestDynamicTables:
    def test_insert_returns_stable_indices_and_is_queryable(self, planted_sets):
        tables = DynamicLSHTables(MinHashFamily(), l=30, seed=0).fit(planted_sets["dataset"])
        new_point = frozenset(range(1, 8))
        index = tables.insert(new_point)
        assert index == len(planted_sets["dataset"])
        assert index in tables.query_candidates(new_point).tolist()
        assert tables.num_points == index + 1
        assert len(tables.dataset) == index + 1

    def test_buckets_stay_rank_sorted_under_inserts(self, planted_sets):
        tables = DynamicLSHTables(MinHashFamily(), l=20, seed=1).fit(planted_sets["dataset"])
        for i in range(10):
            tables.insert(frozenset(range(i, i + 6)))
        for table in tables._tables:
            for bucket in table.values():
                assert np.all(np.diff(bucket.ranks) >= 0)

    def test_dynamic_ranks_are_drawn_from_the_large_domain(self, planted_sets):
        tables = DynamicLSHTables(MinHashFamily(), l=5, seed=2).fit(planted_sets["dataset"])
        assert tables.rank_domain == RANK_DOMAIN
        assert tables.ranks.min() >= 0
        assert tables.ranks.max() < RANK_DOMAIN
        # Static tables keep the permutation-sized domain.
        static = LSHTables(MinHashFamily(), l=5, seed=2).fit(planted_sets["dataset"])
        assert static.rank_domain == len(planted_sets["dataset"])

    def test_delete_hides_point_immediately(self, planted_sets):
        tables = DynamicLSHTables(MinHashFamily(), l=30, seed=3).fit(planted_sets["dataset"])
        query = planted_sets["query"]
        assert 0 in tables.query_candidates(query).tolist()
        tables.delete(0)
        assert 0 not in tables.query_candidates(query).tolist()
        assert tables.num_live == len(planted_sets["dataset"]) - 1

    def test_delete_validates_index(self, planted_sets):
        tables = DynamicLSHTables(MinHashFamily(), l=5, seed=4).fit(planted_sets["dataset"])
        with pytest.raises(InvalidParameterError):
            tables.delete(len(planted_sets["dataset"]))
        tables.delete(0)
        with pytest.raises(InvalidParameterError):
            tables.delete(0)

    def test_compaction_triggers_and_preserves_candidates(self, planted_sets):
        tables = DynamicLSHTables(
            MinHashFamily(), l=30, seed=5, max_tombstone_fraction=0.2
        ).fit(planted_sets["dataset"])
        query = planted_sets["query"]
        before = set(tables.query_candidates(query).tolist())
        doomed = [5, 6, 8, 10, 12, 14]  # far points only
        for index in doomed:
            tables.delete(index)
        assert tables.rebuilds_triggered >= 1
        # Deletes after the automatic sweep may leave a few pending again.
        assert tables.pending_tombstones < len(doomed)
        after = set(tables.query_candidates(query).tolist())
        assert after == before - set(doomed)
        tables.compact()
        assert tables.pending_tombstones == 0
        for table in tables._tables:
            for bucket in table.values():
                assert len(bucket) > 0
                assert tables.alive[bucket.indices].all()

    def test_compaction_releases_deleted_points(self, planted_sets):
        tables = DynamicLSHTables(
            MinHashFamily(), l=20, seed=7, max_tombstone_fraction=0.9
        ).fit(planted_sets["dataset"])
        tables.delete(5)
        assert tables.dataset[5] is not None  # tombstoned, not yet swept
        tables.compact()
        assert tables.dataset[5] is None  # swept: memory released, slot kept
        assert len(tables.dataset) == len(planted_sets["dataset"])

    def test_a_new_point_shares_one_singleton_bucket_across_tables(self, planted_sets):
        """A point opening fresh buckets in many tables costs one Bucket, not
        one array object per table; buckets are replaced, never edited, so
        later splices and sweeps leave the shared object as it was."""
        tables = DynamicLSHTables(MinHashFamily(), l=20, seed=3).fit(planted_sets["dataset"])
        points = [frozenset({7001, 7002, 7003}), frozenset({8001, 8002})]
        first, second = tables.insert_many(points)

        def buckets_of(point):
            keys = tables.query_keys(point)
            return [table.get(key) for table, key in zip(tables._tables, keys)]

        shared = buckets_of(points[0])
        assert len({id(bucket) for bucket in shared}) == 1
        assert shared[0].indices.tolist() == [first]
        assert shared[0].ranks.tolist() == [int(tables.ranks[first])]
        # A twin splices into all 20 buckets: each is replaced, and the
        # shared singleton object still holds only the first point.
        twin = tables.insert(points[0])
        assert all(sorted(b.indices.tolist()) == [first, twin] for b in buckets_of(points[0]))
        assert shared[0].indices.tolist() == [first]
        tables.delete(second)
        tables.compact()
        assert buckets_of(points[1]) == [None] * 20
        assert all(sorted(b.indices.tolist()) == [first, twin] for b in buckets_of(points[0]))

    def test_single_point_inserts_grow_rank_buffer_amortized(self, planted_sets):
        tables = DynamicLSHTables(MinHashFamily(), l=10, seed=8).fit(planted_sets["dataset"])
        for i in range(50):
            tables.insert(frozenset({1000 + i, 2000 + i, 3000 + i}))
        assert tables.ranks.shape == (len(planted_sets["dataset"]) + 50,)
        assert tables._ranks_buf.size >= tables.ranks.size
        # The view and the buffer prefix must stay the same memory.
        assert np.shares_memory(tables.ranks, tables._ranks_buf)

    def test_mutation_before_fit_rejected(self):
        tables = DynamicLSHTables(MinHashFamily(), l=3, seed=6)
        with pytest.raises(Exception):
            tables.insert(frozenset({1}))
        with pytest.raises(Exception):
            tables.delete(0)

    def test_invalid_tombstone_fraction_rejected(self):
        with pytest.raises(InvalidParameterError):
            DynamicLSHTables(MinHashFamily(), l=3, max_tombstone_fraction=0.0)

    def test_rankless_tables_reject_explicit_ranks(self, planted_sets):
        tables = DynamicLSHTables(MinHashFamily(), l=3, seed=9, use_ranks=False)
        with pytest.raises(InvalidParameterError):
            tables.fit(planted_sets["dataset"], ranks=np.arange(len(planted_sets["dataset"])))

    def test_compaction_sweeps_only_pending_tombstones(self, planted_sets):
        """Long-lived indexes: each sweep's work is bounded by the tombstones
        created since the previous sweep, and earlier churn cycles leave no
        per-sweep residue beyond the released slots."""
        tables = DynamicLSHTables(
            MinHashFamily(), l=10, seed=10, max_tombstone_fraction=0.9
        ).fit(planted_sets["dataset"])
        tables.delete(5)
        tables.compact()
        swept_first = tables.rebuilds_triggered
        tables.delete(6)
        assert tables.pending_tombstones == 1  # only the new tombstone
        tables.compact()
        assert tables.rebuilds_triggered == swept_first + 1
        assert tables.dataset[5] is None and tables.dataset[6] is None
        # A compact with nothing pending is a no-op.
        tables.compact()
        assert tables.rebuilds_triggered == swept_first + 1


class TestAttach:
    def test_attach_requires_ranks_for_fair_samplers(self, planted_sets):
        tables = DynamicLSHTables(MinHashFamily(), l=10, seed=0, use_ranks=False)
        tables.fit(planted_sets["dataset"])
        sampler = PermutationFairSampler(
            MinHashFamily(), radius=0.5, num_hashes=1, num_tables=10
        )
        with pytest.raises(InvalidParameterError):
            sampler.attach(tables, tables.dataset)

    def test_attach_empty_dataset_rejected(self, planted_sets):
        tables = DynamicLSHTables(MinHashFamily(), l=10, seed=0).fit(planted_sets["dataset"])
        sampler = PermutationFairSampler(
            MinHashFamily(), radius=0.5, num_hashes=1, num_tables=10
        )
        with pytest.raises(Exception):
            sampler.attach(tables, [])

    def test_static_build_matches_offline_fit_exactly(self, planted_sets):
        """build(dynamic=False) must reproduce fit()'s structure bit-for-bit."""
        kwargs = dict(radius=0.5, far_radius=0.05, num_hashes=1, num_tables=40, seed=9)
        fitted = PermutationFairSampler(MinHashFamily(), **kwargs).fit(planted_sets["dataset"])
        attached = BatchQueryEngine.build(
            PermutationFairSampler(MinHashFamily(), **kwargs),
            planted_sets["dataset"],
            dynamic=False,
        ).sampler
        assert np.array_equal(fitted.ranks, attached.ranks)
        for query in planted_sets["dataset"][:5] + [planted_sets["query"]]:
            assert fitted.sample(query) == attached.sample(query)

    def test_params_reflect_attached_tables(self, planted_sets):
        engine = make_engine(planted_sets["dataset"], num_tables=25)
        assert engine.sampler.params.l == 25
        assert engine.sampler.params.k == 1
        assert engine.sampler.num_tables == 25

    def test_attach_does_not_disable_later_auto_selection(self, planted_sets, small_set_dataset):
        """attach() must not freeze the tables' (K, L) into the sampler: a
        later plain fit() on a different dataset re-selects parameters."""
        sampler = PermutationFairSampler(
            MinHashFamily(), radius=0.3, far_radius=0.1, recall=0.9, seed=40
        )
        tables = DynamicLSHTables(MinHashFamily(), l=3, seed=40).fit(planted_sets["dataset"])
        sampler.attach(tables, tables.dataset)
        assert sampler.params.l == 3
        sampler.fit(small_set_dataset)
        assert sampler.params.recall >= 0.9  # auto-selection ran for the new n
        assert sampler.params.l != 3

    def test_rank_perturbation_sampler_rejects_dynamic_tables(self, planted_sets):
        from repro.core import RankPerturbationSampler

        sampler = RankPerturbationSampler(
            MinHashFamily(), radius=0.5, far_radius=0.05, num_hashes=1, num_tables=10, seed=41
        )
        with pytest.raises(InvalidParameterError):
            BatchQueryEngine.build(sampler, planted_sets["dataset"], seed=41)
        # The permutation-rank (static) path still works.
        engine = BatchQueryEngine.build(
            RankPerturbationSampler(
                MinHashFamily(), radius=0.5, far_radius=0.05, num_hashes=1, num_tables=40, seed=41
            ),
            planted_sets["dataset"],
            dynamic=False,
        )
        assert engine.run([planted_sets["query"]])[0].found


class TestBatchQueryEngine:
    def test_requires_fitted_sampler(self):
        with pytest.raises(NotFittedError):
            BatchQueryEngine(PermutationFairSampler(MinHashFamily(), radius=0.5))

    def test_batched_and_per_query_results_agree(self, planted_sets):
        """Priming the key cache must not change any answer."""
        queries = list(planted_sets["dataset"]) + [planted_sets["query"]]
        batched = make_engine(planted_sets["dataset"], seed=12)
        single = make_engine(planted_sets["dataset"], seed=12)
        single.batch_hashing = False
        a = batched.sample_batch(queries)
        b = single.sample_batch(queries)
        assert a == b
        assert batched.stats.key_cache_hits > 0
        assert single.stats.key_cache_hits == 0

    def test_candidate_view_fast_path_matches_per_bucket_scan(self, planted_sets):
        """The engine's view-based fast path must be answer-identical to the
        sampler's own per-bucket scan, query by query."""
        sampler = PermutationFairSampler(
            MinHashFamily(), radius=0.5, far_radius=0.05, num_hashes=1, num_tables=40, seed=18
        ).fit(planted_sets["dataset"])
        queries = list(planted_sets["dataset"]) + [planted_sets["query"], frozenset({555})]
        for query in queries:
            direct = sampler.sample_detailed(query)
            fast = sampler.sample_detailed_from_candidates(
                query, sampler.tables.colliding_view(query)
            )
            assert fast.index == direct.index
            assert fast.value == direct.value

    def test_attach_resets_independent_sampler_query_caches(self, planted_sets):
        """Re-pointing a warmed Section 4 sampler at new tables must not let
        it serve estimates or candidate views from the previous dataset."""
        query = planted_sets["query"]
        sampler = IndependentFairSampler(
            MinHashFamily(), radius=0.5, far_radius=0.05, num_hashes=1, num_tables=40, seed=19
        ).fit(planted_sets["dataset"])
        assert sampler.estimate_colliding_count(query) > 0  # warms the caches
        unrelated = [frozenset(range(900 + 7 * i, 905 + 7 * i)) for i in range(12)]
        tables = DynamicLSHTables(MinHashFamily(), l=40, seed=19).fit(unrelated)
        sampler.attach(tables, tables.dataset)
        assert sampler.estimate_colliding_count(query) == 0.0
        assert sampler.sample(query) is None

    def test_responses_are_ordered_and_structured(self, planted_sets):
        engine = make_engine(planted_sets["dataset"], seed=13)
        requests = [
            QueryRequest(planted_sets["query"], k=3, replacement=False),
            planted_sets["query"],
            frozenset({777, 778}),
        ]
        responses = engine.run(requests)
        assert [r.request_index for r in responses] == [0, 1, 2]
        assert len(responses[0].indices) == 3
        assert set(responses[0].indices) <= planted_sets["near_indices"]
        assert responses[1].found and responses[1].value is not None
        assert not responses[2].found and responses[2].index is None

    def test_request_validation(self):
        with pytest.raises(InvalidParameterError):
            QueryRequest(frozenset({1}), k=0)
        with pytest.raises(InvalidParameterError):
            QueryRequest(frozenset({1}), k=2, exclude_index=3)

    def test_exclude_index_respected(self, planted_sets):
        engine = make_engine(planted_sets["dataset"], seed=14)
        response = engine.run([QueryRequest(planted_sets["dataset"][0], exclude_index=0)])[0]
        assert response.index != 0

    def test_static_engine_rejects_mutation(self, planted_sets):
        engine = make_engine(planted_sets["dataset"], seed=15, dynamic=False)
        assert not engine.is_dynamic
        with pytest.raises(InvalidParameterError):
            engine.insert(frozenset({1, 2}))
        with pytest.raises(InvalidParameterError):
            engine.delete(0)

    def test_stats_accumulate(self, planted_sets):
        engine = make_engine(planted_sets["dataset"], seed=16)
        engine.run([planted_sets["query"]] * 3)
        engine.run([planted_sets["query"]])
        stats = engine.stats
        assert stats.queries_served == 4
        assert stats.batches_served == 2
        assert stats.candidates_scanned >= 1
        assert stats.distance_evaluations >= 1
        assert EngineStats.from_dict(stats.to_dict()) == stats

    def test_live_point_count_tracks_churn(self, planted_sets):
        engine = make_engine(planted_sets["dataset"], seed=17)
        n = len(planted_sets["dataset"])
        assert engine.num_live_points == n
        engine.delete(0)
        engine.insert(frozenset({1, 2, 3}))
        engine.insert(frozenset({4, 5, 6}))
        assert engine.num_live_points == n + 1


class TestChurnedFairness:
    def test_sampler_over_churned_engine_answers_from_live_neighborhood(self, planted_sets):
        engine = make_engine(planted_sets["dataset"], seed=20)
        survivors = churn(engine, planted_sets)
        for _ in range(10):
            response = engine.run([planted_sets["query"]])[0]
            assert response.index in survivors

    def test_uniformity_audit_after_churn(self, planted_sets):
        """Acceptance criterion: delete 30% of the points, insert as many new
        ones through the dynamic index — *no refit* — and the Section 3
        sampler must still be uniform over the live neighborhood, by the same
        audit ``test_fair_nns.py`` applies to the static structure."""
        trials = 300
        counts = None
        for seed in range(trials):
            engine = make_engine(planted_sets["dataset"], seed=seed)
            survivors = churn(engine, planted_sets)
            if counts is None:
                counts = {index: 0 for index in sorted(survivors)}
            index = engine.run([planted_sets["query"]])[0].index
            assert index in counts
            counts[index] += 1
        tv = total_variation_from_uniform(list(counts.values()))
        assert tv < 0.12
        assert min(counts.values()) > 0.4 * trials / len(counts)

    def test_independent_sampler_survives_churn(self, planted_sets):
        """The Section 4 sampler re-syncs sketches through the update hook and
        keeps answering from the live neighborhood."""
        engine = make_engine(
            planted_sets["dataset"], seed=21, sampler_cls=IndependentFairSampler
        )
        survivors = churn(engine, planted_sets)
        outputs = set()
        for _ in range(30):
            response = engine.run([planted_sets["query"]])[0]
            assert response.index in survivors
            outputs.add(response.index)
        assert len(outputs) > 1  # query-time randomness still alive

    def test_independent_sampler_estimate_excludes_tombstones(self, planted_sets):
        """Deleting a query's whole neighborhood must drop the colliding-count
        estimate to ~0 after the next sync, so the rejection loop exits
        immediately instead of burning its full round budget.  Incremental
        sketch maintenance must achieve this without forcing a compaction
        sweep — tombstones may legitimately stay pending in the bucket
        arrays; the sketches and estimates just must not count them."""
        engine = make_engine(
            planted_sets["dataset"], seed=23, sampler_cls=IndependentFairSampler
        )
        for index in sorted(planted_sets["near_indices"]):
            engine.delete(index)
        response = engine.run([planted_sets["query"]])[0]
        assert not response.found
        assert response.stats.rounds == 0
        assert engine.sampler.estimate_colliding_count(planted_sets["query"]) == 0.0

    def test_standard_lsh_serves_from_rankless_dynamic_tables(self, planted_sets):
        sampler = StandardLSHSampler(
            MinHashFamily(), radius=0.5, far_radius=0.05, num_hashes=1, num_tables=30, seed=22
        )
        engine = BatchQueryEngine.build(sampler, planted_sets["dataset"], seed=22)
        engine.delete(0)
        new_index = engine.insert(frozenset(range(1, 8)))
        response = engine.run([planted_sets["query"]])[0]
        assert response.found
        assert response.index != 0
        assert response.index in planted_sets["near_indices"] | {new_index}


class TestSnapshot:
    def test_round_trip_samples_are_bit_identical(self, planted_sets, tmp_path):
        engine = make_engine(planted_sets["dataset"], seed=30)
        churn(engine, planted_sets)
        engine.run([planted_sets["query"]])
        save_engine(engine, tmp_path / "snap")
        loaded = load_engine(tmp_path / "snap")
        queries = [planted_sets["query"]] + list(NEW_NEAR)
        for _ in range(5):
            assert loaded.sample_batch(queries) == engine.sample_batch(queries)

    def test_round_trip_preserves_structure_and_stats(self, planted_sets, tmp_path):
        engine = make_engine(planted_sets["dataset"], seed=31)
        churn(engine, planted_sets)
        engine.run([planted_sets["query"]] * 4)
        save_engine(engine, tmp_path / "snap")
        loaded = load_engine(tmp_path / "snap")
        assert loaded.is_dynamic
        assert loaded.num_live_points == engine.num_live_points
        assert loaded.stats.queries_served == engine.stats.queries_served
        assert loaded.stats.inserts == engine.stats.inserts
        tables, loaded_tables = engine.tables, loaded.tables
        assert np.array_equal(tables.ranks, loaded_tables.ranks)
        assert np.array_equal(tables.alive, loaded_tables.alive)
        for table_a, table_b in zip(tables._tables, loaded_tables._tables):
            assert set(table_a.keys()) == set(table_b.keys())
            for key in table_a:
                assert table_a[key].indices.tolist() == table_b[key].indices.tolist()

    def test_loaded_engine_accepts_further_mutation(self, planted_sets, tmp_path):
        engine = make_engine(planted_sets["dataset"], seed=32)
        save_engine(engine, tmp_path / "snap")
        loaded = load_engine(tmp_path / "snap")
        new_index = loaded.insert(frozenset(range(1, 11)))
        loaded.delete(0)
        response = loaded.run([QueryRequest(planted_sets["query"])])[0]
        assert response.found
        assert response.index != 0
        assert new_index in loaded.tables.query_candidates(planted_sets["query"]).tolist()

    def test_independent_sampler_round_trip_is_bit_identical(self, planted_sets, tmp_path):
        engine = make_engine(
            planted_sets["dataset"], seed=33, sampler_cls=IndependentFairSampler
        )
        save_engine(engine, tmp_path / "snap")
        loaded = load_engine(tmp_path / "snap")
        # Both engines continue from the same query-RNG state: the full
        # rejection-sampling trajectory must coincide draw for draw.
        for _ in range(10):
            assert (
                loaded.run([planted_sets["query"]])[0].index
                == engine.run([planted_sets["query"]])[0].index
            )

    def test_save_flushes_pending_mutations(self, planted_sets, tmp_path):
        """Saving right after a delete (before any query) must not snapshot
        the sampler's pre-mutation derived state: the loaded clone would
        otherwise serve tombstoned points forever."""
        engine = make_engine(
            planted_sets["dataset"], seed=36, sampler_cls=IndependentFairSampler
        )
        first = engine.run([planted_sets["query"]])[0]  # warms the view caches
        assert first.found
        engine.delete(first.index)
        save_engine(engine, tmp_path / "snap")
        loaded = load_engine(tmp_path / "snap")
        for candidate in (engine, loaded):
            for _ in range(20):
                assert candidate.run([planted_sets["query"]])[0].index != first.index

    def test_round_trip_preserves_engine_flags(self, planted_sets, tmp_path):
        engine = make_engine(planted_sets["dataset"], seed=37)
        engine.coalesce_duplicates = False
        engine.batch_hashing = False
        save_engine(engine, tmp_path / "snap")
        loaded = load_engine(tmp_path / "snap")
        assert loaded.coalesce_duplicates is False
        assert loaded.batch_hashing is False

    def test_static_engine_round_trips(self, planted_sets, tmp_path):
        engine = make_engine(planted_sets["dataset"], seed=34, dynamic=False)
        save_engine(engine, tmp_path / "snap")
        loaded = load_engine(tmp_path / "snap")
        assert not loaded.is_dynamic
        assert loaded.sample_batch([planted_sets["query"]]) == engine.sample_batch(
            [planted_sets["query"]]
        )

    def test_version_mismatch_rejected(self, planted_sets, tmp_path):
        import json

        engine = make_engine(planted_sets["dataset"], seed=35)
        path = save_engine(engine, tmp_path / "snap")
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["format_version"] = 999
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(InvalidParameterError):
            load_engine(path)
