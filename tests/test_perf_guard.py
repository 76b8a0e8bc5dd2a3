"""Deterministic perf guard: counter-based regression checks for the
vectorized candidate-evaluation pipeline.

Wall-clock assertions are flaky on shared CI runners, so this file pins the
pipeline's *work counters* instead — the quantities that made the
vectorization a speedup in the first place:

* ``kernel_calls`` must scale with rejection-round ``k`` levels / probed buckets,
  never with candidates (a regression to per-candidate evaluation multiplies
  it by the bucket size);
* ``distance_evaluations`` must stay bounded by the number of *distinct*
  candidates (a regression in the per-query memo re-evaluates duplicates);
* the engine-level ``distance_kernel_calls`` aggregate must stay a small
  fraction of ``candidates_scanned`` on a candidate-heavy workload.

The workload is seeded and the counters are exact deterministic functions of
it, so any failure here is a real behavioural regression, not noise.
The CI ``perf-guard`` job runs this file.
"""

import math

import numpy as np
import pytest

from repro.core import (
    ApproximateNeighborhoodSampler,
    CollectAllFairSampler,
    ExactUniformSampler,
    IndependentFairSampler,
    PermutationFairSampler,
    StandardLSHSampler,
)
from repro.distances import JaccardSimilarity
from repro.engine import BatchQueryEngine, ProcessShardedEngine, ShardedEngine
from repro.lsh import MinHashFamily


@pytest.fixture(scope="module")
def heavy_workload():
    """A candidate-heavy set workload: one dense "hub" of overlapping users.

    Every point shares a sizable core with the query, so with ``K = 1``
    almost the whole dataset collides in every table — large buckets, large
    colliding views, few true near neighbors.  This is the regime where the
    candidate-scoring term of the paper's query bound dominates.
    """
    rng = np.random.default_rng(42)
    core = set(range(10))
    dataset = [
        frozenset(core | {int(x) for x in rng.choice(range(10, 400), size=12, replace=False)})
        for _ in range(300)
    ]
    query = frozenset(core | {500, 501, 502})
    return {"dataset": dataset, "query": query, "n": len(dataset)}


def _lsh(sampler_cls, seed=7, **extra):
    return sampler_cls(
        MinHashFamily(),
        radius=0.45,
        far_radius=0.2,
        num_hashes=1,
        num_tables=15,
        seed=seed,
        **extra,
    )


class TestKernelCallScaling:
    def test_collect_all_is_one_kernel_call(self, heavy_workload):
        sampler = _lsh(CollectAllFairSampler).fit(heavy_workload["dataset"])
        result = sampler.sample_detailed(heavy_workload["query"])
        # The whole (large) candidate set is scored in a single batched call.
        assert result.stats.candidates_examined >= 1000  # workload is candidate-heavy
        assert result.stats.kernel_calls == 1
        assert result.stats.distance_evaluations <= heavy_workload["n"]

    def test_approximate_is_one_kernel_call(self, heavy_workload):
        sampler = _lsh(ApproximateNeighborhoodSampler).fit(heavy_workload["dataset"])
        result = sampler.sample_detailed(heavy_workload["query"])
        assert result.stats.kernel_calls == 1
        assert result.stats.distance_evaluations <= heavy_workload["n"]

    def test_exact_is_one_kernel_call(self, heavy_workload):
        sampler = ExactUniformSampler(JaccardSimilarity(), radius=0.45, seed=1).fit(
            heavy_workload["dataset"]
        )
        result = sampler.sample_detailed(heavy_workload["query"])
        assert result.stats.kernel_calls == 1
        assert result.stats.distance_evaluations == heavy_workload["n"]

    def test_independent_sampler_one_kernel_call_per_round(self, heavy_workload):
        sampler = _lsh(IndependentFairSampler).fit(heavy_workload["dataset"])
        result = sampler.sample_detailed(heavy_workload["query"])
        stats = result.stats
        assert stats.rounds >= 1
        # At most one batched evaluation per rejection round (rounds whose
        # segment candidates were all memoized dispatch none).
        assert stats.kernel_calls <= stats.rounds
        # The memo caps pair evaluations at the number of distinct colliding
        # points, however many rounds re-examine them.
        assert stats.distance_evaluations <= heavy_workload["n"]

    @pytest.mark.parametrize(
        "query_index, pins",
        [
            # (answer, rounds, kernel_calls, distance_evaluations); scoring
            # one round per kernel call made 184 and 181 calls here, and 300
            # and 293 distance evaluations; blocks of 8, 16, 32, ... rounds
            # per level made 24 calls for each.
            (None, (None, 748, 6, 300)),
            (2, (81, 404, 6, 299)),
        ],
    )
    def test_independent_sampler_one_call_per_level(self, heavy_workload, query_index, pins):
        """Section 4 scores all rounds of a ``k`` level with one kernel call.

        At most one call per level entered: a regression to blocks within a
        level multiplies ``kernel_calls`` by about four, and one call per
        rejection round by about thirty.
        """
        sampler = _lsh(IndependentFairSampler).fit(heavy_workload["dataset"])
        if query_index is None:
            result = sampler.sample_detailed(heavy_workload["query"])
        else:
            query = heavy_workload["dataset"][query_index]
            result = sampler.sample_detailed(query, exclude_index=query_index)
        stats = result.stats
        sigma = max(1, math.ceil(sampler.sigma_factor * sampler._log_n() ** 2))
        assert stats.kernel_calls <= math.ceil(stats.rounds / sigma)
        assert stats.kernel_calls <= stats.rounds
        assert stats.distance_evaluations <= heavy_workload["n"]
        assert (result.index, stats.rounds, stats.kernel_calls, stats.distance_evaluations) == pins

    def test_permutation_sampler_logarithmic_kernel_calls(self, heavy_workload):
        sampler = _lsh(PermutationFairSampler).fit(heavy_workload["dataset"])
        result = sampler.sample_detailed(heavy_workload["query"])
        # Geometrically growing chunks: scanning even the whole 300-point
        # dedup'd view costs at most ceil(log_4(n / 32)) + 1 kernel calls.
        assert result.stats.kernel_calls <= 4
        assert result.stats.distance_evaluations <= heavy_workload["n"]

    def test_standard_lsh_one_kernel_call_per_bucket(self, heavy_workload):
        sampler = _lsh(StandardLSHSampler).fit(heavy_workload["dataset"])
        result = sampler.sample_detailed(heavy_workload["query"])
        assert result.stats.kernel_calls <= result.stats.buckets_probed
        assert result.stats.distance_evaluations <= heavy_workload["n"]


class TestEngineAggregates:
    def test_kernel_calls_stay_a_small_fraction_of_candidates(self, heavy_workload):
        sampler = _lsh(IndependentFairSampler, seed=11)
        engine = BatchQueryEngine.build(sampler, heavy_workload["dataset"], seed=11)
        queries = [heavy_workload["query"]] + heavy_workload["dataset"][:30]
        engine.run(queries)
        stats = engine.stats
        assert stats.candidates_scanned > 0
        assert stats.distance_kernel_calls > 0
        # Amortized: each batched kernel call must cover several candidates.
        # A regression to per-candidate evaluation pushes this ratio to ~1.
        assert stats.distance_kernel_calls * 3 <= stats.candidates_scanned
        # Memoization: pair evaluations never exceed candidates scanned.
        assert stats.distance_evaluations <= stats.candidates_scanned

    def test_counters_are_deterministic(self, heavy_workload):
        def serve():
            sampler = _lsh(IndependentFairSampler, seed=13)
            engine = BatchQueryEngine.build(sampler, heavy_workload["dataset"], seed=13)
            engine.run([heavy_workload["query"]] * 5 + heavy_workload["dataset"][:10])
            return engine.stats.to_dict()

        assert serve() == serve()


class TestCleanSortFreePrefixes:
    """Served draws pay only for their rank prefix, and dedup never sorts.

    The engine sweeps pending tombstones at each batch sync, so no served
    gather filters dead references; and rank-sorted views without rank ties
    between distinct points deduplicate in one pass, never through the
    two-sort fallback, in Section 3 and Section 4 alike.
    """

    def test_served_gathers_see_no_pending_tombstones(self, heavy_workload, monkeypatch):
        engine = BatchQueryEngine.build(
            _lsh(PermutationFairSampler, seed=23), heavy_workload["dataset"]
        )
        tables = engine.tables
        pending_seen = []
        gather = tables.colliding_view

        def _recording(*args, **kwargs):
            pending_seen.append(tables.pending_tombstones)
            return gather(*args, **kwargs)

        monkeypatch.setattr(tables, "colliding_view", _recording)
        queries = heavy_workload["dataset"][:25]
        engine.run(queries)
        for start in (100, 110, 120):
            for index in range(start, start + 4):
                engine.delete(index)
            engine.run(queries)
        assert pending_seen and set(pending_seen) == {0}
        # One sweep per batch with deletes.
        assert engine.stats.rebuilds_triggered == 3

    def test_tie_free_views_never_sort(self, heavy_workload, monkeypatch):
        from repro.core import fair_nns

        sorted_views = []
        by_sorting = fair_nns._first_occurrences_by_sorting
        monkeypatch.setattr(
            fair_nns,
            "_first_occurrences_by_sorting",
            lambda indices: sorted_views.append(1) or by_sorting(indices),
        )
        dataset = heavy_workload["dataset"]
        static = _lsh(PermutationFairSampler, seed=25).fit(dataset)
        for query in dataset[:20]:
            static.sample(query)
            static.sample_k(query, 3, replacement=False)
        engine = BatchQueryEngine.build(_lsh(PermutationFairSampler, seed=25), dataset)
        engine.run(dataset[:20])
        engine.delete(0)
        engine.insert_many(dataset[:5])
        engine.run(dataset[:20])
        assert engine.stats.prefix_scans == 40
        assert sorted_views == []

    def test_tie_free_section4_views_never_sort(self, heavy_workload, monkeypatch):
        from repro.core import fair_nnis, fair_nns

        sorted_views, deduped = [], []
        by_sorting = fair_nns._first_occurrences_by_sorting
        first_occurrences = fair_nnis._first_occurrences
        monkeypatch.setattr(
            fair_nns,
            "_first_occurrences_by_sorting",
            lambda indices: sorted_views.append(1) or by_sorting(indices),
        )
        monkeypatch.setattr(
            fair_nnis,
            "_first_occurrences",
            lambda ranks, indices: deduped.append(1) or first_occurrences(ranks, indices),
        )
        dataset = heavy_workload["dataset"]
        engine = BatchQueryEngine.build(_lsh(IndependentFairSampler, seed=27), dataset, seed=27)
        engine.run(dataset[:20])
        engine.delete(0)
        engine.insert_many(dataset[:5])
        engine.run(dataset[:20])
        # Dynamic tables draw 2^62-domain ranks: every view is tie-free.
        assert len(deduped) == 40
        assert sorted_views == []


class TestUnshardedPrefixCounters:
    """The unsharded engine answers through the bounded rank-prefix gather.

    A regression back to full-view scoring drops ``prefix_scans`` to zero; a
    budget or certification regression moves the pinned escalation count.
    """

    def test_single_draws_take_the_prefix_path(self, heavy_workload):
        engine = BatchQueryEngine.build(
            _lsh(PermutationFairSampler, seed=21), heavy_workload["dataset"]
        )
        queries = heavy_workload["dataset"][:25]
        responses = engine.run(queries + queries[:5])
        assert all(r.found for r in responses)
        stats = engine.stats
        # One certified scan per distinct single draw (duplicates coalesce).
        assert stats.coalesced_queries == 5
        assert stats.prefix_scans == 25
        # Plain dynamic tables have nothing to merge across shards.
        assert stats.shard_merges == 0
        # Cold-start escalations through the shared widened rounds: a
        # deterministic count (order-insensitive sums over the batch).
        assert stats.prefix_escalations == 82
        assert engine.stats_dict()["counters"]["prefix_budget"] == 2048


#: Counters whose totals are exact deterministic functions of a seeded
#: sharded workload.  ``key_cache_hits`` is excluded: its increments happen
#: on the hot path inside answer workers and are documented as best-effort
#: under parallel serving.
_DETERMINISTIC_SHARDED_COUNTERS = (
    "queries_served",
    "batches_served",
    "coalesced_queries",
    "candidates_scanned",
    "distance_evaluations",
    "distance_kernel_calls",
    "shard_merges",
    "prefix_scans",
    "prefix_escalations",
    "inserts",
    "deletes",
)


class TestShardedMergeCounters:
    """Counter-based guards for the sharded merge path (CI perf-guard job).

    A regression that re-merges cached buckets, merges buckets no query
    needs, or abandons the rank-prefix gather shows up in these exact
    deterministic counters long before it shows up on a wall clock.
    """

    def _sharded(self, sampler_cls, heavy_workload, seed=21):
        sampler = _lsh(sampler_cls, seed=seed)
        return ShardedEngine.build(sampler, heavy_workload["dataset"], n_shards=4)

    def test_merges_bounded_by_distinct_keys_and_cached_across_batches(
        self, heavy_workload
    ):
        engine = self._sharded(IndependentFairSampler, heavy_workload)
        queries = [heavy_workload["query"]] + heavy_workload["dataset"][:20]
        engine.run(queries)
        # The Section 4 sampler's sketch build at attach time already
        # materialized (and cached) every merged bucket, so a fresh engine
        # serves its first batches without a single re-merge.
        assert engine.stats.shard_merges == 0
        # Mutation invalidates the merged-bucket cache; the next batch
        # re-merges — but at most once per distinct (table, key) pair.
        engine.insert(frozenset({9000, 9001, 9002}))
        engine.run(queries)
        first = engine.stats.shard_merges
        assert 0 < first <= len(queries) * engine.tables.num_tables
        # An identical batch is then served entirely from the cache again.
        engine.run(queries)
        assert engine.stats.shard_merges == first

    def test_prefix_scan_replaces_full_merges_for_rank_prefix_samplers(
        self, heavy_workload
    ):
        engine = self._sharded(PermutationFairSampler, heavy_workload)
        queries = heavy_workload["dataset"][:25]
        responses = engine.run(queries)
        assert all(r.found for r in responses)  # hub workload: everyone is near
        # Single-draw batches of a rank-prefix sampler never materialize
        # merged buckets — candidates come from the bounded per-shard gather.
        assert engine.stats.shard_merges == 0
        assert engine.stats.prefix_scans == 25
        # The hub workload's colliding views dwarf the cold opening budget,
        # so the first batch escalates through the shared widened rounds — a
        # deterministic count (order-insensitive sums over the batch).
        assert engine.stats.prefix_escalations == 85
        # ... after which the controller has settled on the certifying depth.
        assert engine.stats_dict()["counters"]["prefix_budget"] == 2048

    def test_prefix_budget_controller_settles_and_probes_down(self, heavy_workload):
        """The second identical batch certifies at the tuned opening budget.

        Escalations are a cold-start cost, not a steady-state one: a warmed
        controller must serve the same batch with zero new escalations, and
        a batch that certifies entirely in round one must probe the budget
        one step *down* so over-gathering cannot become a fixed point.
        """
        engine = self._sharded(PermutationFairSampler, heavy_workload)
        queries = heavy_workload["dataset"][:25]
        engine.run(queries)
        cold_escalations = engine.stats.prefix_escalations
        tuned = engine.stats_dict()["counters"]["prefix_budget"]
        engine.run(queries)
        assert engine.stats.prefix_scans == 50
        assert engine.stats.prefix_escalations == cold_escalations  # no new ones
        # Whole batch certified in round one → the controller probes down.
        assert engine.stats_dict()["counters"]["prefix_budget"] == tuned // 2

    def test_sharded_counters_are_deterministic(self, heavy_workload):
        def serve(sampler_cls, seed):
            engine = self._sharded(sampler_cls, heavy_workload, seed=seed)
            engine.run([heavy_workload["query"]] * 5 + heavy_workload["dataset"][:15])
            engine.insert_many(heavy_workload["dataset"][:3])
            engine.run(heavy_workload["dataset"][10:20])
            stats = engine.stats.to_dict()
            return {key: stats[key] for key in _DETERMINISTIC_SHARDED_COUNTERS}

        for sampler_cls in (IndependentFairSampler, PermutationFairSampler):
            assert serve(sampler_cls, 23) == serve(sampler_cls, 23)

    def test_process_executor_supervision_counters(self, heavy_workload):
        """Clean serving through worker processes is restart- and replay-free.

        A spurious ``worker_restarts`` here means the supervisor is killing or
        losing healthy workers; a spurious ``mutations_replayed`` means replay
        work is happening outside crash recovery.  Both would silently eat the
        process executor's latency win, so they are pinned at zero.
        """
        engine = ProcessShardedEngine.build(
            _lsh(PermutationFairSampler, seed=21), heavy_workload["dataset"], n_shards=4
        )
        try:
            engine.run([heavy_workload["query"]] + heavy_workload["dataset"][:20])
            engine.insert_many(heavy_workload["dataset"][:3])
            engine.run(heavy_workload["dataset"][10:20])
            stats = engine.stats.to_dict()
            assert stats["worker_restarts"] == 0
            assert stats["mutations_replayed"] == 0
            # Both directions of the shard protocol actually carried frames.
            assert stats["ipc_bytes_sent"] > 0
            assert stats["ipc_bytes_received"] > 0
        finally:
            engine.close()

    def test_process_executor_ipc_volume_is_deterministic(self, heavy_workload):
        """IPC byte counts are an exact function of a seeded workload.

        The framing protocol sends pickled query/mutation frames; a regression
        that re-sends frames, pads payloads, or gathers from shards a query
        never needed shows up as a byte-count drift between identical runs
        long before it is measurable as latency.
        """

        def serve():
            engine = ProcessShardedEngine.build(
                _lsh(PermutationFairSampler, seed=23),
                heavy_workload["dataset"],
                n_shards=4,
            )
            try:
                engine.run([heavy_workload["query"]] * 5 + heavy_workload["dataset"][:15])
                engine.insert_many(heavy_workload["dataset"][:3])
                engine.run(heavy_workload["dataset"][10:20])
                stats = engine.stats.to_dict()
            finally:
                engine.close()
            keys = _DETERMINISTIC_SHARDED_COUNTERS + (
                "worker_restarts",
                "mutations_replayed",
                "ipc_bytes_sent",
                "ipc_bytes_received",
            )
            return {key: stats[key] for key in keys}

        assert serve() == serve()

    def test_sharded_answers_match_unsharded(self, heavy_workload):
        queries = [heavy_workload["query"]] + heavy_workload["dataset"][:15]
        reference = BatchQueryEngine.build(
            _lsh(PermutationFairSampler, seed=29), heavy_workload["dataset"]
        ).run(queries)
        sharded = self._sharded(PermutationFairSampler, heavy_workload, seed=29).run(queries)
        assert [r.indices for r in reference] == [r.indices for r in sharded]
        assert [r.stats for r in reference] == [r.stats for r in sharded]
