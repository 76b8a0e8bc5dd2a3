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
from repro.engine import BatchQueryEngine
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
    """The engine answers through the bounded rank-prefix gather.

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
        # Cold-start escalations through the shared widened rounds: a
        # deterministic count (order-insensitive sums over the batch).
        assert stats.prefix_escalations == 82
        assert engine.stats_dict()["counters"]["prefix_budget"] == 2048

    def test_prefix_budget_controller_settles_and_probes_down(self, heavy_workload):
        """The second identical batch certifies at the tuned opening budget.

        Escalations are a cold-start cost, not a steady-state one: a warmed
        controller must serve the same batch with zero new escalations, and
        a batch that certifies entirely in round one must probe the budget
        one step *down* so over-gathering cannot become a fixed point.
        """
        engine = BatchQueryEngine.build(
            _lsh(PermutationFairSampler, seed=21), heavy_workload["dataset"]
        )
        queries = heavy_workload["dataset"][:25]
        engine.run(queries)
        cold_escalations = engine.stats.prefix_escalations
        tuned = engine.stats_dict()["counters"]["prefix_budget"]
        engine.run(queries)
        assert engine.stats.prefix_scans == 50
        assert engine.stats.prefix_escalations == cold_escalations  # no new ones
        # Whole batch certified in round one → the controller probes down.
        assert engine.stats_dict()["counters"]["prefix_budget"] == tuned // 2

    @pytest.mark.parametrize(
        "sampler_cls",
        [IndependentFairSampler, StandardLSHSampler],
        ids=["independent", "standard_lsh"],
    )
    def test_counters_are_deterministic(self, heavy_workload, sampler_cls, monkeypatch):
        """Every counter is an exact function of a seeded workload — also
        when the rankless standard-LSH fallback answers in parallel."""
        from repro.engine import batch

        monkeypatch.setattr(batch, "_ANSWER_WORKERS", 2)

        def serve():
            engine = BatchQueryEngine.build(
                _lsh(sampler_cls, seed=23), heavy_workload["dataset"]
            )
            engine.run([heavy_workload["query"]] * 5 + heavy_workload["dataset"][:15])
            engine.insert_many(heavy_workload["dataset"][:3])
            engine.run(heavy_workload["dataset"][10:20])
            return engine.stats.to_dict()

        assert serve() == serve()
