"""The unified gather layer: primitives, budget controller, executor parity.

Three layers of guarantees for :mod:`repro.engine.gather`, the rank-prefix
core every engine shares:

1. **Primitive correctness** — :func:`~repro.engine.gather.
   bounded_shard_prefix` / :func:`~repro.engine.gather.merge_prefix_parts`
   produce true, certified global rank prefixes (with sound per-table
   completeness metadata), and :class:`~repro.engine.gather.PrefixView`
   stays unpackable as the bare ``(ranks, indices)`` tuple.
2. **Controller determinism** — :class:`~repro.engine.gather.
   PrefixBudgetController` is a pure, order-insensitive function of the
   per-round certification counts: injectable state, exact tuning moves,
   probe-down clock.
3. **Executor parity** — for the same batch stream, the unsharded, thread
   and process engines return the sampler's own full-view answers byte for
   byte, and engines gathering from the same shard layout walk the exact
   same controller state sequence, for single draws, ``k``-draws and the
   bucket-replaying standard-LSH sampler alike.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import BatchQueryEngine, ShardedEngine
from repro.engine.batch import build_tables
from repro.engine.gather import (
    PrefixBudgetController,
    PrefixView,
    bounded_shard_prefix,
    merge_prefix_parts,
    split_budget,
)
from repro.engine.procpool import ProcessShardedEngine
from repro.engine.requests import QueryRequest, QueryResponse
from repro.exceptions import InvalidParameterError
from repro.spec import LSHSpec, SamplerSpec

from repro import EngineSpec, FairNN, MinHashFamily
from repro.core import StandardLSHSampler

from test_sharded import SET_PARAMS, _assert_identical, _make_sampler


def _build_sampler(name, seed=7):
    """Like ``_make_sampler`` but rank-enabled for standard LSH.

    The classical sampler does not need ranks to answer, but only tables
    built *with* ranks expose the bounded rank-prefix gather — the serving
    configuration under test here.
    """
    if name == "standard_lsh":
        return StandardLSHSampler(MinHashFamily(), seed=seed, use_ranks=True, **SET_PARAMS)
    return _make_sampler(name, seed=seed)


@pytest.fixture(scope="module")
def hub_dataset():
    rng = np.random.default_rng(11)
    core = set(range(8))
    return [
        frozenset(core | {int(x) for x in rng.choice(range(8, 300), size=10, replace=False)})
        for _ in range(160)
    ]


# ----------------------------------------------------------------------
class TestGatherPrimitives:
    def test_prefix_view_unpacks_as_bare_tuple(self):
        ranks = np.array([1, 2, 3], dtype=np.int64)
        indices = np.array([7, 8, 9], dtype=np.intp)
        view = PrefixView(ranks, indices)
        unpacked_ranks, unpacked_indices = view
        assert unpacked_ranks is ranks and unpacked_indices is indices
        assert isinstance(view, tuple) and len(view) == 2
        assert view.table_ids is None and view.table_sizes is None

    def test_empty_view_carries_zeroed_table_sizes_when_asked(self):
        bare = PrefixView.empty()
        assert bare.ranks.size == 0 and bare.table_sizes is None
        tabled = PrefixView.empty(num_tables=5)
        assert tabled.table_ids.size == 0
        assert np.array_equal(tabled.table_sizes, np.zeros(5, dtype=np.int64))

    def test_split_budget_is_ceiling_division_with_floor(self):
        assert split_budget(128, 4) == 32
        assert split_budget(130, 4) == 33
        assert split_budget(128, 1) == 128
        # Tiny splits are floored: below it the per-shard overheads dominate.
        assert split_budget(64, 8) == 32
        assert split_budget(64, 8, floor=4) == 8

    def test_bounded_gather_merges_to_a_true_certified_prefix(self, hub_dataset):
        sampler = _make_sampler("permutation")
        engine = ShardedEngine.build(sampler, hub_dataset, n_shards=3)
        tables = engine.tables
        query = hub_dataset[0]
        full_ranks, full_indices = tables.colliding_view(query)
        order = np.argsort(full_ranks, kind="stable")
        full_ranks, full_indices = full_ranks[order], full_indices[order]

        keys = tables.query_keys(query)
        for limit in (4, 16, 10_000):
            parts = []
            for shard_index in engine.tables._fitted_shards():
                part = bounded_shard_prefix(tables.shards[shard_index], keys, limit)
                if part is not None:
                    parts.append((shard_index, part))
            view = merge_prefix_parts(parts, tables._shard_globals)
            ranks, indices = view
            # A true prefix: byte-identical head of the full rank-sorted view.
            assert np.array_equal(ranks, full_ranks[: ranks.size])
            assert np.array_equal(indices, full_indices[: indices.size])
            if view.complete:
                assert ranks.size == full_ranks.size

    def test_with_tables_metadata_accounts_per_bucket_completeness(self, hub_dataset):
        for n_shards in (None, 3):
            tables, _ = build_tables(
                _build_sampler("standard_lsh"), hub_dataset, n_shards=n_shards
            )
            query = hub_dataset[0]
            keys = tables.query_keys(query)
            view = tables.colliding_view(None, 10_000, keys=keys, with_tables=True)
            assert view.complete
            # At a generous limit every bucket survives whole: the per-table
            # reference counts must equal the recorded full bucket sizes,
            # which in turn must equal the buckets' actual sizes.
            buckets = tables.query_buckets(query)
            for table_index in range(tables.num_tables):
                in_view = int(np.count_nonzero(view.table_ids == table_index))
                assert in_view == int(view.table_sizes[table_index])
                assert in_view == len(buckets[table_index])
            # Two references per table set: far below this query's multiset
            # (a sharded view floors its per-shard split, so cut the shards
            # directly there).
            if n_shards is None:
                truncated = tables.colliding_view(None, 2, keys=keys, with_tables=True)
            else:
                parts = []
                for shard_index in tables._fitted_shards():
                    part = bounded_shard_prefix(
                        tables.shards[shard_index], keys, 2, with_tables=True
                    )
                    if part is not None:
                        parts.append((shard_index, part))
                truncated = merge_prefix_parts(
                    parts, tables._shard_globals, num_tables=tables.num_tables
                )
            assert not truncated.complete
            # Truncation may only ever *shrink* a bucket's surviving count,
            # and the recorded full sizes must not change.
            assert np.array_equal(truncated.table_sizes, view.table_sizes)
            for table_index in range(tables.num_tables):
                in_view = int(np.count_nonzero(truncated.table_ids == table_index))
                assert in_view <= int(truncated.table_sizes[table_index])


# ----------------------------------------------------------------------
class TestPrefixBudgetController:
    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            PrefixBudgetController(floor=0)
        with pytest.raises(InvalidParameterError):
            PrefixBudgetController(floor=128, cap=64)
        with pytest.raises(InvalidParameterError):
            PrefixBudgetController(probe_every=0)

    def test_injected_start_is_clamped(self):
        assert PrefixBudgetController(floor=128, cap=4096).limit == 128
        assert PrefixBudgetController(floor=128, cap=4096, start=512).limit == 512
        assert PrefixBudgetController(floor=128, cap=4096, start=7).limit == 128
        assert PrefixBudgetController(floor=128, cap=4096, start=10_000).limit == 4096

    def test_batch_certifying_nothing_is_a_no_op(self):
        controller = PrefixBudgetController(start=512)
        controller.observe_batch([(512, 0), (1024, 0)], opening=512)
        assert controller.limit == 512
        assert controller.batches_tuned == 0

    def test_single_round_batch_probes_down(self):
        controller = PrefixBudgetController(floor=128, start=1024)
        controller.observe_batch([(1024, 20)], opening=1024)
        assert controller.limit == 512
        # ... but never below the floor.
        controller = PrefixBudgetController(floor=128, start=128)
        controller.observe_batch([(128, 20)], opening=128)
        assert controller.limit == 128

    def test_multi_round_batch_settles_on_the_seven_eighths_quantile(self):
        controller = PrefixBudgetController(floor=128)
        # 24 of 26 certified by the 256 round: 24/26 >= 7/8 -> tune to 256,
        # leaving the one straggler that needed 512 to escalation.
        controller.observe_batch([(128, 20), (256, 4), (512, 2)], opening=128)
        assert controller.limit == 256
        # A fatter tail pushes the quantile a round deeper.
        controller = PrefixBudgetController(floor=128)
        controller.observe_batch([(128, 10), (256, 6), (512, 10)], opening=128)
        assert controller.limit == 512

    def test_probe_down_clock_fires_every_nth_tuned_batch(self):
        controller = PrefixBudgetController(floor=128, probe_every=4)
        rounds = [(128, 10), (256, 16)]
        for _ in range(3):
            controller.observe_batch(rounds, opening=128)
            assert controller.limit == 256
        controller.observe_batch(rounds, opening=128)  # 4th tuned batch
        assert controller.limit == 128
        assert controller.batches_tuned == 4

    def test_escalation_raises_to_certified_depth_clamped(self):
        controller = PrefixBudgetController(floor=128, cap=4096, start=256)
        controller.observe_escalation(1024)
        assert controller.limit == 1024
        controller.observe_escalation(512)  # never lowers
        assert controller.limit == 1024
        controller.observe_escalation(1 << 20)
        assert controller.limit == 4096

    def test_demand_beyond_cap_disables_prefix_attempts(self):
        controller = PrefixBudgetController(floor=128, cap=4096, probe_every=4)
        assert controller.attempt_prefix()
        # 7/8 of the batch only certified at 8192 — beyond the cap, so the
        # prefix path would escalate for most queries of every future batch.
        controller.observe_batch([(128, 1), (8192, 30)], opening=128)
        assert controller.disabled
        assert controller.limit == 4096  # clamped, for the probe batches
        # The skip clock lets one probe batch through every probe_every.
        assert [controller.attempt_prefix() for _ in range(8)] == (
            [False, False, False, True] * 2
        )
        # A probe still finding beyond-cap depth stays disabled...
        controller.observe_batch([(4096, 2), (16384, 30)], opening=4096)
        assert controller.disabled
        # ... while a healthy probe re-enables immediately.
        controller.observe_batch([(4096, 30)], opening=4096)
        assert not controller.disabled
        assert controller.attempt_prefix()

    def test_replay_determinism_via_state_dict(self):
        stream = [
            ([(128, 3), (256, 9)], 128),
            ([(256, 12)], 256),
            ([(128, 1), (256, 2), (512, 9)], 128),
            ([(512, 30)], 512),
        ]
        def run():
            controller = PrefixBudgetController(floor=128, cap=4096, probe_every=4)
            states = []
            for rounds, opening in stream:
                controller.observe_batch(rounds, opening)
                states.append(controller.state_dict())
            return states
        assert run() == run()


# ----------------------------------------------------------------------
def _batch_stream(dataset):
    """A mixed multi-batch stream: cold start, repeats, k-draws, churn-free.

    Built once so every engine consumes the exact same requests in the
    exact same batch boundaries.
    """
    hub = list(dataset[:20])
    return [
        hub[:12],                                        # cold batch
        hub[:12],                                        # warmed repeat
        [QueryRequest(q, k=3, replacement=False) for q in hub[5:15]],
        [QueryRequest(q, k=2, replacement=True) for q in hub[:8]] + hub[15:20],
        hub[8:20],
    ]


def _reference_responses(sampler, name, batch):
    """The sampler's own full-view answers, one direct call per request."""
    responses = []
    for position, request in enumerate(batch):
        if not isinstance(request, QueryRequest):
            request = QueryRequest(query=request)
        if request.k == 1:
            result = sampler.sample_detailed(request.query, exclude_index=request.exclude_index)
            responses.append(
                QueryResponse(
                    request_index=position,
                    indices=[] if result.index is None else [int(result.index)],
                    value=result.value,
                    stats=result.stats,
                    sampler=name,
                )
            )
        else:
            indices = sampler.sample_k(request.query, request.k, replacement=request.replacement)
            responses.append(
                QueryResponse(
                    request_index=position,
                    indices=[int(i) for i in indices],
                    sampler=name,
                )
            )
    return responses


class TestExecutorGatherEquivalence:
    """Every engine runs one gather loop, and it answers like the sampler.

    Identical answers alone would tolerate divergent budget dynamics (a
    wrong budget costs work, not bytes) — so the controller's full state is
    compared after every batch too.
    """

    @pytest.mark.parametrize("sampler_name", ["permutation", "standard_lsh"])
    def test_byte_identical_answers_and_budget_sequences(
        self, hub_dataset, sampler_name
    ):
        stream = _batch_stream(hub_dataset)

        def serve(engine):
            answers, budgets = [], []
            try:
                for batch in stream:
                    answers.append(engine.run(list(batch)))
                    budgets.append(engine._budget.state_dict())
                counters = engine.stats.to_dict()
            finally:
                close = getattr(engine, "close", None)
                if close is not None:
                    close()
            return answers, budgets, counters

        # The reference bypasses every engine: the sampler's own full-view
        # sample_detailed / sample_k over identically built tables.
        sampler = _build_sampler(sampler_name)
        tables, bound = build_tables(sampler, hub_dataset)
        sampler.attach(tables, bound)
        reference = [_reference_responses(sampler, sampler_name, batch) for batch in stream]

        served = {
            "unsharded": serve(
                BatchQueryEngine.build(_build_sampler(sampler_name), hub_dataset)
            ),
            "thread@1": serve(
                ShardedEngine.build(_build_sampler(sampler_name), hub_dataset, n_shards=1)
            ),
            "thread@4": serve(
                ShardedEngine.build(_build_sampler(sampler_name), hub_dataset, n_shards=4)
            ),
            "process@4": serve(
                ProcessShardedEngine.build(
                    _build_sampler(sampler_name), hub_dataset, n_shards=4
                )
            ),
        }
        for answers, _, _ in served.values():
            for ref_batch, batch in zip(reference, answers):
                _assert_identical(ref_batch, batch)
        # The gather did the answering on every engine.
        for _, _, counters in served.values():
            assert counters["prefix_scans"] > 0
        # An unsharded engine is the one-shard case of the same loop: same
        # budget moves, same certification/escalation profile.
        _, unsharded_budgets, unsharded_counters = served["unsharded"]
        _, one_shard_budgets, one_shard_counters = served["thread@1"]
        assert unsharded_budgets == one_shard_budgets
        for counter in ("prefix_scans", "prefix_escalations"):
            assert unsharded_counters[counter] == one_shard_counters[counter]
        assert unsharded_counters["shard_merges"] == 0
        # Same shard layout, different executor: same controller, same moves.
        _, thread_budgets, thread_counters = served["thread@4"]
        _, process_budgets, process_counters = served["process@4"]
        assert thread_budgets == process_budgets
        for counter in ("prefix_scans", "prefix_escalations", "shard_merges"):
            assert thread_counters[counter] == process_counters[counter]

    def test_disabled_controller_routes_batches_to_merged_buckets(self, hub_dataset):
        """A disabled regime skips the prefix path wholesale — and probes back.

        Answers must stay byte-identical either way (the merged-bucket path
        is the reference semantics); only the counters may move.
        """
        reference = BatchQueryEngine.build(
            _make_sampler("permutation"), hub_dataset
        ).run(list(hub_dataset[:10]))
        engine = ShardedEngine.build(_make_sampler("permutation"), hub_dataset, n_shards=2)
        try:
            engine._budget.disabled = True
            # probe_every=4: three straight batches skip the prefix path...
            for _ in range(3):
                _assert_identical(reference, engine.run(list(hub_dataset[:10])))
            assert engine.stats.prefix_scans == 0
            assert engine.stats.shard_merges > 0
            # ... and the fourth is a probe: this workload certifies within
            # the cap, so the controller switches the prefix path back on.
            _assert_identical(reference, engine.run(list(hub_dataset[:10])))
            assert engine.stats.prefix_scans > 0
            assert not engine._budget.disabled
            _assert_identical(reference, engine.run(list(hub_dataset[:10])))
        finally:
            engine.close()

    def test_configured_budget_seeds_the_controller(self, hub_dataset):
        built = ShardedEngine.build(_make_sampler("permutation"), hub_dataset, n_shards=2)
        built.close()
        engine = ShardedEngine(built.sampler, prefix_budget=256, prefix_budget_cap=512)
        try:
            assert engine._budget.limit == 256
            assert engine._budget.cap == 512
        finally:
            engine.close()
        with pytest.raises(InvalidParameterError):
            ShardedEngine(built.sampler, prefix_budget=512, prefix_budget_cap=256)

    def test_spec_budget_reaches_the_unsharded_engine(self, hub_dataset, tmp_path):
        spec = EngineSpec(
            samplers={"fair": SamplerSpec("permutation", SET_PARAMS, lsh=LSHSpec("minhash"))},
            prefix_budget=256,
            prefix_budget_cap=512,
        )
        served = FairNN.from_spec(spec).serve(list(hub_dataset))
        engine = served.engine()
        assert type(engine) is BatchQueryEngine
        assert engine._budget.limit == 256 and engine._budget.cap == 512
        assert engine.stats_dict()["counters"]["prefix_budget"] == 256
        served.run(list(hub_dataset[:12]))
        assert engine.stats.prefix_scans > 0
        # ... and survives a snapshot round trip.
        served.save(tmp_path / "snap")
        loaded = FairNN.load(tmp_path / "snap").engine()
        assert loaded._budget.floor == 256 and loaded._budget.cap == 512


# ----------------------------------------------------------------------
class TestBoundedCollidingView:
    """``colliding_view(query, limit)`` on every unsharded table layout.

    A deliberately tiny budget forces truncated prefixes and escalations, so
    the certify/escalate loop runs on every query; answers and per-query
    ``QueryStats`` must still equal the sampler's own full-view path.
    """

    @staticmethod
    def _engine(dataset, dynamic=True):
        engine = BatchQueryEngine.build(
            _make_sampler("permutation"),
            dataset,
            dynamic=dynamic,
            max_tombstone_fraction=0.9,
        )
        return BatchQueryEngine(engine.sampler, prefix_budget=4, prefix_budget_cap=64)

    @staticmethod
    def _assert_prefixes_of_full_view(tables, query):
        full = tables.colliding_view(query)
        assert full.complete
        for limit in (1, 4, 16, 10_000):
            view = tables.colliding_view(query, limit)
            assert view.ranks.size <= limit
            assert np.array_equal(view.ranks, full.ranks[: view.ranks.size])
            assert np.array_equal(view.indices, full.indices[: view.indices.size])
            assert view.complete == (view.ranks.size == full.ranks.size)
        return full

    @staticmethod
    def _assert_matches_sampler(engine, requests):
        responses = engine.run(requests)
        sampler = engine.sampler
        for request, response in zip(requests, responses):
            direct = sampler.sample_detailed(request.query, exclude_index=request.exclude_index)
            assert response.indices == ([] if direct.index is None else [direct.index])
            assert response.value == direct.value
            assert response.stats == direct.stats
        assert engine.stats.prefix_scans == len(requests)
        assert engine.stats.prefix_escalations > 0

    @pytest.mark.parametrize("exclude", [False, True])
    def test_dynamic_tables_with_pending_tombstones(self, hub_dataset, exclude):
        engine = self._engine(hub_dataset)
        tables = engine.tables
        doomed = list(range(1, 60, 3))
        for index in doomed:
            engine.delete(index)
        # Tombstoned, not yet compacted: the gather must filter liveness.
        assert tables.pending_tombstones == len(doomed)
        for position in range(20):
            full = self._assert_prefixes_of_full_view(tables, hub_dataset[position])
            assert not np.isin(full.indices, doomed).any()
        requests = [
            QueryRequest(hub_dataset[position], exclude_index=position if exclude else None)
            for position in range(0, 40, 2)
        ]
        self._assert_matches_sampler(engine, requests)

    def test_static_rank_built_tables(self, hub_dataset):
        engine = self._engine(hub_dataset, dynamic=False)
        tables = engine.tables
        assert not engine.is_dynamic and tables.ranks is not None
        for position in range(20):
            full = self._assert_prefixes_of_full_view(tables, hub_dataset[position])
            # The unbounded view is the rank-sorted concatenation of the
            # colliding buckets, exactly.
            buckets = [b for b in tables.query_buckets(hub_dataset[position]) if len(b)]
            ranks = np.concatenate([b.ranks for b in buckets])
            order = np.argsort(ranks, kind="stable")
            assert np.array_equal(full.ranks, ranks[order])
            assert np.array_equal(
                full.indices, np.concatenate([b.indices for b in buckets])[order]
            )
        requests = [
            QueryRequest(hub_dataset[position], exclude_index=position)
            for position in range(0, 40, 2)
        ]
        self._assert_matches_sampler(engine, requests)


def test_concurrent_batches_share_one_controller(hub_dataset):
    """Concurrent batches of a query-deterministic sampler run unserialized,
    so the budget controller's moves must not lose updates."""
    import sys
    import threading

    engine = BatchQueryEngine.build(_make_sampler("permutation"), hub_dataset)
    batch = list(hub_dataset[:24])
    expected = engine.run(batch)
    threads_n, batches_each = 6, 15
    failures = []

    def hammer():
        for _ in range(batches_each):
            responses = engine.run(batch)
            if [r.indices for r in responses] != [r.indices for r in expected]:
                failures.append(responses)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hammer) for _ in range(threads_n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures
    total = 1 + threads_n * batches_each
    # Every batch certifies at least one query, so each one tunes once.
    assert engine._budget.batches_tuned == total
    assert engine.stats.batches_served == total
    assert engine.stats.prefix_scans == total * len(batch)
