"""The gather layer: primitives, budget controller, parallel-fallback parity.

Three layers of guarantees for :mod:`repro.engine.gather` and the query
loop of :class:`~repro.engine.batch.BatchQueryEngine`:

1. **Primitive correctness** — :func:`~repro.engine.gather.bounded_prefix`
   produces true, certified rank prefixes, and
   :class:`~repro.engine.gather.PrefixView` stays unpackable as the bare
   ``(ranks, indices)`` tuple.
2. **Controller determinism** — :class:`~repro.engine.gather.
   PrefixBudgetController` is a pure, order-insensitive function of the
   per-round certification counts: injectable state, exact tuning moves,
   probe-down clock.
3. **Parallel-fallback parity** — for the same batch stream, the engine
   returns the sampler's own full-view answers byte for byte, and answering
   fallback queries in parallel chunks moves no answer, no counter and no
   controller state, for single draws, ``k``-draws and the standard-LSH
   sampler (which always answers from the full view) alike.  Samplers with
   query-time randomness answer from the full view in batch order.  A store
   with a block cache is answered serially, so its cache counters stay
   order-independent.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.base import LSHNeighborSampler
import repro.engine.batch as engine_batch
from repro.engine import BatchQueryEngine, load_engine, save_engine
from repro.engine.batch import build_tables
from repro.engine.gather import PrefixBudgetController, PrefixView, bounded_prefix
from repro.engine.requests import QueryRequest, QueryResponse
from repro.exceptions import InvalidParameterError
from repro.spec import LSHSpec, SamplerSpec
from repro.store import LocalBlockClient

from repro import MinHashFamily, registry
from repro.core import StandardLSHSampler

SET_PARAMS = {"radius": 0.35, "far_radius": 0.1, "num_hashes": 2, "num_tables": 8}


def _make_sampler(name, seed=7):
    spec = SamplerSpec(name, SET_PARAMS, lsh=LSHSpec("minhash"), seed=seed)
    return spec.build()


def _build_sampler(name, seed=7):
    """Like ``_make_sampler`` but rank-enabled for standard LSH.

    The classical sampler does not need ranks to answer; over rank-built
    tables it must still skip the bounded rank-prefix gather.
    """
    if name == "standard_lsh":
        return StandardLSHSampler(MinHashFamily(), seed=seed, use_ranks=True, **SET_PARAMS)
    return _make_sampler(name, seed=seed)


def _assert_identical(reference, candidate):
    assert len(reference) == len(candidate)
    for left, right in zip(reference, candidate):
        assert left.indices == right.indices
        assert left.value == right.value
        assert left.stats == right.stats
        assert left.sampler == right.sampler


@pytest.fixture
def parallel_fallback(monkeypatch):
    """Switch the parallel fallback on (two workers, even on one CPU) or off.

    Returns a setter; the calls list counts batches that reached the pool.
    """
    calls = []
    pool_of = engine_batch._shared_answer_pool

    def counted_pool():
        calls.append(1)
        return pool_of()

    monkeypatch.setattr(engine_batch, "_shared_answer_pool", counted_pool)

    def switch(on):
        monkeypatch.setattr(engine_batch, "_ANSWER_WORKERS", 2 if on else 1)
        return calls

    return switch


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
        assert view.complete

    def test_bounded_gather_is_a_true_certified_prefix(self, hub_dataset):
        tables, _ = build_tables(_make_sampler("permutation"), hub_dataset)
        query = hub_dataset[0]
        keys = tables.query_keys(query)
        buckets = [b for b in tables.query_buckets(query) if len(b)]
        all_ranks = np.concatenate([b.ranks for b in buckets])
        order = np.argsort(all_ranks, kind="stable")
        full_ranks = all_ranks[order]
        full_indices = np.concatenate([b.indices for b in buckets])[order]
        for limit in (4, 16, 10_000):
            view = bounded_prefix(tables, keys, limit)
            ranks, indices = view
            # A true prefix: byte-identical head of the full rank-sorted view,
            # cut strictly below the truncation boundary.
            assert np.array_equal(ranks, full_ranks[: ranks.size])
            assert np.array_equal(indices, full_indices[: indices.size])
            assert view.complete == (ranks.size == full_ranks.size)
            if not view.complete:
                assert ranks.size < limit
                assert full_ranks[ranks.size] > (ranks[-1] if ranks.size else -1)
        assert bounded_prefix(tables, keys, None).complete

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


def _lsh_backed_sampler_names():
    """Every registered sampler that can serve over dynamic tables."""
    names = []
    for name, cls in registry.SAMPLERS.items():
        if not issubclass(cls, LSHNeighborSampler):
            continue
        if registry.SAMPLERS.metadata(name).get("inputs") != "family":
            continue
        if not cls.supports_dynamic_ranks:
            continue  # e.g. rank_perturbation: permutation ranks only
        names.append(name)
    return sorted(names)


def _churn_workload(rng, n=150):
    dataset = [
        frozenset(int(x) for x in rng.choice(500, size=rng.integers(8, 25)))
        for _ in range(n)
    ]
    queries = list(dataset[:15]) + [
        frozenset(int(x) for x in rng.choice(500, size=12)) for _ in range(10)
    ]
    inserts = [frozenset(int(x) for x in rng.choice(500, size=15)) for _ in range(30)]
    doomed = [int(x) for x in rng.choice(n, size=45, replace=False)]
    return dataset, queries, inserts, doomed


def _serve_and_churn(engine, queries, inserts, doomed):
    """A serving trace: batches interleaved with churn (deletes cross sweeps)."""
    responses = list(engine.run(queries))
    engine.insert_many(inserts)
    responses += engine.run(queries)
    for position, index in enumerate(doomed):
        engine.delete(index)
        if position % 7 == 0:
            responses += engine.run(queries[:4])
    responses += engine.run(queries)
    responses += engine.run([QueryRequest(q, k=3, replacement=False) for q in queries[:6]])
    responses += engine.run([QueryRequest(q, exclude_index=i) for i, q in enumerate(queries[:6])])
    return responses


class TestExecutorGatherEquivalence:
    """One gather loop answers like the sampler, serially or in parallel.

    Identical answers alone would tolerate divergent budget dynamics (a
    wrong budget costs work, not bytes) — so the controller's full state is
    compared after every batch too.
    """

    @pytest.mark.parametrize("sampler_name", ["permutation", "standard_lsh"])
    def test_byte_identical_answers_and_budget_sequences(
        self, hub_dataset, sampler_name, parallel_fallback
    ):
        stream = _batch_stream(hub_dataset)

        def serve(parallel):
            parallel_fallback(parallel)
            engine = BatchQueryEngine.build(_build_sampler(sampler_name), hub_dataset)
            answers, budgets = [], []
            for requests in stream:
                answers.append(engine.run(list(requests)))
                budgets.append(engine._budget.state_dict())
            return answers, budgets, engine.stats.to_dict()

        # The reference bypasses the engine: the sampler's own full-view
        # sample_detailed / sample_k over identically built tables.
        sampler = _build_sampler(sampler_name)
        tables, bound = build_tables(sampler, hub_dataset)
        sampler.attach(tables, bound)
        reference = [
            _reference_responses(sampler, sampler_name, requests) for requests in stream
        ]

        serial = serve(parallel=False)
        parallel = serve(parallel=True)
        for answers, _, counters in (serial, parallel):
            for ref_batch, served in zip(reference, answers):
                _assert_identical(ref_batch, served)
            if sampler_name == "permutation":
                # The gather did most of the answering.
                assert counters["prefix_scans"] > 0
            else:
                # Standard LSH has no rank-ordered scan: the full view answers.
                assert counters["prefix_scans"] == 0
        # Answering the fallback in parallel moves no budget and no counter.
        assert serial[1] == parallel[1]
        assert serial[2] == parallel[2]

    def test_rankless_standard_lsh_answers_identically_in_parallel(
        self, hub_dataset, parallel_fallback
    ):
        """Without ranks every query takes the fallback: all of them run on
        the pool, and answers and every counter match the serial engine."""

        def serve(parallel):
            calls = parallel_fallback(parallel)
            before = len(calls)
            engine = BatchQueryEngine.build(_make_sampler("standard_lsh"), hub_dataset)
            assert engine.tables.ranks is None
            answers = [engine.run(list(requests)) for requests in _batch_stream(hub_dataset)]
            return answers, engine.stats.to_dict(), len(calls) - before

        serial_answers, serial_counters, serial_pooled = serve(parallel=False)
        answers, counters, pooled = serve(parallel=True)
        for left, right in zip(serial_answers, answers):
            _assert_identical(left, right)
        assert serial_counters == counters
        assert serial_pooled == 0 and pooled == len(_batch_stream(hub_dataset))

    def test_every_lsh_backed_sampler_is_covered(self):
        # Keep the derived sampler list below honest against the registry.
        assert set(_lsh_backed_sampler_names()) == {
            "approximate",
            "collect_all",
            "independent",
            "permutation",
            "standard_lsh",
        }

    @pytest.mark.parametrize("name", _lsh_backed_sampler_names())
    def test_parallel_fallback_is_byte_identical_with_churn(self, name, parallel_fallback):
        dataset, queries, inserts, doomed = _churn_workload(np.random.default_rng(42))

        def serve(parallel):
            parallel_fallback(parallel)
            engine = BatchQueryEngine.build(_make_sampler(name), dataset)
            responses = _serve_and_churn(engine, queries, inserts, doomed)
            return responses, engine.stats.to_dict()

        serial_responses, serial_counters = serve(parallel=False)
        responses, counters = serve(parallel=True)
        _assert_identical(serial_responses, responses)
        assert serial_counters == counters

    def test_remote_store_answers_serially_with_repeatable_cache_counters(
        self, hub_dataset, tmp_path, parallel_fallback
    ):
        """The remote store's LRU has no lock and counts hits in read order,
        so fallback queries over it answer serially, run after run."""
        built = BatchQueryEngine.build(_make_sampler("standard_lsh"), hub_dataset)
        save_engine(built, tmp_path / "snap")
        calls = parallel_fallback(True)
        store = {"backend": "remote", "cache_blocks": 2, "block_size": 8}

        def serve():
            engine = load_engine(
                tmp_path / "snap",
                store=store,
                block_client=LocalBlockClient(tmp_path / "snap"),
            )
            answers = engine.run(list(hub_dataset[:40]))
            return answers, engine.stats_dict()["counters"]

        first_answers, first_counters = serve()
        second_answers, second_counters = serve()
        assert calls == []
        _assert_identical(first_answers, second_answers)
        _assert_identical(built.run(list(hub_dataset[:40])), first_answers)
        assert first_counters == second_counters
        assert first_counters["store_cache_misses"] > 0

    def test_one_cpu_answers_serially(self, hub_dataset, parallel_fallback):
        calls = parallel_fallback(False)
        engine = BatchQueryEngine.build(_make_sampler("standard_lsh"), hub_dataset)
        engine.run(list(hub_dataset[:20]))
        assert calls == []

    def test_prefix_flag_without_override_falls_back_to_full_view(self, hub_dataset):
        """A sampler may declare supports_rank_prefix_scan but keep the base
        sample_detailed_from_prefix (always None): the engine must fall back
        to the full view once the prefix is complete, not escalate forever."""

        class FlaggedWithoutOverride(StandardLSHSampler):
            # Declare the capability over the base always-refuse
            # sample_detailed_from_prefix / sample_k_from_prefix.
            supports_rank_prefix_scan = True

        sampler = FlaggedWithoutOverride(MinHashFamily(), seed=7, use_ranks=True, **SET_PARAMS)
        engine = BatchQueryEngine.build(sampler, hub_dataset)
        responses = engine.run(list(hub_dataset[:5]))
        assert len(responses) == 5
        assert engine.stats.prefix_scans == 0  # nothing certified via prefix

    def test_prefix_flag_with_query_randomness_answers_full_view_in_order(
        self, hub_dataset, parallel_fallback
    ):
        """A prefix-capable sampler that draws randomness per query never
        takes the prefix path: every request is answered from the full view,
        serially and in batch order, so its RNG advances exactly as in
        direct calls."""
        prefix_calls = []

        class RandomizedPrefixFlag(StandardLSHSampler):
            supports_rank_prefix_scan = True

            def sample_detailed_from_prefix(self, *args, **kwargs):
                prefix_calls.append(1)
                return None

        def make():
            return RandomizedPrefixFlag(
                MinHashFamily(), seed=7, use_ranks=True, shuffle_tables=True, **SET_PARAMS
            )

        calls = parallel_fallback(True)
        engine = BatchQueryEngine.build(make(), hub_dataset)
        assert not engine.sampler.deterministic_queries
        assert engine.tables.ranks is not None
        reference = make()
        tables, bound = build_tables(reference, hub_dataset)
        reference.attach(tables, bound)
        for requests in _batch_stream(hub_dataset):
            _assert_identical(
                _reference_responses(reference, engine.sampler_name, requests),
                engine.run(list(requests)),
            )
        assert prefix_calls == [] and calls == []
        assert engine.stats.prefix_scans == 0

# ----------------------------------------------------------------------
class TestBoundedCollidingView:
    """``colliding_view(query, limit)`` on every table layout.

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
        engine._budget = PrefixBudgetController(floor=4, cap=64)
        return engine

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
