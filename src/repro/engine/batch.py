"""Batched query execution over any fitted neighbor sampler.

:class:`BatchQueryEngine` is the serving loop's front door.  Its job is to
make a batch of ``m`` queries much cheaper than ``m`` independent calls:

1. **Vectorized hashing.**  All queries are hashed against all ``L`` tables
   in one pass through the family's
   :class:`~repro.lsh.family.BatchHasher` (``LSHTables.query_keys_many``),
   then the per-query keys are primed into the table layer's key cache.  When
   the samplers subsequently call ``query_keys`` internally, the hash work is
   a dict lookup — hashing, the dominant per-query cost with hundreds of
   tables, is paid once per batch instead of once per query.
2. **Bounded rank-prefix gather.**  For samplers whose answer is fixed by
   a rank prefix of the colliding view
   (:attr:`~repro.core.base.LSHNeighborSampler.supports_rank_prefix_scan`)
   and that draw no randomness at query time, each query gathers only the
   bottom-``B`` colliding references by rank
   (:meth:`LSHTables.colliding_view(query, limit)
   <repro.lsh.tables.LSHTables.colliding_view>`) and the sampler certifies
   its answer from that prefix; queries that cannot certify escalate (×2)
   in shared widened rounds, and a
   :class:`~repro.engine.gather.PrefixBudgetController` tunes the opening
   ``B`` from each batch's certification profile.  Any certifying true
   prefix yields the same bytes and counters as the full view.
3. **Uniform dispatch.**  Everything else is answered through the sampler's
   public surface (``sample_detailed`` for single draws, ``sample_k`` for
   multi-draws), so every structure in :mod:`repro.core` — fair or baseline —
   can sit behind the engine unchanged.  For samplers without query-time
   randomness these fallback answers run in parallel chunks on a shared
   thread pool (numpy's hashing, sorting and distance kernels release the
   GIL); each answer is independent of the others, so bytes and counters
   are the same as answering them serially.  Samplers with query-time
   randomness answer every query this way, serially and in batch order.
4. **Mutation coalescing.**  ``insert``/``delete`` are forwarded to the
   attached :class:`~repro.engine.dynamic.DynamicLSHTables` and the sampler
   is re-synchronized lazily, once per batch: the tables' accumulated
   :class:`~repro.engine.dynamic.MutationDelta` is drained through
   :meth:`~repro.core.base.LSHNeighborSampler.notify_update` once per
   *batch of updates*, not once per update.  The same sync first sweeps
   the batch's tombstones out of their buckets, so gathers never filter
   dead references.

Engines over a static :class:`~repro.lsh.tables.LSHTables` support
everything except mutation.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from typing import Dict, Hashable, List, Optional, Sequence, Tuple, Union

from repro.core.base import LSHNeighborSampler, NeighborSampler
from repro.engine.dynamic import DynamicLSHTables
from repro.engine.gather import PrefixBudgetController, PrefixView
from repro.engine.requests import EngineStats, QueryRequest, QueryResponse
from repro.exceptions import (
    AlreadyDeletedError,
    InvalidParameterError,
    NotFittedError,
    SlotOutOfRangeError,
)
from repro.lsh.family import LSHFamily
from repro.lsh.tables import LSHTables, point_digest
from repro.registry import SAMPLERS
from repro.rng import SeedLike
from repro.types import Dataset, Point


def build_tables(
    owner: LSHNeighborSampler,
    dataset: Dataset,
    dynamic: bool = True,
    max_tombstone_fraction: float = 0.25,
    use_ranks: Optional[bool] = None,
    seed: SeedLike = None,
):
    """Build a table layer for *owner* exactly as its offline ``fit`` would.

    This is the one table-construction recipe shared by
    :meth:`BatchQueryEngine.build` and the :class:`~repro.api.FairNN`
    facade: ``(K, L)`` resolve through the owner's parameter machinery, the
    hash functions default to the owner's own table stream (so
    ``build(seed=s)`` and an offline ``fit(seed=s)`` draw identical
    functions), and for static tables the rank permutation comes from the
    owner's permutation stream.  ``use_ranks`` defaults to the owner's need;
    pass an explicit value when other rank-requiring samplers will share the
    tables.  Returns ``(tables, bound_dataset)`` where *bound_dataset* is
    what attached samplers must be given (the tables' own live container for
    dynamic tables).
    """
    n = len(dataset)
    if n == 0:
        raise InvalidParameterError("cannot build tables over an empty dataset")
    params = owner._resolve_parameters(n)
    family: LSHFamily = owner.family
    concatenated = family.concatenate(params.k) if params.k > 1 else family
    tables_seed = seed if seed is not None else owner._tables_rng
    if use_ranks is None:
        use_ranks = owner._use_ranks
    if dynamic:
        tables = DynamicLSHTables(
            concatenated,
            params.l,
            seed=tables_seed,
            use_ranks=use_ranks,
            max_tombstone_fraction=max_tombstone_fraction,
        )
        tables.fit(dataset)
        return tables, tables.dataset
    ranks = owner._perm_rng.permutation(n) if use_ranks else None
    tables = LSHTables(concatenated, params.l, seed=tables_seed)
    tables.fit(dataset, ranks=ranks)
    return tables, list(dataset)


#: Threads answering fallback queries in parallel.  One means serial.
_ANSWER_WORKERS = min(16, os.cpu_count() or 1)

_answer_pool: Optional[ThreadPoolExecutor] = None
_answer_pool_lock = threading.Lock()


def _shared_answer_pool() -> ThreadPoolExecutor:
    """The process-wide fallback answer pool, created on first use."""
    global _answer_pool
    with _answer_pool_lock:
        if _answer_pool is None:
            _answer_pool = ThreadPoolExecutor(
                max_workers=_ANSWER_WORKERS, thread_name_prefix="repro-answer"
            )
        return _answer_pool


class _LazyKeys(dict):
    """Per-position bucket keys of a batch, hashed on first use.

    Stands in for the batch-hashed key lists when batch hashing was skipped,
    so only the queries that actually gather or prime pay for hashing.
    """

    def __init__(self, tables: LSHTables, requests: Sequence[QueryRequest]):
        super().__init__()
        self._tables = tables
        self._requests = requests

    def __missing__(self, position: int) -> List[Hashable]:
        keys = self[position] = self._tables.query_keys(self._requests[position].query)
        return keys


class BatchQueryEngine:
    """Serve sampling queries in batches over one fitted sampler.

    Parameters
    ----------
    sampler:
        Any fitted :class:`~repro.core.base.NeighborSampler`.  Samplers bound
        to an :class:`~repro.lsh.tables.LSHTables` get vectorized batch
        hashing; others still get the uniform request/response surface.
    batch_hashing:
        Set False to disable key priming (used by the benchmarks to measure
        the win, and as an escape hatch for exotic samplers).
    coalesce_duplicates:
        Set False to answer every request independently even when the sampler
        is query-deterministic (duplicates are then re-executed).
    sampler_name:
        Serving name stamped on every :class:`QueryResponse`; defaults to the
        sampler's registry key (falling back to its class name).
    spec:
        Optional originating :class:`~repro.spec.SamplerSpec` or
        :class:`~repro.spec.EngineSpec`.  Purely declarative — the engine
        never reads it — but :func:`~repro.engine.snapshot.save_engine`
        persists it in the snapshot manifest (since format v3) so artifacts stay
        self-describing.

    The rank-prefix gather budget tunes itself between the
    :class:`~repro.engine.gather.PrefixBudgetController` defaults (128 and
    4096 references); it has no option.
    """

    def __init__(
        self,
        sampler: NeighborSampler,
        batch_hashing: bool = True,
        coalesce_duplicates: bool = True,
        sampler_name: Optional[str] = None,
        spec=None,
    ):
        if not getattr(sampler, "_fitted", False):
            raise NotFittedError("BatchQueryEngine requires a fitted (or attached) sampler")
        self.sampler = sampler
        self.batch_hashing = bool(batch_hashing)
        self.coalesce_duplicates = bool(coalesce_duplicates)
        self.sampler_name = (
            sampler_name
            if sampler_name is not None
            else SAMPLERS.name_of(type(sampler)) or type(sampler).__name__
        )
        self.spec = spec
        self.stats = EngineStats()
        self._wal = None
        self._tables_dirty = False
        # Serializes the mutate path (insert/delete/note_external_mutation)
        # and the lazy per-batch re-sync against each other: concurrent HTTP
        # mutations must not interleave MutationDelta bookkeeping or the
        # insert/delete counters, and a mutation landing mid-drain must not
        # race notify_update.  Reentrant because a sync may itself trigger
        # compaction paths that re-enter engine accounting.
        self._mutate_lock = threading.RLock()
        # Guards lifetime-counter accumulation in run() and the budget
        # controller's moves: concurrent batches of query-deterministic
        # samplers share both, and answer workers update the counters.
        self._stats_lock = threading.Lock()
        # Samplers with query-time randomness share one RNG stream, which is
        # not safe (or meaningful) to advance from concurrent batches; their
        # batches execute serially.  Query-deterministic samplers run
        # concurrent batches freely.
        self._serial_run_lock = threading.Lock()
        # The self-tuning gather budget.  Deterministic: it starts at the
        # floor and every move is a function of the batch stream alone.
        self._budget = PrefixBudgetController()

    # ------------------------------------------------------------------
    # Construction convenience
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        sampler: LSHNeighborSampler,
        dataset: Dataset,
        dynamic: bool = True,
        max_tombstone_fraction: float = 0.25,
        seed: SeedLike = None,
    ) -> "BatchQueryEngine":
        """Build tables for an *unfitted* LSH sampler and wrap it in an engine.

        This is the one-call path to a serving engine: parameters ``(K, L)``
        are resolved exactly as ``sampler.fit`` would, but the tables are
        created as :class:`~repro.engine.dynamic.DynamicLSHTables` (unless
        ``dynamic=False``) and the sampler is attached to them, so the
        resulting engine supports online inserts and deletes.
        """
        tables, bound_dataset = build_tables(
            sampler,
            dataset,
            dynamic=dynamic,
            max_tombstone_fraction=max_tombstone_fraction,
            seed=seed,
        )
        sampler.attach(tables, bound_dataset)
        return cls(sampler)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def tables(self) -> Optional[LSHTables]:
        """The sampler's table layer, when it has one."""
        return getattr(self.sampler, "tables", None)

    @property
    def is_dynamic(self) -> bool:
        """Whether the engine supports online index mutation."""
        return isinstance(self.tables, DynamicLSHTables)

    @property
    def num_live_points(self) -> int:
        """Live (non-tombstoned) indexed points."""
        tables = self.tables
        if isinstance(tables, DynamicLSHTables):
            return tables.num_live
        return self.sampler.num_points

    def stats_dict(self) -> Dict:
        """The engine's serving state as one JSON-serializable dict.

        Combines the lifetime :class:`~repro.engine.requests.EngineStats`
        counters (via :meth:`EngineStats.to_dict
        <repro.engine.requests.EngineStats.to_dict>`) with the engine's
        identity and index occupancy — the payload the HTTP ``/v1/stats``
        endpoint returns per sampler and the benchmark writers persist.
        """
        tables = self.tables
        store = self._current_store()
        if store is not None:
            # Mirror the block cache's lifetime counters into EngineStats
            # before serializing, so ``counters`` and ``store.cache`` agree.
            cache = store.cache_stats()
            if cache is not None:
                self.stats.store_cache_hits = int(cache["hits"])
                self.stats.store_cache_misses = int(cache["misses"])
                self.stats.store_bytes_fetched = int(cache["bytes_fetched"])
        # Likewise the live tuned opening budget of the prefix gather, so
        # operators can watch the controller settle and probe down.
        self.stats.prefix_budget = self._budget.limit
        payload = {
            "sampler": self.sampler_name,
            "sampler_class": type(self.sampler).__name__,
            "is_dynamic": self.is_dynamic,
            "live_points": int(self.num_live_points),
            "counters": self.stats.to_dict(),
        }
        if store is not None:
            payload["store"] = store.stats_dict()
        if isinstance(tables, DynamicLSHTables):
            payload["pending_tombstones"] = int(tables.pending_tombstones)
        return payload

    def _current_store(self):
        """The already-built columnar store serving this engine, or ``None``.

        Deliberately reads the cached slots (``tables._store`` /
        ``sampler._store``) instead of the lazy-building accessors: stats
        reporting must never force a columnar pack of the dataset.
        """
        tables = self.tables
        store = getattr(tables, "_store", None) if tables is not None else None
        if store in (None, False):
            store = getattr(self.sampler, "_store", None)
        return store or None

    # ------------------------------------------------------------------
    # Index mutation
    # ------------------------------------------------------------------
    def _dynamic_tables(self) -> DynamicLSHTables:
        tables = self.tables
        if not isinstance(tables, DynamicLSHTables):
            raise InvalidParameterError(
                "engine is backed by static tables; build with dynamic=True for insert/delete"
            )
        return tables

    def insert(self, point: Point) -> int:
        """Index a new point online; returns its dataset index."""
        return self.insert_many([point])[0]

    def insert_many(self, points: Dataset) -> List[int]:
        """Bulk-index new points (vectorized hashing, merged bucket splices).

        An empty batch is a documented no-op: ``insert_many([])`` returns
        ``[]`` without touching the tables — no
        :class:`~repro.engine.dynamic.MutationDelta` is recorded, no engine
        counter moves, and the attached sampler is not re-synchronized.
        """
        points = list(points)
        if not points:
            return []
        tables = self._dynamic_tables()
        with self._mutate_lock:
            if self._wal is not None:
                self._wal.append({"op": "insert", "points": points, "key": None})
            indices = tables.insert_many(points)
            self.stats.inserts += len(indices)
            if indices:
                self._tables_dirty = True
        return indices

    def delete(self, index: int) -> None:
        """Remove a point online (tombstone; the next batch sync sweeps it)."""
        tables = self._dynamic_tables()
        with self._mutate_lock:
            if self._wal is not None:
                # Mirror the table layer's validation so a doomed delete is
                # rejected before it is journaled (see DynamicLSHTables.delete).
                index = int(index)
                n = tables.num_points
                if not 0 <= index < n:
                    raise SlotOutOfRangeError(f"index {index} out of range [0, {n})")
                if not tables.alive[index]:
                    raise AlreadyDeletedError(f"point {index} was already deleted")
                self._wal.append({"op": "delete", "index": index, "key": None})
            tables.delete(index)
            self.stats.deletes += 1
            self._tables_dirty = True

    def attach_wal(self, wal) -> None:
        """Journal this engine's own mutations to *wal* before applying them.

        For standalone engines (no :class:`~repro.api.FairNN` facade) this
        provides the same log-before-apply durability contract the facade
        gets from ``serve(data_dir=...)``: replaying the log onto the
        snapshot the WAL position names reproduces the engine exactly.
        Pass ``None`` to detach.  Facade-managed engines do **not** need
        this — the facade journals at its own mutation entry points.
        """
        with self._mutate_lock:
            self._wal = wal

    def note_external_mutation(self, inserts: int = 0, deletes: int = 0) -> None:
        """Record index mutations applied directly to the shared table layer.

        When several engines serve different samplers over one table set
        (the :class:`~repro.api.FairNN` facade), the mutation is applied to
        the tables once and every engine is told about it here, so each one
        re-synchronizes its own sampler lazily on its next batch.
        """
        with self._mutate_lock:
            self.stats.inserts += int(inserts)
            self.stats.deletes += int(deletes)
            if inserts or deletes:
                self._tables_dirty = True

    def _sync(self) -> None:
        """Sweep pending tombstones, then propagate mutations to the sampler.

        Runs lazily, once per batch.  The sweep
        (:meth:`~repro.engine.dynamic.DynamicLSHTables.compact`) comes
        first, so served gathers see clean buckets and the swept keys land
        in the same :class:`~repro.engine.dynamic.MutationDelta` that
        ``notify_update`` then drains: the sampler sees one structured
        description of everything that changed since the last batch and can
        update only the affected per-bucket state.
        """
        if not self._tables_dirty:
            return
        with self._mutate_lock:
            if not self._tables_dirty:
                return
            tables = self.tables
            dynamic = isinstance(tables, DynamicLSHTables)
            if dynamic and tables.pending_tombstones:
                tables.compact()
            if isinstance(self.sampler, LSHNeighborSampler):
                self.sampler.notify_update()
            if dynamic:
                self.stats.rebuilds_triggered = tables.rebuilds_triggered
            self._tables_dirty = False

    # ------------------------------------------------------------------
    # Query execution
    # ------------------------------------------------------------------
    def run(self, requests: Sequence[Union[QueryRequest, Point]]) -> List[QueryResponse]:
        """Answer a batch of requests; responses are returned in order.

        Bare points are treated as ``QueryRequest(query=point)``.  Two
        batch-level amortizations apply: duplicate single-draw requests are
        coalesced when the sampler declares itself query-deterministic
        (serving traffic is heavy-tailed; hot queries repeat), and the
        distinct queries are hashed against all ``L`` tables in one
        vectorized pass.

        Concurrent ``run`` calls (the HTTP serving surface answers from
        handler threads) are safe: batches over query-deterministic samplers
        execute concurrently, while samplers with query-time randomness are
        serialized per engine so their RNG stream is never advanced from two
        threads at once.
        """
        if getattr(self.sampler, "deterministic_queries", False):
            return self._run_batch(requests)
        with self._serial_run_lock:
            return self._run_batch(requests)

    def _run_batch(self, requests: Sequence[Union[QueryRequest, Point]]) -> List[QueryResponse]:
        self._sync()
        tables = self.tables
        if not isinstance(tables, DynamicLSHTables):
            return self._answer_batch(requests)
        with tables.serving_batch():
            return self._answer_batch(requests)

    def _answer_batch(self, requests: Sequence[Union[QueryRequest, Point]]) -> List[QueryResponse]:
        normalized = [
            request if isinstance(request, QueryRequest) else QueryRequest(query=request)
            for request in requests
        ]
        distinct, assignment = self._coalesce(normalized)
        tables = self.tables
        primed = False
        keys_per_query = None
        if self.batch_hashing and tables is not None and len(distinct) > 1:
            queries = [request.query for request in distinct]
            keys_per_query = tables.query_keys_many(queries)
            tables.prime_key_cache(queries, keys_per_query)
            primed = True
        hits_before = tables.key_cache_hits if tables is not None else 0
        try:
            answers = self._execute(distinct, keys_per_query)
        finally:
            if primed:
                tables.clear_key_cache()
        with self._stats_lock:
            if tables is not None:
                self.stats.key_cache_hits += tables.key_cache_hits - hits_before
            for answer in answers:
                # Work counters accumulate here (not inside _answer) so that
                # subclasses may compute answers concurrently; multi-draw
                # responses carry empty QueryStats and contribute nothing,
                # exactly as before.
                self.stats.candidates_scanned += answer.stats.candidates_examined
                self.stats.distance_evaluations += answer.stats.distance_evaluations
                self.stats.distance_kernel_calls += answer.stats.kernel_calls
            self.stats.queries_served += len(normalized)
            self.stats.batches_served += 1
        responses = []
        for position, answer_index in enumerate(assignment):
            answer = answers[answer_index]
            if answer.request_index == position:
                responses.append(answer)
            else:
                responses.append(
                    QueryResponse(
                        request_index=position,
                        indices=list(answer.indices),
                        value=answer.value,
                        # Own copy: sharing one mutable QueryStats across
                        # coalesced responses would let a caller's edit to
                        # one response corrupt the counters of the others.
                        stats=replace(answer.stats),
                        sampler=answer.sampler,
                    )
                )
        return responses

    def _coalesce(self, normalized: Sequence[QueryRequest]):
        """Collapse duplicate single-draw requests for deterministic samplers.

        Returns ``(distinct_requests, assignment)`` where ``assignment[i]``
        is the index into ``distinct_requests`` answering request ``i``.
        Coalescing is exact — the sampler has declared that identical queries
        always receive identical answers — and never applies to multi-draw
        requests or samplers with query-time randomness.
        """
        eligible = self.coalesce_duplicates and getattr(
            self.sampler, "deterministic_queries", False
        )
        distinct: List[QueryRequest] = []
        assignment: List[int] = []
        slot_of: dict = {}
        for request in normalized:
            slot_key = None
            if eligible and request.k == 1:
                digest = point_digest(request.query)
                if digest is not None:
                    slot_key = (digest, request.exclude_index)
            slot = slot_of.get(slot_key) if slot_key is not None else None
            if slot is None:
                slot = len(distinct)
                distinct.append(request)
                if slot_key is not None:
                    slot_of[slot_key] = slot
            else:
                with self._stats_lock:
                    self.stats.coalesced_queries += 1
            assignment.append(slot)
        return distinct, assignment

    def sample_batch(self, queries: Sequence[Point]) -> List[Optional[int]]:
        """Convenience wrapper: one single-draw sample index per query."""
        return [response.index for response in self.run(list(queries))]

    def _use_prefix_scan(self) -> bool:
        """Whether this batch takes the rank-prefix gather.

        Needs a prefix-capable sampler without query-time randomness (its
        answers are then certified out of batch order, in shared rounds)
        over rank-built tables.
        """
        tables = self.tables
        return (
            getattr(self.sampler, "supports_rank_prefix_scan", False)
            and getattr(self.sampler, "deterministic_queries", False)
            and tables is not None
            and tables.ranks is not None
        )

    def _prefix_eligible(self, request: QueryRequest) -> bool:
        """Whether *request* can be served from the rank-prefix gather.

        Single draws always are (the ``sample_detailed_from_prefix``
        contract); multi-draw requests only when the sampler actually
        overrides :meth:`~repro.core.base.LSHNeighborSampler.
        sample_k_from_prefix` — the base refusal would force a pointless
        escalate-to-complete loop per query otherwise.
        """
        if request.k == 1:
            return True
        base = LSHNeighborSampler.sample_k_from_prefix
        return getattr(type(self.sampler), "sample_k_from_prefix", base) is not base

    def _execute(self, distinct, keys_per_query) -> List[QueryResponse]:
        """Answer the batch's distinct requests, in order.

        *keys_per_query* holds the pre-hashed per-table bucket keys of each
        distinct query (``None`` when batch hashing was skipped; keys are
        then hashed on first use).  Prefix-eligible requests are answered
        from the bounded gather (see :meth:`_use_prefix_scan`); the rest
        through :meth:`_answer`.
        """
        tables = self.tables
        positions: List[int] = []
        if self._use_prefix_scan():
            positions = [
                position
                for position, request in enumerate(distinct)
                if self._prefix_eligible(request)
            ]
        if keys_per_query is None and tables is not None:
            keys_per_query = _LazyKeys(tables, distinct)
        elif positions:
            # The gathers read their batch-hashed keys directly: each one is
            # a hashing pass batching avoided, like a primed-cache hit.
            with self._stats_lock:
                self.stats.key_cache_hits += len(positions)
        return self._answer_all(distinct, keys_per_query, positions)

    def _gather_prefixes(
        self, positions: Sequence[int], keys_per_query, limit: int
    ) -> Dict[int, PrefixView]:
        """Gather rank prefixes for *positions* at budget *limit*.

        *keys_per_query* is anything indexable by position (the batch list,
        or a per-escalation dict).
        """
        colliding_view = self.tables.colliding_view
        return {
            position: colliding_view(None, limit, keys_per_query[position])
            for position in positions
        }

    def _answer_parallel(
        self, distinct: Sequence[QueryRequest], positions: List[int]
    ) -> Dict[int, QueryResponse]:
        """Answer *positions* of a query-deterministic sampler in parallel chunks.

        Returns the responses it produced; the rest answer serially in batch
        order.  Produces none on a one-CPU host, and none when the dataset
        store has a block cache: the remote store's LRU is not locked, and
        its hit and miss counters depend on the order blocks are read.
        """
        if _ANSWER_WORKERS <= 1:
            return {}
        # Build the shared columnar store up front so answer workers never
        # race its lazy construction.
        store = self.sampler._active_store()
        if store is not None and store.cache_stats() is not None:
            return {}
        chunk_size = max(
            1, (len(positions) + 2 * _ANSWER_WORKERS - 1) // (2 * _ANSWER_WORKERS)
        )
        chunks = [positions[i : i + chunk_size] for i in range(0, len(positions), chunk_size)]

        def _answer_chunk(chunk: List[int]) -> List[QueryResponse]:
            return [self._answer(position, distinct[position]) for position in chunk]

        answered: Dict[int, QueryResponse] = {}
        pool = _shared_answer_pool()
        for chunk, responses in zip(chunks, pool.map(_answer_chunk, chunks)):
            answered.update(zip(chunk, responses))
        return answered

    # ------------------------------------------------------------------
    # The prefix/certify/escalate loop
    # ------------------------------------------------------------------
    def _answer_all(
        self,
        distinct: Sequence[QueryRequest],
        keys_per_query,
        positions: List[int],
    ) -> List[QueryResponse]:
        answered: Dict[int, QueryResponse] = {}
        if positions:
            answered = self._answer_prefixes_batched(positions, distinct, keys_per_query)
        fallback = [position for position in range(len(distinct)) if position not in answered]
        if getattr(self.sampler, "deterministic_queries", False) and len(fallback) > 1:
            # No query-time randomness: each answer is independent of the
            # others, so answering out of order changes no byte or counter.
            answered.update(self._answer_parallel(distinct, fallback))
        # Everything left answers serially, in batch order: the prefix and
        # parallel paths only run for samplers without query-time
        # randomness, so this is the first point any sampler RNG advances.
        return [
            answered[position] if position in answered else self._answer(position, request)
            for position, request in enumerate(distinct)
        ]

    def _certify_prefix(
        self, position: int, request: QueryRequest, view: PrefixView
    ) -> Optional[QueryResponse]:
        """One certification attempt of *request* against a gathered prefix.

        Dispatches on ``k``: single draws through
        ``sample_detailed_from_prefix`` (full per-query work counters in the
        response, exactly like the full-view detailed path), multi-draw
        requests through ``sample_k_from_prefix`` (indices-only response,
        exactly like the ``sample_k`` path).  Returns ``None`` when the
        sampler refuses to certify from this prefix.
        """
        if request.k == 1:
            result = self.sampler.sample_detailed_from_prefix(
                request.query, view, view.complete, exclude_index=request.exclude_index
            )
            if result is None:
                return None
            return self._detailed_response(position, result)
        indices = self.sampler.sample_k_from_prefix(
            request.query, view, view.complete, request.k, replacement=request.replacement
        )
        if indices is None:
            return None
        return QueryResponse(
            request_index=position,
            indices=[int(i) for i in indices],
            sampler=self.sampler_name,
        )

    def _answer_prefixes_batched(
        self,
        positions: Sequence[int],
        distinct: Sequence[QueryRequest],
        keys_per_query,
    ) -> Dict[int, QueryResponse]:
        """Certify *positions* from rank prefixes, escalating whole rounds.

        Only valid for samplers without query-time randomness: their answers
        are pure functions of the (provably exact) prefix view, so queries
        can be certified out of batch order and every query that refuses to
        certify at the current limit joins one shared widened gather round
        (×2 budget).  A position whose *complete* view still would not
        certify is left out of the result and takes the full-view fallback.
        The batch's per-round certification profile feeds the budget
        controller.
        """
        answered: Dict[int, QueryResponse] = {}
        pending = list(positions)
        start_limit = limit = self._budget.limit
        views = self._gather_prefixes(pending, keys_per_query, limit)
        certified_per_round: List[Tuple[int, int]] = []
        scans = 1
        while pending:
            failed: List[int] = []
            certified = 0
            for position in pending:
                view = views[position]
                response = self._certify_prefix(position, distinct[position], view)
                if response is not None:
                    certified += 1
                    answered[position] = response
                elif not view.complete:
                    failed.append(position)
                # else: complete view refused — full-view fallback later.
            with self._stats_lock:
                self.stats.prefix_scans += certified
                self.stats.prefix_escalations += certified * (scans - 1)
            certified_per_round.append((limit, certified))
            if not failed:
                break
            limit *= 2
            scans += 1
            views.update(self._gather_prefixes(failed, keys_per_query, limit))
            pending = failed
        with self._stats_lock:
            self._budget.observe_batch(certified_per_round, start_limit)
        return answered

    def _answer(self, position: int, request: QueryRequest) -> QueryResponse:
        if request.k == 1:
            result = self.sampler.sample_detailed(
                request.query, exclude_index=request.exclude_index
            )
            return self._detailed_response(position, result)
        indices = self.sampler.sample_k(request.query, request.k, replacement=request.replacement)
        return QueryResponse(
            request_index=position,
            indices=[int(i) for i in indices],
            sampler=self.sampler_name,
        )

    def _detailed_response(self, position: int, result) -> QueryResponse:
        return QueryResponse(
            request_index=position,
            indices=[] if result.index is None else [int(result.index)],
            value=result.value,
            stats=result.stats,
            sampler=self.sampler_name,
        )
