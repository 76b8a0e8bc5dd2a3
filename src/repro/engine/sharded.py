"""Sharded parallel serving: partitioned dynamic tables + a merging engine.

This module scales the single-process serving stack of
:class:`~repro.engine.dynamic.DynamicLSHTables` /
:class:`~repro.engine.batch.BatchQueryEngine` out across ``n_shards``
partitions, the same shape memory-pod systems use to saturate hardware:

* :class:`ShardedLSHTables` partitions the dataset across ``n_shards``
  independent :class:`~repro.engine.dynamic.DynamicLSHTables` (deterministic
  round-robin or stable-hash placement, recorded per point), while presenting
  the **exact same table interface** one unsharded table set would:
  ``query_buckets`` / ``rank_range_candidates`` return merged cross-shard
  buckets whose contents are byte-identical to the unsharded structure's,
  and ``colliding_view`` merges per-shard rank-sorted gathers into the
  unsharded view.
* :class:`ShardedEngine` executes query batches across the shards through a
  thread-based worker pool (``concurrent.futures``; the batched numpy
  kernels release the GIL) and merges per-shard candidates into globally
  correct answers.

**Why the merge is exact.**  Every shard draws its hash functions from the
same stream and its ranks from the same global mutation stream an unsharded
:class:`~repro.engine.dynamic.DynamicLSHTables` would use, so a point's
bucket keys and rank are *placement-invariant*.  A bucket of the unsharded
structure is then precisely the disjoint union of the shards' buckets for
the same key, and because ranks are i.i.d. draws from the fixed ``2^62``
domain (exchangeable, collision-free in practice), re-sorting the union by
rank reproduces the unsharded bucket's member order exactly.  Samplers
attached to a :class:`ShardedLSHTables` therefore produce byte-identical
:class:`~repro.core.result.QueryResult`\\ s — same spec + seed + dataset,
any ``n_shards``.

**Rank-prefix gathering.**  The same exchangeability argument powers a
distributed top-k optimisation: for samplers whose answer is determined by a
rank prefix of the colliding view
(:attr:`~repro.core.base.LSHNeighborSampler.supports_rank_prefix_scan`),
each shard only surfaces its bottom-``B`` colliding references by rank.  Any
global candidate ranked below every truncated shard's boundary is provably
present, so the merged prefix is a true rank prefix of the full view and the
scan's early exit stays byte-identical — while the engine skips the full
multiset merge, sort and dedupe that dominate candidate-heavy queries.  The
gather itself — the bounded sorted-bucket per-shard slice, the certified
merge and the self-tuning budget controller — lives in
:mod:`repro.engine.gather`, and the loop that drives it in
:class:`~repro.engine.batch.BatchQueryEngine`: an unsharded engine is the
one-shard case of the same query path.  See those for the cost and
correctness arguments.
"""

from __future__ import annotations

import hashlib
import os
import threading
from collections.abc import Mapping
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Hashable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.engine.batch import BatchQueryEngine, build_tables
from repro.engine.dynamic import DynamicLSHTables, MutationDelta, serialized
from repro.engine.gather import PrefixView, bounded_shard_prefix, split_budget
from repro.store.points import points_share_store
from repro.engine.requests import QueryRequest, QueryResponse
from repro.exceptions import (
    AlreadyDeletedError,
    EmptyDatasetError,
    InvalidParameterError,
    SlotOutOfRangeError,
)
from repro.lsh.family import LSHFamily
from repro.lsh.tables import Bucket, point_digest
from repro.rng import SeedLike
from repro.types import Dataset, Point

__all__ = ["PLACEMENTS", "ShardedLSHTables", "ShardedEngine"]

#: Supported placement policies: ``round_robin`` assigns slot ``i`` to shard
#: ``i % n_shards``; ``hash`` places by a stable content hash of the point
#: (PYTHONHASHSEED-independent), falling back to round-robin for points
#: without a hashable digest.  Both are deterministic and recorded per point.
PLACEMENTS = ("round_robin", "hash")

#: Merged buckets cached per table before the cache is cycled.
_MERGED_CACHE_LIMIT = 4096


def _stable_point_hash(point) -> Optional[int]:
    """A process-stable 64-bit content hash of *point*, or ``None``.

    Built on :func:`~repro.lsh.tables.point_digest`; frozenset digests are
    canonicalized by sorting so the hash does not depend on set iteration
    order.  Unlike the builtin ``hash``, the value is independent of
    ``PYTHONHASHSEED``, so hash placement is reproducible across processes —
    a requirement for deterministic re-sharding and snapshot restores.
    """
    digest = point_digest(point)
    if digest is None:
        return None
    if isinstance(digest, frozenset):
        canonical = repr(sorted(digest, key=repr))
    else:
        canonical = repr(digest)
    blake = hashlib.blake2b(canonical.encode("utf-8"), digest_size=8)
    return int.from_bytes(blake.digest(), "big")


class _MergedTableView(Mapping):
    """Read-only ``key -> Bucket`` view merging one table across all shards.

    The owner's samplers index ``tables._tables[t]`` exactly as they would on
    an unsharded structure; this view answers those lookups by concatenating
    the shards' buckets for the key (translated to global slot indices) and
    restoring rank order.  Merged buckets are cached until the next mutation
    (the owner's ``mutation_epoch`` moves) or until the cache cycles at
    :data:`_MERGED_CACHE_LIMIT` entries.
    """

    __slots__ = ("_owner", "_table_index", "_cache", "_cache_epoch")

    def __init__(self, owner: "ShardedLSHTables", table_index: int):
        self._owner = owner
        self._table_index = table_index
        self._cache: Dict[Hashable, Bucket] = {}
        self._cache_epoch = owner.mutation_epoch

    # ------------------------------------------------------------------
    def _refresh_epoch(self) -> None:
        epoch = self._owner.mutation_epoch
        if epoch != self._cache_epoch:
            self._cache.clear()
            self._cache_epoch = epoch

    def get(self, key, default=None):
        """The merged bucket for *key*, or *default* when no shard holds it."""
        self._refresh_epoch()
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        merged = self._merge(key)
        if merged is None:
            return default
        if len(self._cache) >= _MERGED_CACHE_LIMIT:
            # Evict the oldest entry (dict preserves insertion order) rather
            # than clearing wholesale: a wholesale clear mid-batch would
            # throw away buckets just primed for the in-flight queries and
            # force uncachable re-merges during the answer phase.
            self._cache.pop(next(iter(self._cache)), None)
        self._cache[key] = merged
        return merged

    def _merge(self, key) -> Optional[Bucket]:
        owner = self._owner
        table_index = self._table_index
        parts: List[Tuple[int, Bucket]] = []
        for shard_index in owner._fitted_shards():
            bucket = owner.shards[shard_index]._tables[table_index].get(key)
            if bucket is not None and bucket.indices.size:
                parts.append((shard_index, bucket))
        if not parts:
            return None
        with owner._merge_count_lock:
            owner.merged_buckets += 1
        if len(parts) == 1:
            shard_index, bucket = parts[0]
            return Bucket(
                owner._shard_globals(shard_index)[bucket.indices], bucket.ranks
            )
        indices = np.concatenate(
            [owner._shard_globals(s)[bucket.indices] for s, bucket in parts]
        )
        if parts[0][1].ranks is not None:
            ranks = np.concatenate([bucket.ranks for _, bucket in parts])
            # Ranks are i.i.d. draws from the 2^62 domain, so the rank order
            # is (almost surely) total: re-sorting the union reproduces the
            # unsharded bucket's member order exactly.
            order = np.argsort(ranks, kind="stable")
            return Bucket(indices[order], ranks[order])
        # Rankless buckets keep insertion order, which for the dynamic table
        # layer is always ascending global slot order — recoverable by sort.
        order = np.argsort(indices, kind="stable")
        return Bucket(indices[order])

    # ------------------------------------------------------------------
    def __getitem__(self, key) -> Bucket:
        bucket = self.get(key)
        if bucket is None:
            raise KeyError(key)
        return bucket

    def __iter__(self):
        seen: Set[Hashable] = set()
        table_index = self._table_index
        for shard_index in self._owner._fitted_shards():
            for key in self._owner.shards[shard_index]._tables[table_index]:
                if key not in seen:
                    seen.add(key)
                    yield key

    def __len__(self) -> int:
        seen: Set[Hashable] = set()
        table_index = self._table_index
        for shard_index in self._owner._fitted_shards():
            seen.update(self._owner.shards[shard_index]._tables[table_index])
        return len(seen)

    def __contains__(self, key) -> bool:
        table_index = self._table_index
        return any(
            key in self._owner.shards[s]._tables[table_index]
            for s in self._owner._fitted_shards()
        )


class ShardedLSHTables(DynamicLSHTables):
    """``L`` LSH tables partitioned across ``n_shards`` dynamic shards.

    Construction, ranks and mutation streams are *byte-compatible* with an
    unsharded :class:`~repro.engine.dynamic.DynamicLSHTables` built from the
    same arguments: the hash functions come from the same seed stream, every
    point's rank is drawn from the same global mutation stream in the same
    order, and the merged bucket views reproduce the unsharded buckets
    exactly.  Samplers attach to this class unchanged.

    Parameters beyond :class:`~repro.engine.dynamic.DynamicLSHTables`:

    n_shards:
        Number of partitions (``>= 1``).
    placement:
        One of :data:`PLACEMENTS`.  The chosen shard of every slot is
        recorded (:attr:`shard_of`) and persisted by snapshots (format v4).
    """

    def __init__(
        self,
        family: LSHFamily,
        l: int,
        seed: SeedLike = None,
        use_ranks: bool = True,
        max_tombstone_fraction: float = 0.25,
        n_shards: int = 2,
        placement: str = "round_robin",
        *,
        _functions=None,
    ):
        super().__init__(
            family,
            l,
            seed=seed,
            use_ranks=use_ranks,
            max_tombstone_fraction=max_tombstone_fraction,
            _functions=_functions,
        )
        if not isinstance(n_shards, (int, np.integer)) or n_shards < 1:
            raise InvalidParameterError(f"n_shards must be an int >= 1, got {n_shards!r}")
        if placement not in PLACEMENTS:
            raise InvalidParameterError(
                f"placement must be one of {PLACEMENTS}, got {placement!r}"
            )
        self.n_shards = int(n_shards)
        self.placement = placement
        #: The per-shard dynamic tables.  They share this structure's hash
        #: functions (so bucket keys are placement-invariant) and never draw
        #: ranks themselves — every rank comes from the global stream.
        self.shards: List[DynamicLSHTables] = [
            DynamicLSHTables(
                family,
                l,
                seed=0,
                use_ranks=use_ranks,
                max_tombstone_fraction=max_tombstone_fraction,
                _functions=self._functions,
            )
            for _ in range(self.n_shards)
        ]
        self._shard_fitted: List[bool] = [False] * self.n_shards
        # Placement record: global slot -> (owning shard, slot inside it),
        # plus the inverse per-shard local -> global maps used to translate
        # shard bucket contents during merges.
        self._shard_of: List[int] = []
        self._local_of: List[int] = []
        self._globals_list: List[List[int]] = [[] for _ in range(self.n_shards)]
        self._globals_np: List[Optional[np.ndarray]] = [None] * self.n_shards
        # Raw insert batches whose per-table bucket keys have not been folded
        # into the global MutationDelta yet (shards hash their own sub-batch;
        # the global record is resolved lazily, on first delta read).
        self._unresolved_insert_points: List[Tuple[int, list]] = []
        #: Lifetime count of cross-shard bucket merges materialized (the
        #: counter behind ``EngineStats.shard_merges``).
        self.merged_buckets = 0
        # Merges run on worker threads; the lock makes the counter's
        # read-modify-write safe so totals stay deterministic (each distinct
        # (table, key) pair is merged by exactly one priming job).
        self._merge_count_lock = threading.Lock()
        # Observers of per-shard mutation ops (the process-pool engine's
        # replica feed).  Listeners fire after the op has landed in the
        # owning parent shard, with enough payload to re-apply it verbatim
        # on a replica of that shard.
        self._shard_op_listeners: List = []

    # ------------------------------------------------------------------
    # Shard-op observation (replica feeds)
    # ------------------------------------------------------------------
    def add_shard_op_listener(self, listener) -> None:
        """Register ``listener(shard_index, op, args)`` for shard mutations.

        ``op`` is one of ``"insert"`` (args ``(points, ranks, was_fit)`` —
        the shard sub-batch in shard-local order, its global-stream ranks,
        and whether it arrived as the shard's first ``fit``), ``"delete"``
        (args ``(local_index, point)`` — the point, so a replica's
        compaction sweep can hash it) or ``"compact"`` (args ``()``).  Replaying
        the stream against a byte-identical replica of the shard reproduces
        its state exactly: ranks are shipped rather than redrawn, and
        shard-local self-compaction triggers from identical thresholds.
        Listeners run synchronously under the caller's mutation context,
        *after* the parent shard reflects the op.
        """
        self._shard_op_listeners.append(listener)

    def remove_shard_op_listener(self, listener) -> None:
        """Unregister a listener registered via :meth:`add_shard_op_listener`."""
        try:
            self._shard_op_listeners.remove(listener)
        except ValueError:
            pass

    def _notify_shard_op(self, shard_index: int, op: str, args: tuple) -> None:
        for listener in list(self._shard_op_listeners):
            listener(shard_index, op, args)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shard_of(self) -> np.ndarray:
        """Owning shard of every dataset slot (recorded placement)."""
        return np.asarray(self._shard_of, dtype=np.intp)

    def shard_sizes(self) -> List[int]:
        """Number of slots (live and tombstoned) placed in each shard."""
        return [len(globals_) for globals_ in self._globals_list]

    def _fitted_shards(self):
        return [s for s in range(self.n_shards) if self._shard_fitted[s]]

    def _shard_globals(self, shard_index: int) -> np.ndarray:
        """The shard's local-slot -> global-slot translation array."""
        cached = self._globals_np[shard_index]
        globals_list = self._globals_list[shard_index]
        if cached is None or cached.size != len(globals_list):
            cached = np.asarray(globals_list, dtype=np.intp)
            self._globals_np[shard_index] = cached
        return cached

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def _place(self, points: Sequence[Point], start: int) -> List[int]:
        """The owning shard of each point, in batch order (deterministic)."""
        if self.placement == "round_robin" or self.n_shards == 1:
            return [(start + offset) % self.n_shards for offset in range(len(points))]
        placed = []
        for offset, point in enumerate(points):
            content = _stable_point_hash(point)
            placed.append(
                (start + offset) % self.n_shards
                if content is None
                else content % self.n_shards
            )
        return placed

    def _record_placement(self, shard_ids: List[int], start: int) -> List[List[int]]:
        """Record placement for a batch; returns per-shard offset lists."""
        per_shard: List[List[int]] = [[] for _ in range(self.n_shards)]
        next_local = [len(globals_) for globals_ in self._globals_list]
        for offset, shard_index in enumerate(shard_ids):
            per_shard[shard_index].append(offset)
            self._shard_of.append(shard_index)
            self._local_of.append(next_local[shard_index])
            next_local[shard_index] += 1
            self._globals_list[shard_index].append(start + offset)
            self._globals_np[shard_index] = None
        return per_shard

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @serialized
    def fit(self, dataset: Dataset, ranks: Optional[np.ndarray] = None) -> "ShardedLSHTables":
        """Partition *dataset* across the shards and build each one.

        Ranks are drawn **globally** — one call on the same mutation stream
        an unsharded fit would use — then routed to the owning shard, so a
        point's rank is independent of ``n_shards`` and ``placement``.
        """
        dataset = list(dataset)
        n = len(dataset)
        if n == 0:
            raise EmptyDatasetError("cannot build LSH tables over an empty dataset")
        if ranks is not None and not self._use_ranks:
            raise InvalidParameterError(
                "tables were configured with use_ranks=False; cannot fit with explicit ranks"
            )
        if ranks is not None:
            ranks = np.asarray(ranks, dtype=np.int64)
            if ranks.shape != (n,):
                raise InvalidParameterError(f"ranks must have shape ({n},), got {ranks.shape}")
        elif self._use_ranks:
            ranks = self._draw_ranks(n)

        # Reset the global slot state (mirrors the unsharded fit).
        self._points = dataset
        self._alive = np.ones(n, dtype=bool)
        self._num_live = n
        self._pending = set()
        self._unreleased = []
        self._n = n
        if ranks is not None:
            self._ranks_buf = np.array(ranks, dtype=np.int64)
            self._ranks = self._ranks_buf[:n]
        else:
            self._ranks_buf = np.empty(0, dtype=np.int64)
            self._ranks = None

        # Reset placement and shard state (refits rebuild everything).
        self._shard_of = []
        self._local_of = []
        self._globals_list = [[] for _ in range(self.n_shards)]
        self._globals_np = [None] * self.n_shards
        self._shard_fitted = [False] * self.n_shards
        per_shard = self._record_placement(self._place(dataset, 0), 0)

        def _fit_shard(shard_index: int) -> None:
            offsets = per_shard[shard_index]
            if not offsets:
                return
            subset = [dataset[offset] for offset in offsets]
            shard_ranks = None if ranks is None else ranks[offsets]
            self.shards[shard_index].fit(subset, ranks=shard_ranks)
            self.shards[shard_index].discard_delta()
            self._shard_fitted[shard_index] = True

        if self.n_shards > 1:
            with ThreadPoolExecutor(max_workers=self.n_shards) as pool:
                list(pool.map(_fit_shard, range(self.n_shards)))
        else:
            _fit_shard(0)

        self._tables = [_MergedTableView(self, t) for t in range(self.l)]
        self._fitted = True
        self._delta = MutationDelta.empty(self.l, start_epoch=self.mutation_epoch)
        self._unresolved_deletes = []
        self._unresolved_inserts = []
        self._unresolved_insert_points = []
        self._store = None
        return self

    def _restore_views(self) -> None:
        """(Re)create the merged table views (snapshot-restore entry point)."""
        self._tables = [_MergedTableView(self, t) for t in range(self.l)]

    # ------------------------------------------------------------------
    # Mutation delta plumbing
    # ------------------------------------------------------------------
    def _resolve_delta(self) -> None:
        # Insert batches were hashed by their owning shards only; the global
        # record hashes them here, against the shared functions, the first
        # time a consumer actually reads the delta.
        if self._unresolved_insert_points and not self._delta.overflowed:
            for start, points in self._unresolved_insert_points:
                self._unresolved_inserts.append((start, self.query_keys_many(points)))
        self._unresolved_insert_points.clear()
        super()._resolve_delta()

    @serialized
    def discard_delta(self) -> None:
        self._unresolved_insert_points.clear()
        super().discard_delta()

    def _maybe_overflow_delta(self) -> None:
        super()._maybe_overflow_delta()
        if self._delta.overflowed:
            self._unresolved_insert_points.clear()

    def _absorb_shard_sweeps(self, shard_index: int) -> None:
        """Fold a shard's compaction record into the global delta.

        Shards accumulate their own :class:`MutationDelta`, but the single
        consumer contract lives at the global level: per-item members are
        recorded globally (with global indices), so only the swept bucket
        keys — which need no translation — are kept; the rest of the shard
        record is discarded before it can grow or pin memory.
        """
        shard = self.shards[shard_index]
        delta = shard._delta
        for table_index in range(self.l):
            swept = delta.compacted_keys[table_index]
            if swept:
                self._delta.compacted_keys[table_index] |= swept
        shard.discard_delta()

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    @serialized
    def insert_many(self, points: Dataset, ranks=None) -> List[int]:
        """Bulk insert, routing each point to its recorded shard.

        Ranks come from the same global stream (and in the same order) an
        unsharded insert would draw them from; each owning shard hashes and
        splices only its own sub-batch.
        """
        self._check_fitted()
        points = list(points)
        count = len(points)
        if count == 0:
            return []
        new_ranks = self._checked_insert_ranks(count, ranks)

        start = self._n
        per_shard = self._record_placement(self._place(points, start), start)
        # Slots before shard buckets, as in the unsharded insert: queries
        # read without the lock.
        self._points.extend(points)
        if self._store not in (None, False) and not points_share_store(
            self._points, self._store
        ):
            try:
                self._store.append(points)
            except Exception:
                self._store = False
        self._grow_slots(new_ranks, count)
        for shard_index, offsets in enumerate(per_shard):
            if not offsets:
                continue
            shard = self.shards[shard_index]
            subset = [points[offset] for offset in offsets]
            shard_ranks = None if new_ranks is None else new_ranks[offsets]
            was_fit = not self._shard_fitted[shard_index]
            if self._shard_fitted[shard_index]:
                shard.insert_many(subset, ranks=shard_ranks)
            else:
                shard.fit(subset, ranks=shard_ranks)
                self._shard_fitted[shard_index] = True
            self._absorb_shard_sweeps(shard_index)
            self._notify_shard_op(shard_index, "insert", (subset, shard_ranks, was_fit))

        indices = list(range(start, start + count))
        self._delta.inserted.extend(indices)
        self._unresolved_insert_points.append((start, points))
        self.mutation_epoch += 1
        self._maybe_overflow_delta()
        return indices

    @serialized
    def delete(self, index: int) -> None:
        """Tombstone one point in its owning shard (global semantics).

        Same contract as :meth:`DynamicLSHTables.delete
        <repro.engine.dynamic.DynamicLSHTables.delete>`: raises
        :class:`~repro.exceptions.SlotOutOfRangeError` /
        :class:`~repro.exceptions.AlreadyDeletedError` before touching any
        state, records the mutation once in the global delta, and triggers a
        global compaction sweep when the pending-tombstone fraction crosses
        :attr:`max_tombstone_fraction` (shards additionally self-compact
        under their own local tombstone pressure).
        """
        self._check_fitted()
        if not 0 <= index < self._n:
            raise SlotOutOfRangeError(f"index {index} out of range [0, {self._n})")
        if not self._alive[index]:
            raise AlreadyDeletedError(f"point {index} was already deleted")
        shard_index = self._shard_of[index]
        # Capture the point object before shard-level compaction can release
        # its local copy; the global record hashes it lazily on delta reads.
        self._unresolved_deletes.append((index, self._points[index]))
        self.shards[shard_index].delete(self._local_of[index])
        self._absorb_shard_sweeps(shard_index)
        self._notify_shard_op(
            shard_index, "delete", (self._local_of[index], self._points[index])
        )
        self._delta.deleted.append(index)
        self.mutation_epoch += 1
        self._maybe_overflow_delta()
        self._alive[index] = False
        self._num_live -= 1
        self._pending.add(index)
        if len(self._pending) > self.max_tombstone_fraction * max(1, self._num_live):
            self.compact()

    @serialized
    def compact(self) -> None:
        """Sweep every shard's buckets and release the global slots."""
        self._check_fitted()
        if not self._pending:
            return
        for shard_index in self._fitted_shards():
            self.shards[shard_index].compact()
            self._absorb_shard_sweeps(shard_index)
            self._notify_shard_op(shard_index, "compact", ())
        self._release(self._pending)
        self._pending.clear()
        self.mutation_epoch += 1
        self.rebuilds_triggered += 1

    # ------------------------------------------------------------------
    # Batched candidate gathering
    # ------------------------------------------------------------------
    def prime_merged_buckets(
        self,
        keys_per_query: Sequence[List[Hashable]],
        executor: Optional[ThreadPoolExecutor] = None,
    ) -> int:
        """Materialize every merged bucket a query batch will touch.

        Deduplicates the batch's ``(table, bucket key)`` pairs, drops the
        ones already cached, and merges the rest — optionally fanned out
        over *executor* (each worker gathers its keys from all shards and
        merges them; the pairs are disjoint, so the work and the returned
        count are deterministic regardless of scheduling).  Subsequent
        sampler lookups during the batch are cache hits.  Returns the number
        of cross-shard merges performed.
        """
        self._check_fitted()
        needed: List[Set[Hashable]] = [set() for _ in range(self.l)]
        for keys in keys_per_query:
            for table_index, key in enumerate(keys):
                needed[table_index].add(key)
        jobs: List[Tuple[int, Hashable]] = []
        for table_index, view in enumerate(self._tables):
            view._refresh_epoch()
            cache = view._cache
            jobs.extend(
                (table_index, key) for key in needed[table_index] if key not in cache
            )
        if not jobs:
            return 0
        before = self.merged_buckets

        def _materialize(chunk: List[Tuple[int, Hashable]]) -> None:
            tables = self._tables
            for table_index, key in chunk:
                tables[table_index].get(key)

        if executor is None or len(jobs) < 8:
            _materialize(jobs)
        else:
            workers = max(1, getattr(executor, "_max_workers", 1))
            chunks = [jobs[i::workers] for i in range(workers)]
            list(executor.map(_materialize, [chunk for chunk in chunks if chunk]))
        return self.merged_buckets - before

    def _view_parts(self, keys: List[Hashable], limit: Optional[int], with_tables: bool):
        """Per-shard parts of :meth:`~repro.lsh.tables.LSHTables.colliding_view`.

        The global *limit* is split evenly across the fitted shards
        (:func:`~repro.engine.gather.split_budget`); each shard contributes
        its bottom slice by rank via
        :func:`~repro.engine.gather.bounded_shard_prefix`.  Because ranks
        are i.i.d. over the shared ``2^62`` domain, every global reference
        ranked strictly below the lowest truncation boundary is guaranteed
        present, so the merge cut at that boundary is a true rank prefix of
        the full view.  Without a limit nothing is cut and the merge is the
        full view; no merged bucket is materialized either way.
        """
        fitted = self._fitted_shards()
        if limit is not None and fitted:
            limit = split_budget(limit, len(fitted))
        parts: List[Tuple[int, tuple]] = []
        for shard_index in fitted:
            part = bounded_shard_prefix(
                self.shards[shard_index], keys, limit, with_tables=with_tables
            )
            if part is not None:
                parts.append((shard_index, part))
        return parts, self._shard_globals


class ShardedEngine(BatchQueryEngine):
    """Batched query execution over a sampler bound to :class:`ShardedLSHTables`.

    Extends :class:`~repro.engine.batch.BatchQueryEngine` with a thread-based
    worker pool that (a) materializes the batch's merged cross-shard buckets
    concurrently, and (b) for query-deterministic samplers answers the
    distinct queries themselves in parallel — numpy's batched hashing,
    sorting and distance kernels release the GIL, so shards genuinely
    overlap on multicore hosts.  Samplers that draw query-time randomness
    are answered serially in batch order, keeping their RNG stream — and
    therefore their outputs — byte-identical to unsharded serving.

    The prefix/certify/escalate loop is the base engine's, unchanged:
    prefix-capable requests are served from per-shard bounded gathers
    (:meth:`ShardedLSHTables.colliding_view` with a limit) at the shared
    :class:`~repro.engine.gather.PrefixBudgetController`'s tuned global
    budget, so results stay byte-identical to unsharded serving.  This
    engine overrides only the fan-out hooks — pool-mapped gathers, merged
    bucket priming and the parallel fallback — and the process executor
    (:class:`~repro.engine.procpool.ProcessShardedEngine`) overrides the
    same hooks again to run them in worker processes.
    """

    #: Whether non-prefix deterministic queries are answered in parallel
    #: chunks on the thread pool.  The process executor answers them on the
    #: parent serially — merged buckets are already primed, and the serial
    #: loop beats thread-chunk scheduling overhead there.
    _parallel_fallback = True

    def __init__(
        self,
        sampler,
        batch_hashing: bool = True,
        coalesce_duplicates: bool = True,
        sampler_name: Optional[str] = None,
        spec=None,
        max_workers: Optional[int] = None,
        prefix_budget: Optional[int] = None,
        prefix_budget_cap: Optional[int] = None,
    ):
        super().__init__(
            sampler,
            batch_hashing=batch_hashing,
            coalesce_duplicates=coalesce_duplicates,
            sampler_name=sampler_name,
            spec=spec,
            prefix_budget=prefix_budget,
            prefix_budget_cap=prefix_budget_cap,
        )
        if not isinstance(self.tables, ShardedLSHTables):
            raise InvalidParameterError(
                "ShardedEngine requires a sampler attached to ShardedLSHTables; "
                "use BatchQueryEngine for unsharded serving"
            )
        if max_workers is None:
            max_workers = max(self.tables.n_shards, min(16, os.cpu_count() or 1))
        self._max_workers = int(max_workers)
        self._pool = ThreadPoolExecutor(
            max_workers=self._max_workers, thread_name_prefix="repro-shard"
        )
        # Counter increments made from answer workers are guarded by the
        # base engine's _stats_lock: every query contributes a fixed amount,
        # so the totals stay deterministic whatever the thread scheduling.
        # close() must be idempotent *under concurrency*: a hot snapshot
        # swap's drain path and the facade's engine teardown can both reach
        # it at once (see server/swap.py), so the closed transition is a
        # check-and-set under a lock and teardown runs exactly once.
        self._close_lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        sampler,
        dataset: Dataset,
        n_shards: int = 2,
        placement: str = "round_robin",
        max_tombstone_fraction: float = 0.25,
        seed: SeedLike = None,
        max_workers: Optional[int] = None,
    ) -> "ShardedEngine":
        """Build sharded tables for an unfitted LSH sampler and wrap them.

        The sharded counterpart of :meth:`BatchQueryEngine.build
        <repro.engine.batch.BatchQueryEngine.build>`: parameters, hash
        functions and ranks resolve exactly as the unsharded build would, so
        the resulting engine's responses are byte-identical to it.
        """
        tables, bound_dataset = build_tables(
            sampler,
            dataset,
            dynamic=True,
            max_tombstone_fraction=max_tombstone_fraction,
            seed=seed,
            n_shards=n_shards,
            placement=placement,
        )
        sampler.attach(tables, bound_dataset)
        return cls(sampler, max_workers=max_workers)

    # ------------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        """Number of index partitions behind this engine."""
        return self.tables.n_shards

    def stats_dict(self) -> Dict:
        """Sharded serving state: the base payload plus the shard topology."""
        payload = super().stats_dict()
        tables: ShardedLSHTables = self.tables
        payload["n_shards"] = tables.n_shards
        payload["placement"] = tables.placement
        payload["shard_sizes"] = [int(size) for size in tables.shard_sizes()]
        return payload

    def close(self) -> None:
        """Shut down the worker pool (idempotent; the engine stops serving).

        Worker threads would otherwise linger until the engine is garbage
        collected; long-lived processes that rebuild their serving setup
        (:meth:`FairNN.serve <repro.api.FairNN.serve>` closes superseded
        engines through this) should release them deterministically.  Safe
        under concurrent callers — a snapshot swap's generation drain and
        the facade teardown may race here — exactly one caller runs the
        shutdown sequence, the rest return immediately.
        """
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        self._shutdown()

    def _shutdown(self) -> None:
        """Release serving resources (runs at most once, via :meth:`close`)."""
        self._pool.shutdown(wait=False)

    def __enter__(self) -> "ShardedEngine":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Fan-out hooks
    # ------------------------------------------------------------------
    def _prime(self, keys_per_query, positions: Sequence[int]) -> None:
        """Materialize the merged buckets the non-prefix *positions* touch."""
        self.tables.prime_merged_buckets(
            [keys_per_query[position] for position in positions], executor=self._pool
        )

    def _gather_prefixes(
        self, positions: Sequence[int], keys_per_query, limit: int
    ) -> Dict[int, PrefixView]:
        """Fan large batches' gathers out over the worker pool.

        Per-position gathers are independent numpy work (the kernels
        release the GIL), so they overlap on multicore hosts.
        """
        if len(positions) > 8 and self._max_workers > 1:
            gather = self._prefix_gatherer(keys_per_query, limit)
            return dict(zip(positions, self._pool.map(gather, positions)))
        return super()._gather_prefixes(positions, keys_per_query, limit)

    def _answer_parallel(
        self, distinct: Sequence[QueryRequest], positions: List[int]
    ) -> Dict[int, QueryResponse]:
        """Answer whole non-prefix queries in parallel chunks on the pool."""
        if not self._parallel_fallback or self._max_workers <= 1:
            return {}
        # Build the shared columnar store up front so answer workers never
        # race its lazy construction.
        self.tables.point_store
        chunk_size = max(
            1, (len(positions) + 2 * self._max_workers - 1) // (2 * self._max_workers)
        )
        chunks = [positions[i : i + chunk_size] for i in range(0, len(positions), chunk_size)]

        def _answer_chunk(chunk: List[int]) -> List[QueryResponse]:
            return [self._answer(position, distinct[position]) for position in chunk]

        answered: Dict[int, QueryResponse] = {}
        for chunk, responses in zip(chunks, self._pool.map(_answer_chunk, chunks)):
            answered.update(zip(chunk, responses))
        return answered
