"""Mutable LSH tables: inserts, tombstone deletes, targeted compaction sweeps.

:class:`DynamicLSHTables` extends the static
:class:`~repro.lsh.tables.LSHTables` storage with online updates so the
serving engine can absorb churn without rebuilding the index:

* **insert** hashes the new point with the same ``L`` functions and splices
  it into each bucket's rank-sorted arrays (``O(L * (K + bucket size))``,
  versus ``O(n * L * K)`` for a full refit);
* **delete** is a tombstone: the point is marked dead in a global liveness
  mask and queries filter it out lazily, so a delete is ``O(1)``;
* a **compaction sweep** drops pending tombstones from their buckets and
  releases their slots.  It is targeted: the pending points are hashed once
  and only the ``L`` buckets under their keys are rewritten, so a sweep
  costs ``O(pending x L x bucket size)`` however large the index.  The
  serving engine sweeps at every batch sync that finds tombstones pending,
  so served gathers never filter dead references; between syncs, crossing
  ``max_tombstone_fraction`` of the live points sweeps from ``delete``.

**Concurrency.**  Mutations, sweeps and delta reads run under one lock per
table set, so request threads may mutate concurrently; queries read without
it (a bucket is replaced, never edited in place), and an insert fills its
slots before it splices buckets.  A batch in flight may still score points
that views it gathered before a sweep name, so while any batch is in flight
(:meth:`serving_batch`) a sweep cleans the buckets but leaves the swept
slots' point objects in place; the last batch out releases them.

**Mutation deltas.**  Every insert and delete is also counted in a
:class:`MutationDelta`, which the attached sampler drains through
:meth:`~repro.core.base.LSHNeighborSampler.notify_update` (the serving
engine triggers this once per mutation batch).  The record holds only what
a consumer needs to tell whether it has seen the whole history since its
last sync: the slots inserted and deleted, the epoch the record started
at, and whether it overflowed.

**Ranks under churn.**  The fair samplers' uniformity rests on every point's
rank being exchangeable with every other's.  A static index uses a
permutation of ``0 .. n-1``; under inserts that domain would have to be
re-randomized on every update.  Instead, dynamic tables draw each point's
rank independently and uniformly from a fixed ``2^62``-sized domain (both at
``fit`` time and per insert), which keeps all ranks i.i.d. — hence
exchangeable — forever, at a collision probability of ``~n^2 / 2^62``
(irrelevant; ties only cost a broken tie, not correctness).  The table layer
reports this via :attr:`rank_domain` so rank-segment queries (Section 4)
partition the right interval.

Dataset indices are *stable*: a deleted slot keeps its index forever and
compaction never renumbers, so historical responses and ``exclude_index``
arguments stay meaningful.  The slot's *point object* survives only until
the compaction sweep that removes it, which releases it (the dataset entry
becomes ``None``; see **Concurrency** for batches in flight) — queries
never dereference dead slots, but callers holding old indices should not
either once they have deleted them.  The engine's
snapshot layer persists the liveness mask alongside the buckets.
"""

from __future__ import annotations

import functools
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Hashable, List, Optional, Tuple

import numpy as np

from repro.store import DatasetStore, make_store
from repro.store.points import points_share_store
from repro.exceptions import (
    AlreadyDeletedError,
    EmptyDatasetError,
    InvalidParameterError,
    SlotOutOfRangeError,
)
from repro.lsh.family import LSHFamily
from repro.lsh.tables import Bucket, LSHTables
from repro.rng import SeedLike, spawn_rngs
from repro.types import Dataset, Point

#: Exclusive upper bound of the dynamic rank domain.  62 bits keeps every
#: rank representable in a signed int64 with headroom for searchsorted bounds.
RANK_DOMAIN = 1 << 62


def _delta_bound(num_live: int) -> int:
    """Recorded mutations past which an undrained :class:`MutationDelta` collapses."""
    return max(1024, 2 * num_live)


def serialized(method):
    """Run a table method under the tables' mutation lock."""

    @functools.wraps(method)
    def locked(self, *args, **kwargs):
        with self._lock:
            return method(self, *args, **kwargs)

    return locked


@dataclass
class MutationDelta:
    """Record of index mutations since the last drain.

    :class:`DynamicLSHTables` accumulates one of these across mutation calls
    and hands it to the attached sampler through
    :meth:`~repro.lsh.tables.LSHTables.drain_delta` /
    :meth:`~repro.core.base.LSHNeighborSampler.notify_update`.  The Section 4
    sampler reads it to decide whether to redraw its sketch hash functions.

    Attributes
    ----------
    inserted:
        Slot indices added since the last drain, in insertion order.
    deleted:
        Slot indices tombstoned since the last drain.
    overflowed:
        True when the record was collapsed because it outgrew its bound
        (mutations kept accumulating with no consumer draining them).  An
        overflowed delta's slot lists are incomplete; a consumer must treat
        it like a missing (``None``) delta.
    start_epoch:
        The table layer's :attr:`~repro.lsh.tables.LSHTables.mutation_epoch`
        at the moment this record started accumulating.  A consumer whose
        last synchronized epoch differs has a *gap* — some earlier record
        went to a different consumer — and must treat the record as missing.
    """

    inserted: List[int] = field(default_factory=list)
    deleted: List[int] = field(default_factory=list)
    overflowed: bool = False
    start_epoch: int = 0

    def __setstate__(self, state: dict) -> None:
        # Records pickled while samplers kept per-bucket state also name, per
        # table, the buckets each mutation touched; nothing reads them now.
        for dead in ("inserted_members", "tombstoned_members", "compacted_keys"):
            state.pop(dead, None)
        self.__dict__.update(state)

    @property
    def is_empty(self) -> bool:
        """True when no mutation has been recorded since the last drain."""
        return not (self.inserted or self.deleted or self.overflowed)


class ReplayRun:
    """Journaled mutations that one bulk apply replays exactly.

    Crash recovery replays a WAL suffix in runs
    (:meth:`DynamicLSHTables.apply_run`): all the inserts of a run go to one
    :meth:`~DynamicLSHTables.insert_many`, and its deletes follow in journal
    order.  A run follows the record-at-a-time replay on counts alone and
    takes a record only while the bulk order provably ends in the same state:

    * a delete that replay would reject where it stands in the journal (slot
      not yet inserted, or already dead) is dropped, as that replay skips it;
    * a delete that would cross ``max_tombstone_fraction`` ends the run.  All
      the run's inserts precede it, so its sweep fires at the same state.
      Every earlier delete sees at least as many live points in bulk order,
      so none sweeps early;
    * the run ends before a record that could make the undrained
      :class:`MutationDelta` outgrow its bound at any step of either order;
      when that record is the first, the run holds it alone, which is
      record-at-a-time replay by construction;
    * ranks are one 64-bit draw each, so one draw for the run's points
      equals the draws of its records one by one.
    """

    def __init__(self, tables: "DynamicLSHTables"):
        self._tables = tables
        self._known_slots = tables.num_points
        self._slots = tables.num_points
        self._live_at_start = tables.num_live
        self._live = tables.num_live
        self._pending = tables.pending_tombstones
        delta = tables.peek_delta()
        self._recorded = len(delta.inserted) + len(delta.deleted)
        self._dead: set = set()
        self._closed = False
        #: every insert's points, in journal order
        self.points: list = []
        #: the run's deletes, in journal order
        self.deletes: List[int] = []
        #: per record taken, its idempotency key and its insert size (None
        #: for a delete)
        self.records: List[Tuple[Optional[str], Optional[int]]] = []

    def insert(self, points: list, key: Optional[str] = None) -> bool:
        """Take an insert record; ``False`` when it must start the next run."""
        if not self._admits(len(points), 0):
            return False
        self.points.extend(points)
        self.records.append((key, len(points)))
        self._slots += len(points)
        self._live += len(points)
        return True

    def delete(self, index: int, key: Optional[str] = None) -> bool:
        """Take a delete record; ``False`` when it must start the next run."""
        if self._closed:
            return False
        doomed = (
            not 0 <= index < self._slots
            or index in self._dead
            or (index < self._known_slots and not self._tables.alive[index])
        )
        if doomed:
            return True
        if not self._admits(0, 1):
            return False
        self.deletes.append(index)
        self.records.append((key, None))
        self._dead.add(index)
        self._live -= 1
        self._pending += 1
        if self._tables._sweep_due(self._pending, self._live):
            self._closed = True
        return True

    def _admits(self, inserts: int, deletes: int) -> bool:
        if self._closed:
            return False
        # Bounds over every step of both orders: the recorded mutations
        # never exceed the run's total, and the live count never drops
        # below the start's less every delete.
        deletes += len(self.deletes)
        recorded = self._recorded + len(self.points) + inserts + deletes
        if recorded <= _delta_bound(self._live_at_start - deletes):
            return True
        if self.records:
            return False
        self._closed = True
        return True


class DynamicLSHTables(LSHTables):
    """``L`` LSH tables over a mutable dataset.

    Parameters beyond :class:`~repro.lsh.tables.LSHTables`:

    use_ranks:
        Whether buckets carry rank-sorted members (required by the fair
        samplers; the standard-LSH baseline can turn it off).
    max_tombstone_fraction:
        When pending tombstones exceed this fraction of the live points,
        ``delete`` runs a compaction sweep.
    seed:
        Also drives the rank draws for ``fit`` and every ``insert``.
    """

    def __init__(
        self,
        family: LSHFamily,
        l: int,
        seed: SeedLike = None,
        use_ranks: bool = True,
        max_tombstone_fraction: float = 0.25,
        *,
        _functions=None,
    ):
        super().__init__(family, l, seed=seed, _functions=_functions)
        if not 0.0 < max_tombstone_fraction <= 1.0:
            raise InvalidParameterError(
                f"max_tombstone_fraction must be in (0, 1], got {max_tombstone_fraction}"
            )
        self._use_ranks = bool(use_ranks)
        self.max_tombstone_fraction = float(max_tombstone_fraction)
        # The rank/mutation stream is spawned off the construction stream so
        # the two stay independent and a snapshot can restore them separately.
        self._mut_rng = spawn_rngs(self._rng, 1)[0]
        self._points: list = []
        self._alive: np.ndarray = np.empty(0, dtype=bool)
        self._ranks_buf: np.ndarray = np.empty(0, dtype=np.int64)
        self._num_live = 0
        # Indices tombstoned since the last compaction sweep.  Keeping the
        # set (rather than a counter) lets compact() touch only the buckets
        # of *new* tombstones, so per-delete cost stays amortized O(1) over
        # the index's whole lifetime.
        self._pending: set = set()
        self.rebuilds_triggered = 0
        # Mutations accumulated since the last drain_delta(); the serving
        # engine's per-batch sampler sync consumes it.
        self._delta = MutationDelta()
        # Shared columnar store for the vectorized candidate-evaluation
        # pipeline: None = not built yet, False = no columnar form applies.
        # Attached samplers score candidates against this one store, so it is
        # kept in sync by insert_many/compact instead of rebuilt per batch.
        self._store = None
        # Serializes mutations, sweeps and delta reads (request threads
        # mutate concurrently; reentrant because delete may compact), and
        # guards the count of serving batches in flight and the swept slots
        # whose release waits for them.
        self._lock = threading.RLock()
        self._batches_in_flight = 0
        self._unreleased: list = []

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_lock"]
        state["_batches_in_flight"] = 0
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @serialized
    def fit(self, dataset: Dataset, ranks: Optional[np.ndarray] = None) -> "DynamicLSHTables":
        """Build the tables, drawing i.i.d. dynamic ranks unless given.

        Passing explicit *ranks* is supported for tests; they must then come
        from the same ``[0, RANK_DOMAIN)`` distribution or insert
        exchangeability is lost.
        """
        n = len(dataset)
        if n == 0:
            raise EmptyDatasetError("cannot build LSH tables over an empty dataset")
        if ranks is not None and not self._use_ranks:
            # Ranked buckets over a rankless mutation path would make the
            # first insert fail halfway through the tables.
            raise InvalidParameterError(
                "tables were configured with use_ranks=False; cannot fit with explicit ranks"
            )
        if ranks is None and self._use_ranks:
            ranks = self._draw_ranks(n)
        super().fit(dataset, ranks=ranks)
        # Keep an owned, growable copy; set data stays a Python list (the
        # container samplers index into), vector data becomes a list of rows.
        self._points = list(dataset)
        self._alive = np.ones(n, dtype=bool)
        if self._ranks is not None:
            # Ranks live in a capacity-doubled buffer (self._ranks is a view
            # of its prefix) so single-point inserts are amortized O(1).
            self._ranks_buf = np.array(self._ranks, dtype=np.int64)
            self._ranks = self._ranks_buf[:n]
        self._num_live = n
        self._pending.clear()
        self._unreleased = []
        # A refit supersedes any unconsumed mutation history.
        self._delta = MutationDelta(start_epoch=self.mutation_epoch)
        self._store = None  # rebuilt lazily over the fresh point container
        return self

    def _draw_ranks(self, count: int) -> np.ndarray:
        return self._mut_rng.integers(0, RANK_DOMAIN, size=count, dtype=np.int64)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def rank_domain(self) -> int:
        """The fixed ``2^62`` i.i.d. rank domain (see the module docstring)."""
        return RANK_DOMAIN

    @property
    def dataset(self) -> list:
        """The live point container (grows in place on insert).

        Samplers attached to these tables hold a reference to this very list,
        so inserted points become visible to them without a refit.  A deleted
        slot keeps its point only until the next compaction sweep releases it
        (the entry becomes ``None``); consult :attr:`alive` before trusting
        one.
        """
        self._check_fitted()
        return self._points

    @property
    def alive(self) -> np.ndarray:
        """Boolean liveness mask over all stored slots (dead = tombstoned)."""
        return self._alive[: self._n]

    @property
    def point_store(self) -> Optional[DatasetStore]:
        """The shared columnar store over all slots, or ``None``.

        Built lazily from the live point container and then maintained in
        place: inserts append rows, compaction releases the swept slots'
        payload.  Attached samplers read it through
        :meth:`~repro.core.base.NeighborSampler._active_store`, so one store
        serves every sampler bound to these tables.  ``None`` means the data
        has no columnar form and candidate scoring falls back to the scalar
        loop.
        """
        self._check_fitted()
        if self._store is None:
            self._store = make_store(self._points)
            if self._store is None:
                self._store = False
        return self._store or None

    @property
    def num_live(self) -> int:
        """Number of live (non-tombstoned) points."""
        return self._num_live

    def ensure_clean_buckets(self) -> None:
        """Sweep pending tombstones so buckets reference live points only."""
        self.compact()

    @property
    def pending_tombstones(self) -> int:
        """Dead references still present in bucket arrays (cleared by compaction)."""
        return len(self._pending)

    @serialized
    def peek_delta(self) -> MutationDelta:
        """The unconsumed :class:`MutationDelta` (without draining it)."""
        return self._delta

    @serialized
    def drain_delta(self) -> MutationDelta:
        """Return and reset the mutations accumulated since the last drain.

        The delta is single-consumer: whoever drains it owns the record, and
        the tables start accumulating a fresh one.  The serving engine drains
        once per mutation batch through the attached sampler's
        :meth:`~repro.core.base.LSHNeighborSampler.notify_update`.
        """
        delta = self._delta
        self._delta = MutationDelta(start_epoch=self.mutation_epoch)
        return delta

    def _maybe_overflow_delta(self) -> None:
        """Collapse the unconsumed delta when it outgrows its bound.

        With no consumer draining it (standalone table usage), the record
        would grow with lifetime mutations.  Past ``max(1024, 2 * num_live)``
        recorded mutations it is dropped and replaced by an ``overflowed``
        marker, so memory stays bounded by the live index size.
        """
        delta = self._delta
        if len(delta.inserted) + len(delta.deleted) <= _delta_bound(self._num_live):
            return
        # The collapsed record still covers everything since the original
        # start, so the start epoch is preserved.
        self._delta = MutationDelta(overflowed=True, start_epoch=delta.start_epoch)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def insert(self, point: Point, rank: Optional[int] = None) -> int:
        """Add *point* to every table; returns its (stable) dataset index.

        The point receives a fresh uniform rank from the dynamic domain (or
        *rank*, for tests), keeping it exchangeable with every indexed point —
        the property the fair samplers' uniformity proof needs.
        """
        return self.insert_many([point], ranks=None if rank is None else [rank])[0]

    @serialized
    def insert_many(self, points: Dataset, ranks=None) -> List[int]:
        """Bulk insert; returns the new (stable) dataset indices in order.

        Amortizes the two per-insert costs across the batch: all points are
        hashed against all ``L`` tables in one vectorized
        :meth:`query_keys_many` pass, and points landing in the same bucket
        are spliced with a single merge instead of one array rewrite each.
        """
        self._check_fitted()
        points = list(points)
        count = len(points)
        if count == 0:
            return []
        new_ranks = self._checked_insert_ranks(count, ranks)
        start = self._n
        keys_per_point = self.query_keys_many(points)
        # Slots first: queries read buckets without the lock, so any index a
        # spliced bucket shows must already have its point, rank and
        # liveness bit.
        self._points.extend(points)
        # A store-backed point container (out-of-core tiers) routes extend()
        # into the store itself; appending again would duplicate the rows.
        if self._store not in (None, False) and not points_share_store(
            self._points, self._store
        ):
            try:
                self._store.append(points)
            except Exception:
                # The batch does not fit the columnar layout (e.g. a new
                # dimensionality); scoring falls back to the scalar loop.
                self._store = False
        self._grow_slots(new_ranks, count)
        # A fresh singleton bucket is a view of this one members array, and
        # a point's singleton is one Bucket shared by every table it opens a
        # bucket in (buckets are replaced, never edited in place), so a new
        # point does not pay one array object per table.
        batch_members = np.arange(start, start + count, dtype=np.intp)
        if new_ranks is not None:
            batch_members = np.array((batch_members, new_ranks))
        singletons = [Bucket.from_array(batch_members[..., o : o + 1]) for o in range(count)]
        for table_index, table in enumerate(self._tables):
            groups: dict = {}
            for offset, keys in enumerate(keys_per_point):
                groups.setdefault(keys[table_index], []).append(offset)
            for key, offsets in groups.items():
                bucket = table.get(key)
                if bucket is not None and len(offsets) == 1:
                    # Most inserts splice one point into an existing bucket.
                    offset = offsets[0]
                    table[key] = bucket.inserted(
                        start + offset,
                        None if new_ranks is None else int(new_ranks[offset]),
                    )
                    continue
                if bucket is None and len(offsets) == 1:
                    # Fresh singleton bucket: already trivially sorted.
                    table[key] = singletons[offsets[0]]
                    continue
                if new_ranks is None:
                    added = np.asarray(offsets, dtype=np.intp) + start
                    table[key] = Bucket.from_members(
                        added if bucket is None else np.concatenate([bucket.indices, added]), None
                    )
                    continue
                # Newest first, then the bucket: the stable rank sort then
                # breaks rank ties the way one-point splices do (a splice
                # lands before its equal ranks), so a batch leaves the same
                # buckets as its points inserted one at a time.
                offsets = offsets[::-1]
                added = np.asarray(offsets, dtype=np.intp) + start
                added_ranks = new_ranks[offsets]
                if bucket is not None:
                    added = np.concatenate([added, bucket.indices])
                    added_ranks = np.concatenate([added_ranks, bucket.ranks])
                table[key] = Bucket.from_members(added, added_ranks)
        indices = list(range(start, start + count))
        self._delta.inserted.extend(indices)
        self.mutation_epoch += 1
        self._maybe_overflow_delta()
        return indices

    def _checked_insert_ranks(self, count: int, ranks) -> Optional[np.ndarray]:
        """Validate (or draw) the ranks of an insert batch of size *count*.

        Explicit ranks must match the batch shape, rankless tables reject
        them, and fresh draws come from the mutation stream.
        """
        if self._use_ranks:
            if ranks is None:
                return self._draw_ranks(count)
            new_ranks = np.asarray(ranks, dtype=np.int64)
            if new_ranks.shape != (count,):
                raise InvalidParameterError(
                    f"ranks must have shape ({count},), got {new_ranks.shape}"
                )
            return new_ranks
        if ranks is not None:
            raise InvalidParameterError("tables were built without ranks; cannot insert ranks")
        return None

    def _grow_slots(self, new_ranks: Optional[np.ndarray], count: int) -> None:
        """Extend the per-slot arrays (liveness, ranks) by *count* live entries.

        Both arrays grow by capacity doubling, so a stream of single-point
        inserts stays amortized O(1) per slot rather than O(n) reallocations.
        """
        needed = self._n + count
        if needed > self._alive.size:
            new_capacity = max(8, 2 * self._alive.size, needed)
            grown = np.zeros(new_capacity, dtype=bool)
            grown[: self._n] = self._alive[: self._n]
            self._alive = grown
        self._alive[self._n : needed] = True
        if self._ranks is not None:
            if needed > self._ranks_buf.size:
                new_capacity = max(8, 2 * self._ranks_buf.size, needed)
                grown_ranks = np.zeros(new_capacity, dtype=np.int64)
                grown_ranks[: self._n] = self._ranks_buf[: self._n]
                self._ranks_buf = grown_ranks
            self._ranks_buf[self._n : needed] = new_ranks
            self._ranks = self._ranks_buf[:needed]
        self._n = needed
        self._num_live += count

    @serialized
    def delete(self, index: int) -> None:
        """Tombstone the point at *index*; queries stop returning it at once.

        O(1), no hashing: the buckets the point vacated are found by the
        compaction sweep that removes it.  Triggers that sweep when the
        pending-tombstone fraction crosses :attr:`max_tombstone_fraction`.

        Raises
        ------
        SlotOutOfRangeError
            (also an :class:`IndexError`) when *index* is outside ``[0, n)``.
        AlreadyDeletedError
            (also a :class:`KeyError`) when the slot is already tombstoned.
        Both are raised before any bookkeeping: a failed delete is never
        recorded in the :class:`MutationDelta`, never enters the pending
        tombstone set, and never moves the compaction trigger.
        """
        self._check_fitted()
        if not 0 <= index < self._n:
            raise SlotOutOfRangeError(f"index {index} out of range [0, {self._n})")
        if not self._alive[index]:
            raise AlreadyDeletedError(f"point {index} was already deleted")
        self._delta.deleted.append(index)
        self.mutation_epoch += 1
        self._maybe_overflow_delta()
        self._alive[index] = False
        self._num_live -= 1
        self._pending.add(index)
        if self._sweep_due(len(self._pending), self._num_live):
            self.compact()

    @serialized
    def apply_run(self, run: ReplayRun) -> List[Optional[List[int]]]:
        """Apply one :class:`ReplayRun`; per record, its slots (``None``: a delete).

        The run's inserts go to one :meth:`insert_many`, which moves
        :attr:`mutation_epoch` once per journaled insert, and its deletes
        follow in journal order.
        """
        results: List[Optional[List[int]]] = []
        slot = self._n
        if run.points:
            self.insert_many(run.points)
            self.mutation_epoch += sum(1 for _, size in run.records if size) - 1
        for index in run.deletes:
            self.delete(index)
        for _, size in run.records:
            if size is None:
                results.append(None)
            else:
                results.append(list(range(slot, slot + size)))
                slot += size
        return results

    def _sweep_due(self, pending: int, live: int) -> bool:
        """Whether *pending* tombstones over *live* points trigger a sweep.

        The trigger is on the *live* count: with total slots as the
        denominator, long-lived churny indexes would compact ever more
        rarely relative to the data actually being served.
        """
        return pending > self.max_tombstone_fraction * max(1, live)

    @serialized
    def compact(self) -> None:
        """Drop the pending tombstones from their buckets and release their slots.

        A tombstoned point sits in exactly one bucket per table — the one
        under its own key — so the sweep hashes the pending points once
        (:meth:`query_keys_many`; their point objects are released only by
        the sweep itself) and rewrites only those buckets, deleting
        the ones it empties: ``O(pending x L x bucket size)`` work, however
        large the index.  The sweep then checks that it removed exactly
        ``len(pending) x L`` dead references.  Fit, inserts, this sweep and
        queries all hash through the family's batch hasher (p-stable: one
        product per batch), but BLAS may round a row one ulp differently in
        batches of different shapes, so a key could in principle cross a
        floor boundary between the fit and this rehash; should a key ever
        disagree, a walk over every stored reference finishes the sweep.

        Indices are *not* renumbered — live points keep their identity — so
        a live point's bucket keys never change.  The serving engine calls
        this at every batch sync with tombstones pending, so served gathers
        see clean buckets; :attr:`max_tombstone_fraction` still bounds the
        pending set between syncs.  The swept slots' point objects are
        released at once, or when the last serving batch in flight ends.
        """
        self._check_fitted()
        if not self._pending:
            return
        dead = self._pending
        keys_per_point = self.query_keys_many([self._points[index] for index in dead])
        alive = self._alive
        removed = 0
        for table_index, table in enumerate(self._tables):
            for key in {keys[table_index] for keys in keys_per_point}:
                bucket = table.get(key)
                if bucket is None:
                    continue
                keep = alive[bucket.indices]
                kept = int(np.count_nonzero(keep))
                if kept == keep.size:
                    continue
                removed += keep.size - kept
                if kept:
                    table[key] = bucket.filtered(keep)
                else:
                    del table[key]
        if removed != len(dead) * self.l:
            self._sweep_all_buckets()
        self.mutation_epoch += 1
        self._release(dead)
        self._pending.clear()
        self.rebuilds_triggered += 1

    def _release(self, indices) -> None:
        """Release swept slots' point objects, once no batch is in flight.

        Slots are deliberately not renumbered — index stability is what
        lets samplers, responses and snapshots keep referring to points
        across mutations — so the slot itself (a None entry, a rank, a
        liveness bit) is the only per-delete residue kept for the index's
        lifetime.
        """
        self._unreleased.extend(indices)
        if self._batches_in_flight:
            return  # the last batch out releases them (serving_batch)
        for index in self._unreleased:
            self._points[index] = None
            if self._store not in (None, False):
                self._store.release(index)
        self._unreleased.clear()

    @contextmanager
    def serving_batch(self):
        """Count one serving batch in flight for the duration of the context.

        A batch scores the point objects its gathered views name, so a
        sweep meanwhile keeps them (see :meth:`_release`).
        """
        with self._lock:
            self._batches_in_flight += 1
        try:
            yield
        finally:
            with self._lock:
                self._batches_in_flight -= 1
                if not self._batches_in_flight and self._unreleased:
                    self._release(())

    def _sweep_all_buckets(self) -> None:
        """The checked fallback of :meth:`compact`: walk every bucket.

        Buckets average O(1) members, where numpy fancy-indexing overhead
        per bucket dwarfs the work; a plain-Python membership scan is ~10x
        faster, and a set-disjointness pre-check skips clean buckets.
        """
        alive = self._alive.tolist()
        dead = self._pending
        for table in self._tables:
            dead_keys: List[Hashable] = []
            for key, bucket in table.items():
                members = bucket.indices.tolist()
                if dead.isdisjoint(members):
                    continue
                keep = [position for position, index in enumerate(members) if alive[index]]
                if not keep:
                    dead_keys.append(key)
                else:
                    table[key] = Bucket(
                        bucket.indices[keep],
                        None if bucket.ranks is None else bucket.ranks[keep],
                    )
            for key in dead_keys:
                del table[key]

    # ------------------------------------------------------------------
    # Queries (liveness-aware)
    # ------------------------------------------------------------------
    def query_buckets(self, query: Point, keys: Optional[List[Hashable]] = None) -> List[Bucket]:
        """Colliding buckets with tombstoned members filtered out.

        *keys* are optional pre-computed per-table bucket keys, as in
        :meth:`~repro.lsh.tables.LSHTables.query_buckets`.
        """
        buckets = super().query_buckets(query, keys)
        if not self._pending:
            return buckets
        alive = self._alive
        filtered: List[Bucket] = []
        for bucket in buckets:
            if len(bucket) == 0:
                filtered.append(bucket)
                continue
            keep = alive[bucket.indices]
            filtered.append(bucket if keep.all() else bucket.filtered(keep))
        return filtered
