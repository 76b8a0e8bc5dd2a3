"""``FairNN`` — one facade over samplers, tables, engines and snapshots.

Everything the library can do is reachable through four uncoordinated
construction paths (direct sampler constructors,
:meth:`~repro.engine.batch.BatchQueryEngine.build`,
:func:`~repro.engine.snapshot.save_engine` /
:func:`~repro.engine.snapshot.load_engine`, and the experiment configs).
:class:`FairNN` puts a single declarative entry point in front of them: a
facade built from an :class:`~repro.spec.EngineSpec` (or a bare
:class:`~repro.spec.SamplerSpec`, or their dict/JSON forms) that fits,
serves, mutates, queries and snapshots without the caller naming a single
class.

Static use::

    nn = FairNN.from_spec(spec).fit(dataset)
    nn.sample(query)                  # one uniform near neighbor
    nn.neighborhood(query)            # exact ground-truth ball

Serving use::

    nn = FairNN.from_spec(spec).serve(dataset)    # dynamic tables + engines
    nn.run(batch_of_requests)                     # batched execution
    nn.insert_many(new_points); nn.delete(3)      # online churn, no refit
    nn.save("snapshots/today")                    # spec rides along (format v5)
    clone = FairNN.load("snapshots/today")        # byte-identical primary

Multiple samplers can be served **by name over one shared table set** — the
spec maps names to :class:`~repro.spec.SamplerSpec` entries, all LSH-backed
samplers attach to tables sized by the primary's parameter rule, and every
query method takes ``sampler="name"``.
"""

from __future__ import annotations

import json
import os
import pathlib
import re
import shutil
import threading
from collections import OrderedDict
from dataclasses import replace
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Union

import numpy as np

from repro.core.base import LSHNeighborSampler, NeighborSampler
from repro.engine.batch import BatchQueryEngine, build_tables
from repro.engine.dynamic import DynamicLSHTables, ReplayRun
from repro.engine.requests import EngineStats, QueryRequest, QueryResponse
from repro.engine.snapshot import load_engine, save_engine
from repro.engine.wal import WALRecord, WriteAheadLog
from repro.exceptions import (
    AlreadyDeletedError,
    InvalidParameterError,
    NotFittedError,
    SlotOutOfRangeError,
    SnapshotCorruptError,
    WALCorruptError,
)
from repro.lsh.tables import LSHTables
from repro.spec import EngineSpec, SamplerSpec, spec_from_dict
from repro.store import StoreSpec
from repro.types import Dataset, Point

__all__ = ["FairNN"]

SpecLike = Union[EngineSpec, SamplerSpec, Mapping, str]

#: Checkpoint directories inside ``<data_dir>/snapshots`` — named by the WAL
#: position they cover (every record with ``seq < N`` is inside the snapshot).
_CHECKPOINT_RE = re.compile(r"^checkpoint-(\d{20})$")

#: Replayed-but-remembered mutation results kept for idempotent retries.
_IDEMPOTENCY_CAP = 4096

#: Checkpoints retained per data directory (newest first; older ones are the
#: fallback when the newest fails to load).
_CHECKPOINTS_KEPT = 2

_IDEMPOTENCY_MISS = object()


class FairNN:
    """Declarative facade over the whole fair near-neighbor stack.

    Construct with :meth:`from_spec` (accepting an
    :class:`~repro.spec.EngineSpec`, a single
    :class:`~repro.spec.SamplerSpec`, or their dict/JSON forms), then either
    :meth:`fit` for static use or :meth:`serve` for a mutable serving setup.
    All query methods accept ``sampler=<name>`` to address one of the named
    samplers; the default is the spec's primary.
    """

    def __init__(self, spec: EngineSpec):
        if not isinstance(spec, EngineSpec):
            raise InvalidParameterError(
                f"FairNN requires an EngineSpec; use FairNN.from_spec for {type(spec).__name__}"
            )
        self._spec = spec
        self._samplers: Dict[str, NeighborSampler] = {}
        self._engines: Dict[str, BatchQueryEngine] = {}
        self._tables: Optional[LSHTables] = None
        self._dataset: Optional[Dataset] = None
        self._serving = False
        # Makes a facade-level mutation (apply to the shared tables + notify
        # every engine) atomic under concurrent callers — the HTTP serving
        # surface mutates from handler threads.  Also serializes WAL appends
        # with their applies, so the log order equals the apply order.
        self._mutation_lock = threading.Lock()
        self._wal: Optional[WriteAheadLog] = None
        self._data_dir: Optional[pathlib.Path] = None
        self._idempotency: "OrderedDict[str, Any]" = OrderedDict()
        self._recovered_records = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_spec(cls, spec: SpecLike, name: str = "default") -> "FairNN":
        """Build a facade from any spec form.

        *spec* may be an :class:`~repro.spec.EngineSpec`, a
        :class:`~repro.spec.SamplerSpec` (wrapped as a one-sampler engine
        under *name*), a plain dict in either ``to_dict`` schema, or a JSON
        string of one of those dicts.
        """
        if isinstance(spec, str):
            spec = spec_from_dict(json.loads(spec))
        elif isinstance(spec, Mapping):
            spec = spec_from_dict(spec)
        if isinstance(spec, SamplerSpec):
            spec = EngineSpec(samplers={name: spec}, primary=name)
        if not isinstance(spec, EngineSpec):
            raise InvalidParameterError(
                f"cannot build a FairNN from a {type(spec).__name__}; "
                "expected an EngineSpec or SamplerSpec (or their dict/JSON forms)"
            )
        return cls(spec)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def spec(self) -> EngineSpec:
        """The declarative description this facade was built from."""
        return self._spec

    @property
    def primary(self) -> str:
        """Name of the default sampler."""
        return self._spec.primary

    @property
    def sampler_names(self) -> List[str]:
        """The named samplers, in spec order."""
        return list(self._spec.samplers)

    @property
    def samplers(self) -> Dict[str, NeighborSampler]:
        """The built sampler objects by name (empty before fit/serve)."""
        return dict(self._samplers)

    @property
    def tables(self) -> Optional[LSHTables]:
        """The shared table layer, when one exists."""
        return self._tables

    @property
    def is_serving(self) -> bool:
        """Whether :meth:`serve` promoted this facade to a serving setup."""
        return self._serving

    @property
    def is_dynamic(self) -> bool:
        """Whether the shared tables accept online inserts and deletes."""
        return isinstance(self._tables, DynamicLSHTables)

    @property
    def num_live_points(self) -> int:
        """Live (non-tombstoned) indexed points."""
        if isinstance(self._tables, DynamicLSHTables):
            return self._tables.num_live
        self._check_built()
        return self._samplers[self.primary].num_points

    def engine(self, sampler: Optional[str] = None) -> BatchQueryEngine:
        """The :class:`~repro.engine.batch.BatchQueryEngine` of one sampler."""
        self._check_built()
        return self._engines[self._resolve_name(sampler)]

    @property
    def engines(self) -> Dict[str, BatchQueryEngine]:
        """The per-sampler serving engines by name (empty before fit/serve).

        The handle the serving layer (:mod:`repro.server`) uses for hot
        snapshot swaps and per-engine lifecycle management.
        """
        return dict(self._engines)

    def stats(self) -> Dict[str, EngineStats]:
        """Per-sampler serving statistics, keyed by sampler name."""
        return {name: engine.stats for name, engine in self._engines.items()}

    def close(self) -> None:
        """Release the facade's resources; idempotent.

        A durable facade fsyncs and closes its WAL.  The facade stays usable
        for non-serving reads; ``fit``/``serve`` rebuild engines.
        """
        if self._wal is not None:
            self._wal.close()
            self._wal = None

    def capacity(self) -> Dict:
        """Raw index occupancy, the substrate of serving-layer capacity models.

        Returns a JSON-serializable dict:

        ``live_points``
            Live (non-tombstoned) indexed points.
        ``total_slots``
            Allocated dataset slots, live and tombstoned — what the index
            structurally holds until compaction reclaims space.
        ``pending_tombstones``
            Deleted slots not yet swept by compaction.  The engines sweep
            at each batch sync, so this reads 0 after any batch and counts
            only the deletes made since the last one.
        ``memory_bytes``
            Resident bytes of the columnar dataset store plus the rank
            array, when a store exists (``None`` otherwise — e.g. static
            facades that never built one).

        :class:`repro.server.CapacityModel` combines these numbers with a
        configured budget and over-commit ratio into the MAAS-pods-style
        ``total/used/available`` rendering of ``GET /v1/capacity``.
        """
        self._check_built()
        tables = self._tables
        if isinstance(tables, DynamicLSHTables):
            live = tables.num_live
            total_slots = len(tables.dataset)
            pending = tables.pending_tombstones
        else:
            live = self.num_live_points
            total_slots = live
            pending = 0
        memory_bytes = None
        store_backend = None
        store = getattr(tables, "point_store", None) if tables is not None else None
        if store is None:
            # Static facades have no dynamic table store; the engines still
            # know the active store (cached slots only — never forces a
            # lazy columnar build just to report capacity).
            engine = self._engines.get(self.primary)
            if engine is not None:
                store = engine._current_store()
        if store is not None:
            # Backend-aware accounting: in-RAM stores charge their full
            # buffers, out-of-core stores only their resident overlay and
            # caches (mapped/fetched corpus pages are not index memory).
            memory_bytes = int(store.nbytes)
            store_backend = store.backend
            ranks = tables.ranks if tables is not None else None
            if ranks is not None:
                memory_bytes += int(ranks.nbytes)
        return {
            "live_points": int(live),
            "total_slots": int(total_slots),
            "pending_tombstones": int(pending),
            "memory_bytes": memory_bytes,
            "store_backend": store_backend,
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def fit(self, dataset: Dataset) -> "FairNN":
        """Build every named sampler over *dataset* (static tables).

        With exactly one LSH-backed sampler this is byte-identical to the
        hand-written ``spec.build().fit(dataset)``; with several, one static
        table set is built from the primary's parameter rule (with ranks if
        any attached sampler needs them) and shared by all of them.
        """
        self._build_samplers()
        lsh_named = self._lsh_samplers()
        if len(lsh_named) == 1:
            # The single-sampler path stays bitwise-aligned with a direct fit.
            next(iter(lsh_named.values())).fit(dataset)
            self._tables = next(iter(lsh_named.values())).tables
        elif lsh_named:
            self._fit_shared(dataset, dynamic=False)
        for name, sampler in self._samplers.items():
            if name not in lsh_named:
                sampler.fit(dataset)
        self._dataset = dataset
        self._serving = False
        self._make_engines()
        return self

    def serve(
        self,
        dataset: Optional[Dataset] = None,
        data_dir: Optional[Union[str, pathlib.Path]] = None,
        fsync: Optional[str] = None,
        store: Union[StoreSpec, str, None] = None,
    ) -> "FairNN":
        """Promote to a serving setup over shared (by default dynamic) tables.

        Builds the table layer the spec describes
        (:class:`~repro.engine.dynamic.DynamicLSHTables` unless the spec says
        ``dynamic=False``), attaches every LSH-backed sampler to it, fits the
        rest, and wraps each sampler in a
        :class:`~repro.engine.batch.BatchQueryEngine` sharing those tables.
        For one LSH sampler this matches
        :meth:`BatchQueryEngine.build(sampler, dataset)
        <repro.engine.batch.BatchQueryEngine.build>` byte-for-byte.  Call it
        directly on a fresh facade for reproducible artifacts; calling it
        after :meth:`fit` re-indexes (the construction RNG streams have
        advanced).

        ``serve(data_dir=P)`` makes the facade **durable**: the directory is
        initialized with a write-ahead log plus an immediate checkpoint, and
        from then on every mutation is journaled (and flushed per the
        ``fsync`` policy — see :data:`repro.engine.wal.FSYNC_POLICIES`)
        *before* it is applied.  After a crash, :meth:`recover` rebuilds the
        exact pre-crash engine from the newest checkpoint plus the WAL
        suffix.  ``data_dir`` must be fresh (no prior WAL/checkpoints) —
        resuming an existing directory is :meth:`recover`'s job, so a typo
        cannot silently fork a mutation history.  Requires dynamic tables.

        ``serve(store="memmap")`` (or ``EngineSpec.store``) demotes the
        freshly built dataset to the **out-of-core tier**: the columnar
        store is spilled to raw ``.npy`` files (under ``data_dir/store``, or
        a temporary directory without one) and re-mapped, so the corpus'
        resident footprint drops to the OS page cache; checkpoints, which
        are always written in the mappable v5 format, stay on that tier when
        recovered.  The ``remote``
        backend cannot be *built* locally — load a v5 snapshot with
        :meth:`load(..., store="remote") <load>` instead.
        """
        if dataset is None:
            dataset = self._dataset
        if dataset is None:
            raise NotFittedError("serve() needs a dataset (pass one or call fit first)")
        if fsync is not None:
            self._spec = replace(self._spec, wal_fsync=fsync)
        store_spec = StoreSpec.coerce(store if store is not None else self._spec.store)
        if store_spec.backend == "remote":
            raise InvalidParameterError(
                "serve() builds the index locally and cannot serve from a remote "
                "store; save a v5 snapshot and use FairNN.load(..., store='remote')"
            )
        if store is not None:
            self._spec = replace(self._spec, store=store_spec)
        if data_dir is not None and not self._spec.dynamic:
            raise InvalidParameterError(
                "serve(data_dir=...) journals mutations; it requires dynamic tables "
                "(EngineSpec.dynamic=True)"
            )
        self._build_samplers()
        lsh_named = self._lsh_samplers()
        if lsh_named:
            self._fit_shared(dataset, dynamic=self._spec.dynamic)
        for name, sampler in self._samplers.items():
            if name not in lsh_named:
                sampler.fit(dataset)
        self._dataset = dataset
        self._serving = True
        if store_spec.backend == "memmap":
            self._demote_to_memmap(data_dir)
        self._make_engines()
        if data_dir is not None:
            self._init_data_dir(pathlib.Path(data_dir))
        return self

    def _demote_to_memmap(self, data_dir: Optional[Union[str, pathlib.Path]]) -> None:
        """Spill the built columnar store to ``.npy`` files and re-map it."""
        import tempfile

        from repro.store import MemmapDenseStore, MemmapSetStore, StoreBackedPoints

        tables = self._tables
        if not isinstance(tables, DynamicLSHTables):
            raise InvalidParameterError(
                "serve(store='memmap') requires dynamic tables "
                "(EngineSpec.dynamic=True)"
            )
        built = tables.point_store
        if built is None:
            raise InvalidParameterError(
                "serve(store='memmap') needs a columnar dataset (dense vectors "
                "or integer sets); this dataset has no columnar form"
            )
        if data_dir is not None:
            store_dir = pathlib.Path(data_dir) / "store"
        else:
            store_dir = pathlib.Path(tempfile.mkdtemp(prefix="repro-store-"))
        store_dir.mkdir(parents=True, exist_ok=True)
        if built.kind == "dense":
            np.save(store_dir / "dataset__dense.npy", np.ascontiguousarray(built.matrix))
            mapped = MemmapDenseStore(store_dir / "dataset__dense.npy")
        else:
            np.save(store_dir / "dataset__indptr.npy", np.ascontiguousarray(built.indptr))
            np.save(store_dir / "dataset__items.npy", np.ascontiguousarray(built.items))
            mapped = MemmapSetStore(
                store_dir / "dataset__indptr.npy", store_dir / "dataset__items.npy"
            )
        released = [i for i, p in enumerate(tables._points) if p is None]
        container = StoreBackedPoints(mapped, released)
        # Swap the table layer onto the mapped tier: the container replaces
        # the in-RAM point list (freeing the original rows) and every
        # attached sampler re-anchors its dataset reference onto it.
        tables._points = container
        tables._store = mapped
        for sampler in self._samplers.values():
            if getattr(sampler, "tables", None) is tables:
                sampler._dataset = container
                sampler._store = None
        self._dataset = container

    def add_sampler(self, name: str, spec: SamplerSpec) -> "FairNN":
        """Attach one more named sampler, sharing the existing table set.

        Before :meth:`fit`/:meth:`serve` this only extends the spec.  After,
        the sampler is built immediately: LSH-backed ones attach to the
        shared tables (their family spec must match the primary's), others
        fit on the current dataset.
        """
        if name in self._spec.samplers:
            raise InvalidParameterError(f"sampler name {name!r} is already in use")
        samplers = dict(self._spec.samplers)
        samplers[name] = spec
        self._spec = replace(self._spec, samplers=samplers)
        if not self._samplers:
            return self
        self._check_family_compatible({name: spec})
        sampler = spec.build()
        if isinstance(sampler, LSHNeighborSampler) and self._tables is not None:
            dataset = (
                self._tables.dataset
                if isinstance(self._tables, DynamicLSHTables)
                else self._samplers[self.primary].dataset
            )
            sampler.attach(self._tables, dataset)
        else:
            if self._dataset is None:
                raise NotFittedError("cannot fit the new sampler: no dataset bound yet")
            sampler.fit(self._dataset)
            if isinstance(sampler, LSHNeighborSampler):
                # First LSH sampler on an otherwise non-LSH facade: its
                # tables become the shared set later additions attach to.
                self._tables = sampler.tables
        self._samplers[name] = sampler
        self._engines[name] = self._new_engine(name, sampler)
        return self

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def run(
        self,
        requests: Sequence[Union[QueryRequest, Point]],
        sampler: Optional[str] = None,
    ) -> List[QueryResponse]:
        """Answer a batch of requests through one named sampler's engine.

        Responses carry the sampler's name, so multiplexed callers can route
        answers without tracking which engine they asked.
        """
        return self.engine(sampler).run(requests)

    def sample(
        self,
        query: Point,
        sampler: Optional[str] = None,
        exclude_index: Optional[int] = None,
    ) -> Optional[int]:
        """One sampled r-near neighbor of *query* (or ``None``).

        Routed through the engine, so pending index mutations are flushed to
        the sampler first and serving statistics are maintained.
        """
        request = QueryRequest(query=query, exclude_index=exclude_index)
        return self.run([request], sampler=sampler)[0].index

    def sample_k(
        self,
        query: Point,
        k: int,
        replacement: bool = True,
        sampler: Optional[str] = None,
    ) -> List[int]:
        """Sample *k* near neighbors of *query* (see
        :meth:`~repro.core.base.NeighborSampler.sample_k`)."""
        request = QueryRequest(query=query, k=k, replacement=replacement)
        return self.run([request], sampler=sampler)[0].indices

    def neighborhood(self, query: Point, sampler: Optional[str] = None) -> np.ndarray:
        """Exact ground-truth neighborhood ``B_S(q, r)`` of *query*.

        Computed by a direct scan with the named sampler's measure and
        radius over the **live** dataset (tombstoned points are excluded),
        independent of any index — this is the reference the fair samplers'
        uniformity is measured against.

        The scan gathers the live slots *first* and evaluates the measure
        only on those: a tombstoned slot whose point object was already
        released by a compaction sweep (its dataset entry is ``None``) must
        never reach the measure kernels, and a dead point's value must never
        influence the result even before release.  Returned indices are the
        original (stable) dataset slots, so they remain comparable across
        mutations and with historical responses.
        """
        self._check_built()
        target = self._samplers[self._resolve_name(sampler)]
        dataset = target.dataset
        if isinstance(self._tables, DynamicLSHTables):
            # target.dataset is the table layer's live container (or, for a
            # non-LSH sampler, a fit-time prefix of it): slot i of either is
            # dataset slot i, so the liveness mask prefix lines up.
            alive = np.asarray(self._tables.alive[: len(dataset)])
            live = np.flatnonzero(alive)
            if live.size == 0:
                return live
            values = target.measure.values_to_query([dataset[int(i)] for i in live], query)
            mask = target.measure.within_mask(values, target.radius)
            return live[mask]
        values = target.measure.values_to_query(dataset, query)
        mask = target.measure.within_mask(values, target.radius)
        return np.flatnonzero(mask)

    # ------------------------------------------------------------------
    # Index mutation (serving, dynamic tables)
    # ------------------------------------------------------------------
    def insert(self, point: Point) -> int:
        """Index one new point online; returns its dataset index."""
        return self.insert_many([point])[0]

    def insert_many(
        self, points: Dataset, idempotency_key: Optional[str] = None
    ) -> List[int]:
        """Bulk-index new points online.

        The mutation is applied to the shared tables once and every named
        sampler's engine is notified, so all of them re-synchronize (lazily,
        on their next batch).  Only LSH-backed samplers can track index
        mutations, so a facade that also serves e.g. the exact baseline
        rejects mutation outright rather than letting that sampler silently
        answer from a stale dataset.

        ``insert_many([])`` is a documented no-op: it returns ``[]``
        immediately — no serving requirement is checked, no
        :class:`~repro.engine.dynamic.MutationDelta` is emitted, no engine
        counter moves and no sampler is re-synchronized.

        On a durable facade (``serve(data_dir=...)``) the batch is appended
        to the WAL before it is applied.  ``idempotency_key`` makes retries
        safe: a repeated key returns the first application's indices without
        re-inserting (the key rides inside the WAL record, so the dedup
        window survives a crash + recovery).
        """
        points = list(points)
        if not points:
            return []
        tables = self._require_dynamic()
        with self._mutation_lock:
            if idempotency_key is not None:
                hit = self._idempotency_lookup(idempotency_key)
                if hit is not _IDEMPOTENCY_MISS:
                    return list(hit)
            self._wal_append(
                {"op": "insert", "points": points, "key": idempotency_key}
            )
            indices = tables.insert_many(points)
            for engine in self._engines.values():
                engine.note_external_mutation(inserts=len(indices))
            self._idempotency_remember(idempotency_key, list(indices))
        return indices

    def delete(self, index: int, idempotency_key: Optional[str] = None) -> None:
        """Remove one point online (tombstone; the next batch sync sweeps it).

        Subject to the same LSH-only restriction as :meth:`insert_many`.
        Deleting an out-of-range slot raises
        :class:`~repro.exceptions.SlotOutOfRangeError` (an ``IndexError``)
        and deleting an already-tombstoned slot raises
        :class:`~repro.exceptions.AlreadyDeletedError` (a ``KeyError``);
        both fail *before* any bookkeeping — and before any WAL append, so
        a doomed delete is never journaled.  ``idempotency_key`` works as in
        :meth:`insert_many`: a retried delete of a slot this facade already
        deleted under the same key is a no-op instead of an
        ``AlreadyDeletedError``.
        """
        tables = self._require_dynamic()
        with self._mutation_lock:
            if idempotency_key is not None:
                hit = self._idempotency_lookup(idempotency_key)
                if hit is not _IDEMPOTENCY_MISS:
                    return
            if self._wal is not None:
                # Mirror the table layer's validation so a delete that would
                # fail is rejected before it lands in the journal (replay
                # would skip it deterministically, but a clean log beats a
                # log of known-doomed records).
                index = int(index)
                n = tables.num_points
                if not 0 <= index < n:
                    raise SlotOutOfRangeError(f"index {index} out of range [0, {n})")
                if not tables.alive[index]:
                    raise AlreadyDeletedError(f"point {index} was already deleted")
            self._wal_append({"op": "delete", "index": int(index), "key": idempotency_key})
            tables.delete(index)
            for engine in self._engines.values():
                engine.note_external_mutation(deletes=1)
            self._idempotency_remember(idempotency_key, None)

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def save(self, directory) -> None:
        """Snapshot the primary sampler's engine (spec included).

        The persisted manifest carries the full :class:`~repro.spec.EngineSpec`,
        so :meth:`load` can rebuild the whole facade — secondary samplers are
        reconstructed from their specs and re-attached (their query RNG
        streams restart; the primary is restored bit-identically).

        The snapshot is format v5 (see
        :func:`~repro.engine.snapshot.save_engine`), which loads on every
        storage tier, out-of-core ones included
        (``load(..., store="memmap"/"remote")``).
        """
        self._check_built()
        save_engine(self.engine(self.primary), directory)

    @classmethod
    def load(
        cls,
        directory,
        store: Union[StoreSpec, str, None] = None,
        block_client=None,
    ) -> "FairNN":
        """Rebuild a facade from a snapshot written by :meth:`save`.

        Also accepts any :func:`~repro.engine.snapshot.save_engine` snapshot
        whose manifest carries a spec (format v3 and later); for spec-less
        (v2 and older) snapshots use :func:`~repro.engine.snapshot.load_engine`.

        *store* selects the dataset's storage tier (see
        :func:`~repro.engine.snapshot.load_engine`): ``"memmap"`` maps a v5
        snapshot's arrays in place — cold start reads file headers, not the
        corpus — and ``"remote"`` fetches vector blocks from a block server
        (*block_client*, or an HTTP client built from the spec's endpoint).
        Every sampler serves byte-identical answers on every tier.
        """
        engine = load_engine(directory, store=store, block_client=block_client)
        spec = engine.spec
        if isinstance(spec, SamplerSpec):
            name = engine.sampler_name or "default"
            spec = EngineSpec(
                samplers={name: spec},
                primary=name,
                dynamic=engine.is_dynamic,
                batch_hashing=engine.batch_hashing,
                coalesce_duplicates=engine.coalesce_duplicates,
            )
        if not isinstance(spec, EngineSpec):
            raise InvalidParameterError(
                "snapshot carries no spec (pre-v3 format); load it with repro.engine.load_engine"
            )
        facade = cls(spec)
        primary = spec.primary
        primary_sampler = engine.sampler
        facade._samplers[primary] = primary_sampler
        facade._engines[primary] = engine
        facade._tables = getattr(primary_sampler, "tables", None)
        facade._dataset = primary_sampler.dataset
        facade._serving = True
        for name, sampler_spec in spec.samplers.items():
            if name == primary:
                continue
            sampler = sampler_spec.build()
            if isinstance(sampler, LSHNeighborSampler) and facade._tables is not None:
                sampler.attach(facade._tables, facade._dataset)
            else:
                sampler.fit(facade._dataset)
            facade._samplers[name] = sampler
            facade._engines[name] = facade._new_engine(name, sampler)
        return facade

    # ------------------------------------------------------------------
    # Durability (write-ahead log + checkpoints)
    # ------------------------------------------------------------------
    @property
    def data_dir(self) -> Optional[pathlib.Path]:
        """The durable data directory, when serving with one."""
        return self._data_dir

    @property
    def wal(self) -> Optional[WriteAheadLog]:
        """The mutation journal, when serving with a data directory."""
        return self._wal

    @classmethod
    def recover(
        cls, data_dir: Union[str, pathlib.Path], fsync: Optional[str] = None
    ) -> "FairNN":
        """Rebuild the exact pre-crash facade from a durable data directory.

        Loads the newest checkpoint that passes validation (a checkpoint
        that raises :class:`~repro.exceptions.SnapshotCorruptError` falls
        back to the previous one), then replays every WAL record past that
        checkpoint's position, in bulk runs that end in the state the
        records applied one at a time leave (see
        :class:`~repro.engine.dynamic.ReplayRun`).  Because checkpoints
        persist the mutation RNG stream, replaying the logical ops re-draws
        the same ranks the live engine drew — the recovered facade serves
        **byte-identical** answers to one that never crashed.  A torn final
        WAL record (the residue of dying mid-append) is truncated, matching
        the crashed process, where that mutation was never applied.

        Idempotency keys ride inside WAL records, so the replay also
        restores the retry-dedup window: a client retrying a mutation whose
        ack was lost in the crash gets the original result, not a double
        apply.

        ``fsync`` overrides the persisted fsync policy for the recovered
        facade (recorded back into the spec).
        """
        data_dir = pathlib.Path(data_dir)
        snapshots_root = data_dir / "snapshots"
        candidates = (
            sorted(
                (p for p in snapshots_root.iterdir() if _CHECKPOINT_RE.match(p.name)),
                key=lambda p: p.name,
                reverse=True,
            )
            if snapshots_root.is_dir()
            else []
        )
        if not candidates:
            raise InvalidParameterError(
                f"{data_dir} holds no checkpoints; initialize it with "
                "serve(data_dir=...) first"
            )
        facade = None
        last_error: Optional[Exception] = None
        for candidate in candidates:
            try:
                with open(candidate / "wal_position.json", "r", encoding="utf-8") as handle:
                    position = int(json.load(handle)["next_seq"])
                facade = cls.load(candidate)
            except (SnapshotCorruptError, OSError, ValueError, KeyError, TypeError) as error:
                last_error = error
                continue
            break
        if facade is None:
            raise SnapshotCorruptError(
                f"no loadable checkpoint under {snapshots_root} "
                f"({len(candidates)} candidate{'s' if len(candidates) != 1 else ''} tried)"
            ) from last_error
        try:
            if fsync is not None:
                facade._spec = replace(facade._spec, wal_fsync=fsync)
            wal = WriteAheadLog.open(data_dir / "wal", fsync=facade._spec.wal_fsync)
            wal.advance_to(position)
            replayed = facade._replay(wal.replay(after_seq=position - 1))
        except Exception:
            facade.close()
            raise
        facade._data_dir = data_dir
        facade._wal = wal
        facade._recovered_records = replayed
        return facade

    def checkpoint(self) -> pathlib.Path:
        """Write a durable checkpoint and truncate the journaled prefix.

        Snapshots the primary engine into
        ``<data_dir>/snapshots/checkpoint-<N>`` where ``N`` is the WAL
        position the snapshot covers (written to a temp directory first and
        renamed, so a crash mid-checkpoint never leaves a half checkpoint
        under a valid name), deletes WAL segments that are now fully
        covered, and prunes all but the newest two checkpoints.  Returns
        the checkpoint path.
        """
        self._check_built()
        if self._wal is None:
            raise InvalidParameterError(
                "checkpoint() requires a durable facade (serve(data_dir=...) or recover)"
            )
        with self._mutation_lock:
            position = self._wal.next_seq
            snapshots_root = self._data_dir / "snapshots"
            snapshots_root.mkdir(parents=True, exist_ok=True)
            final = snapshots_root / f"checkpoint-{position:020d}"
            staging = snapshots_root / f"checkpoint-{position:020d}.tmp"
            if staging.exists():
                shutil.rmtree(staging)
            save_engine(self.engine(self.primary), staging)
            with open(staging / "wal_position.json", "w", encoding="utf-8") as handle:
                json.dump({"next_seq": position}, handle)
            if final.exists():
                shutil.rmtree(final)
            os.replace(staging, final)
            self._wal.truncate_through(position - 1)
            self._prune_checkpoints(snapshots_root)
        return final

    def durability(self) -> Dict:
        """JSON-serializable durability status (``None`` fields when not durable)."""
        wal = self._wal
        checkpoints: List[str] = []
        if self._data_dir is not None:
            snapshots_root = self._data_dir / "snapshots"
            if snapshots_root.is_dir():
                checkpoints = sorted(
                    p.name for p in snapshots_root.iterdir() if _CHECKPOINT_RE.match(p.name)
                )
        return {
            "durable": wal is not None,
            "data_dir": None if self._data_dir is None else str(self._data_dir),
            "wal_fsync": self._spec.wal_fsync,
            "wal_last_seq": None if wal is None else wal.last_seq,
            "wal_appended_records": None if wal is None else wal.appended_records,
            "wal_appended_bytes": None if wal is None else wal.appended_bytes,
            "recovered_records": self._recovered_records,
            "checkpoints": checkpoints,
        }

    def _init_data_dir(self, data_dir: pathlib.Path) -> None:
        wal_dir = data_dir / "wal"
        snapshots_root = data_dir / "snapshots"
        already = (wal_dir.is_dir() and any(wal_dir.iterdir())) or (
            snapshots_root.is_dir() and any(snapshots_root.iterdir())
        )
        if already:
            raise InvalidParameterError(
                f"data_dir {data_dir} is already initialized; resume it with "
                "FairNN.recover(data_dir) instead of serve(data_dir=...)"
            )
        data_dir.mkdir(parents=True, exist_ok=True)
        self._wal = WriteAheadLog.open(wal_dir, fsync=self._spec.wal_fsync)
        self._data_dir = data_dir
        # Checkpoint-0: the freshly indexed dataset.  Recovery always has a
        # base snapshot, even if the process dies before the first explicit
        # checkpoint.
        self.checkpoint()

    def _wal_append(self, payload: Dict) -> None:
        if self._wal is not None:
            self._wal.append(payload)

    def _replay(self, records: Iterable[WALRecord]) -> int:
        """Apply journaled mutations without re-journaling them; returns the count.

        Records are applied in bulk runs (:class:`~repro.engine.dynamic.ReplayRun`),
        which end in exactly the state the records applied one at a time
        leave.  A delete whose pre-crash apply failed validation after it
        was journaled is skipped, as the crashed process skipped it.  The
        last run is applied after *records* is exhausted.
        """
        tables = self._require_dynamic()
        run, replayed = ReplayRun(tables), 0
        for record in records:
            while not self._admit(run, record.payload):
                replayed += self._apply_run(run)
                run = ReplayRun(tables)  # an empty run takes any record
        return replayed + self._apply_run(run)

    @staticmethod
    def _admit(run: ReplayRun, payload: Dict) -> bool:
        op = payload.get("op")
        if op == "insert":
            return run.insert(list(payload["points"]), payload.get("key"))
        if op == "delete":
            return run.delete(int(payload["index"]), payload.get("key"))
        raise WALCorruptError(f"unknown WAL op {op!r}")

    def _apply_run(self, run: ReplayRun) -> int:
        results = self._tables.apply_run(run)
        for engine in self._engines.values():
            engine.note_external_mutation(inserts=len(run.points), deletes=len(run.deletes))
        for (key, _), result in zip(run.records, results):
            self._idempotency_remember(key, result)
        return len(results)

    def _idempotency_lookup(self, key: str):
        result = self._idempotency.get(key, _IDEMPOTENCY_MISS)
        if result is not _IDEMPOTENCY_MISS:
            self._idempotency.move_to_end(key)
        return result

    def _idempotency_remember(self, key: Optional[str], result) -> None:
        if key is None:
            return
        self._idempotency[key] = result
        self._idempotency.move_to_end(key)
        while len(self._idempotency) > _IDEMPOTENCY_CAP:
            self._idempotency.popitem(last=False)

    @staticmethod
    def _prune_checkpoints(snapshots_root: pathlib.Path) -> None:
        checkpoints = sorted(
            (p for p in snapshots_root.iterdir() if _CHECKPOINT_RE.match(p.name)),
            key=lambda p: p.name,
        )
        for stale in checkpoints[:-_CHECKPOINTS_KEPT]:
            shutil.rmtree(stale, ignore_errors=True)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _check_built(self) -> None:
        if not self._engines:
            raise NotFittedError("FairNN must be fitted (fit) or promoted (serve) before use")

    def _resolve_name(self, sampler: Optional[str]) -> str:
        name = self.primary if sampler is None else sampler
        if name not in self._spec.samplers:
            raise InvalidParameterError(
                f"unknown sampler name {name!r}; available: {sorted(self._spec.samplers)}"
            )
        return name

    def _build_samplers(self) -> None:
        """(Re)build every sampler object from its spec."""
        self._check_family_compatible(self._spec.samplers)
        self._samplers = {name: spec.build() for name, spec in self._spec.samplers.items()}
        self._engines = {}
        self._tables = None

    def _lsh_samplers(self) -> Dict[str, LSHNeighborSampler]:
        return {
            name: sampler
            for name, sampler in self._samplers.items()
            if isinstance(sampler, LSHNeighborSampler)
        }

    def _table_owner(self, lsh_named: Dict[str, LSHNeighborSampler]) -> LSHNeighborSampler:
        """The sampler whose parameter rule sizes the shared tables."""
        if self.primary in lsh_named:
            return lsh_named[self.primary]
        return next(iter(lsh_named.values()))

    def _check_family_compatible(self, specs: Mapping[str, SamplerSpec]) -> None:
        """All LSH-backed sampler specs must name the same family config."""
        reference = None
        for name, spec in {**dict(self._spec.samplers), **dict(specs)}.items():
            if spec.lsh is None:
                continue
            if reference is None:
                reference = (name, spec.lsh)
            elif spec.lsh != reference[1]:
                raise InvalidParameterError(
                    f"samplers {reference[0]!r} and {name!r} name different LSH families "
                    f"({reference[1]} vs {spec.lsh}); one shared table set needs one family"
                )

    def _fit_shared(self, dataset: Dataset, dynamic: bool) -> None:
        """Build one table set from the owner's parameters; attach all LSH samplers.

        Delegates to :func:`~repro.engine.batch.build_tables` — the same
        recipe :meth:`BatchQueryEngine.build
        <repro.engine.batch.BatchQueryEngine.build>` uses, so the
        single-sampler dynamic case stays byte-compatible with it.  The only
        extension is that the tables store ranks when *any* attached sampler
        needs them, not just the owner.
        """
        lsh_named = self._lsh_samplers()
        owner = self._table_owner(lsh_named)
        tables, bound_dataset = build_tables(
            owner,
            dataset,
            dynamic=dynamic,
            max_tombstone_fraction=self._spec.max_tombstone_fraction,
            use_ranks=any(sampler._use_ranks for sampler in lsh_named.values()),
        )
        for sampler in lsh_named.values():
            sampler.attach(tables, bound_dataset)
        self._tables = tables

    def _new_engine(self, name: str, sampler: NeighborSampler) -> BatchQueryEngine:
        return BatchQueryEngine(
            sampler,
            batch_hashing=self._spec.batch_hashing,
            coalesce_duplicates=self._spec.coalesce_duplicates,
            sampler_name=name,
            spec=self._spec if name == self.primary else self._spec.samplers[name],
        )

    def _make_engines(self) -> None:
        self._engines = {
            name: self._new_engine(name, sampler) for name, sampler in self._samplers.items()
        }

    def _require_dynamic(self) -> DynamicLSHTables:
        self._check_built()
        if not isinstance(self._tables, DynamicLSHTables):
            raise InvalidParameterError(
                "index mutation needs serve() over dynamic tables "
                "(EngineSpec.dynamic=True); this facade is static"
            )
        stale = [
            name
            for name, sampler in self._samplers.items()
            if not isinstance(sampler, LSHNeighborSampler)
        ]
        if stale:
            raise InvalidParameterError(
                f"samplers {stale} are not LSH-backed and cannot track index "
                "mutations; serve them from a separate static facade or drop "
                "them from this spec before mutating"
            )
        return self._tables

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "serving" if self._serving else ("fitted" if self._engines else "unfitted")
        return f"FairNN(primary={self.primary!r}, samplers={self.sampler_names}, {state})"
