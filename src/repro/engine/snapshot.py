"""Persist a serving engine to a directory and load it back.

Indexes are expensive to build and cheap to serve, so production deployments
build them offline and ship the artifact to servers.  :func:`save_engine`
writes format v5, a directory of raw arrays and two small files:

``manifest.json``
    Human-readable metadata: format version, class names, the serving name
    and originating declarative spec (see :mod:`repro.spec`), the dataset
    layout, table shape, liveness counters and the engine's serving
    statistics.
``arrays/``
    One uncompressed ``.npy`` file per array: per-table bucket keys,
    member/rank arrays and bucket offsets (CSR form), the global rank array,
    the liveness mask and, for a columnar dataset, the dataset itself
    (``dataset__dense``, or ``dataset__indptr``/``dataset__items``, plus a
    ``dataset__released`` mask).  Raw ``.npy`` payloads can be
    ``np.memmap``-ed, so a snapshot is servable without reading the corpus
    (``load_engine(..., store="memmap")``) or with the corpus on another
    machine (``store="remote"``).
``objects.pkl``
    The Python objects with no natural array form: the drawn hash functions,
    the LSH family, bucket keys that are not integers, the dataset points
    when they have no columnar form, the sampler (stripped of its
    table/dataset references, which are restored from the arrays) and — for
    dynamic tables — the mutation RNG plus any not-yet-consumed
    :class:`~repro.engine.dynamic.MutationDelta`, so the restored sampler's
    first sync decides exactly as the saved one would.

:func:`load_engine` also reads the zipped formats v1–v3 that earlier
releases wrote (``arrays.npz`` in place of ``arrays/``, the dataset pickled
as a list of points), so existing data directories still recover.

``load_engine`` rebuilds bit-identical state: the restored sampler carries
the same query RNG stream and (for Section 4) the same sketch hash
functions, so subsequent samples reproduce exactly what the saved engine
would have returned.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import pathlib
import pickle
import zipfile
from typing import Dict, Hashable, List, Union

import numpy as np

from repro.core.base import LSHNeighborSampler
from repro.engine.batch import BatchQueryEngine
from repro.engine.dynamic import DynamicLSHTables, MutationDelta
from repro.engine.requests import EngineStats
from repro.exceptions import InvalidParameterError, ReproError, SnapshotCorruptError
from repro.lsh.tables import LSHTables, buckets_from_csr, buckets_to_csr
from repro.spec import EngineSpec, SamplerSpec
from repro.store import (
    DenseStore,
    MemmapDenseStore,
    MemmapSetStore,
    SetStore,
    StoreBackedPoints,
    StoreSpec,
)

#: The format :func:`save_engine` writes: raw ``.npy`` arrays under
#: ``arrays/`` (see the module docstring).  v5 manifests written by
#: table-sharded engines carry ``"sharded": true`` and are refused.
FORMAT_VERSION = 5

#: The retired table-sharded format, refused by name.
SHARDED_FORMAT_VERSION = 4

#: Formats ``load_engine`` reads.  Versions 1–3 are the zipped layout
#: (``arrays.npz``, dataset pickled): version 1 lacks the pending delta (the
#: loader substitutes an empty one), version 2 also lacks the spec and
#: serving name (the loader leaves the spec ``None`` and derives the name
#: from the sampler class), and version 3 carries both.
COMPATIBLE_VERSIONS = (1, 2, 3, FORMAT_VERSION)

_MANIFEST = "manifest.json"
_ARRAYS = "arrays.npz"
_OBJECTS = "objects.pkl"
_ARRAYS_DIR = "arrays"

#: Dataset persistence layouts a v5 manifest can declare.
_DATASET_LAYOUTS = ("dense", "sets", "pickled")


def _encode_keys(keys, name: str, arrays: Dict[str, np.ndarray]):
    """Store int / fixed-width int-tuple key lists as an int64 array.

    Unpickling hundreds of thousands of small tuples dominates the cold
    path of large snapshots; the common LSH key shapes (a concatenated
    hash is a K-tuple of ints, a single hash an int) round-trip through
    one rectangular array instead.  Returns a sentinel dict referencing
    the array, or the original list when the keys don't fit the shape:
    empty, ragged or mixed lists, and keys that are not Python ints
    (numpy ints, strings, floats), stay pickled.  Tuple keys are
    flattened in one ``np.fromiter`` pass.
    """
    if not keys:
        return keys
    first = keys[0]
    if all(type(k) is int for k in keys):
        arrays[name] = np.asarray(keys, dtype=np.int64)
        return {"__bucket_keys__": "ints", "array": name}
    if (
        type(first) is tuple
        and all(type(v) is int for v in first)
        and set(map(type, keys)) == {tuple}
        and len(set(map(len, keys))) == 1
    ):
        width = len(first)
        try:
            flat = np.fromiter(
                itertools.chain.from_iterable(keys), dtype=np.int64, count=width * len(keys)
            )
        except (ValueError, OverflowError, TypeError):
            return keys
        arrays[name] = flat.reshape(len(keys), width)
        return {"__bucket_keys__": "int_tuples", "array": name}
    return keys


def _decode_keys(entry, arrays):
    """Inverse of :func:`_encode_keys` (lists pass through untouched).

    Encoded keys come back as their int64 array, whose rows
    :func:`~repro.lsh.tables.buckets_from_csr` reads as the keys.
    """
    if not isinstance(entry, dict) or "__bucket_keys__" not in entry:
        return entry
    return np.asarray(arrays[entry["array"]])


def _pack_tables(tables, arrays: Dict[str, np.ndarray]) -> List[List[Hashable]]:
    """Flatten the table set's buckets into *arrays*, one CSR form per table.

    Returns the per-table bucket key entries for ``objects.pkl``: int-shaped
    key lists are diverted into ``t{i}_keys`` arrays and replaced by
    sentinels (see :func:`_encode_keys`); other keys stay pickled.
    """
    bucket_keys: List[List[Hashable]] = []
    has_ranks = tables.ranks is not None
    for table_index, table in enumerate(tables._tables):
        keys, offsets, members = buckets_to_csr(table, has_ranks)
        bucket_keys.append(_encode_keys(keys, f"t{table_index}_keys", arrays))
        arrays[f"t{table_index}_offsets"] = offsets
        if has_ranks:
            arrays[f"t{table_index}_indices"] = members[0]
            arrays[f"t{table_index}_ranks"] = members[1]
        else:
            arrays[f"t{table_index}_indices"] = members
    return bucket_keys


def save_engine(engine: BatchQueryEngine, directory: Union[str, pathlib.Path]) -> pathlib.Path:
    """Write *engine* to *directory* (created if needed); returns the path.

    The snapshot is format v5 (see the module docstring), which every
    storage tier loads: ``load_engine(..., store="memmap"/"remote")`` serves
    it out-of-core, and an in-RAM load reads each array in one piece.
    """
    sampler = engine.sampler
    if not isinstance(sampler, LSHNeighborSampler) or sampler.tables is None:
        raise InvalidParameterError(
            "only engines over LSH-table-backed samplers can be snapshotted"
        )
    # Flush pending mutations into the sampler first: the pickled sampler
    # carries derived state (caches, the sketcher) that must reflect the tables
    # being written, or the loaded clone would serve stale answers forever.
    engine._sync()
    tables = sampler.tables
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    dynamic = isinstance(tables, DynamicLSHTables)

    arrays: Dict[str, np.ndarray] = {}
    bucket_keys = _pack_tables(tables, arrays)
    if tables.ranks is not None:
        arrays["ranks"] = tables.ranks
    if dynamic:
        arrays["alive"] = tables.alive
        arrays["pending"] = np.asarray(sorted(tables._pending), dtype=np.intp)

    # The sampler travels as a stripped copy: its heavy references (tables,
    # dataset, rank view) and rebuildable caches are dropped and rebuilt on
    # load, while query-time state (RNG streams, Section 4 sketch hashes) rides
    # along for bit-identical post-load behaviour.
    sampler_copy = sampler._stripped_for_snapshot()

    # A columnar dataset is persisted as raw arrays ("dense"/"sets" layout)
    # and pickles nothing: unpickling one object per point dominated the
    # load of the zipped formats, and the arrays are what makes the snapshot
    # mappable/fetchable.  Datasets with no columnar form are pickled.
    dataset_layout = _pack_dataset(sampler, tables, arrays)

    objects = {
        "family": tables.family,
        "functions": tables._functions,
        "bucket_keys": bucket_keys,
        "dataset": None if dataset_layout != "pickled" else list(sampler.dataset),
        "sampler": sampler_copy,
        "mut_rng": tables._mut_rng if dynamic else None,
        # Mutations recorded but not yet consumed by a sampler sync (possible
        # when the tables were mutated directly rather than through the
        # engine).  Persisting the delta means the restored sampler's first
        # notify_update still sees exactly what changed, overflow included.
        "pending_delta": tables.peek_delta() if dynamic else None,
    }

    spec = getattr(engine, "spec", None)
    if spec is not None and not isinstance(spec, (SamplerSpec, EngineSpec)):
        raise InvalidParameterError(
            f"engine.spec must be a SamplerSpec or EngineSpec, got {type(spec).__name__}"
        )

    manifest = {
        "format_version": FORMAT_VERSION,
        "dataset_layout": dataset_layout,
        "sampler_class": type(sampler).__name__,
        "sampler_name": engine.sampler_name,
        "spec": None if spec is None else spec.to_dict(),
        "spec_kind": None if spec is None else ("engine" if isinstance(spec, EngineSpec) else "sampler"),
        "tables_class": type(tables).__name__,
        "dynamic": dynamic,
        "num_tables": tables.num_tables,
        "num_points": tables.num_points,
        "has_ranks": tables.ranks is not None,
        "num_live": tables.num_live if dynamic else tables.num_points,
        "pending_tombstones": tables.pending_tombstones if dynamic else 0,
        "rebuilds_triggered": tables.rebuilds_triggered if dynamic else 0,
        "max_tombstone_fraction": tables.max_tombstone_fraction if dynamic else None,
        "use_ranks": tables._use_ranks if dynamic else (tables.ranks is not None),
        "batch_hashing": engine.batch_hashing,
        "coalesce_duplicates": engine.coalesce_duplicates,
        "stats": engine.stats.to_dict(),
    }
    arrays_dir = directory / _ARRAYS_DIR
    arrays_dir.mkdir(parents=True, exist_ok=True)
    for name, value in arrays.items():
        np.save(arrays_dir / f"{name}.npy", np.ascontiguousarray(value))
    with open(directory / _OBJECTS, "wb") as handle:
        pickle.dump(objects, handle)
    with open(directory / _MANIFEST, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
    return directory


def _pack_dataset(sampler, tables, arrays: Dict[str, np.ndarray]) -> str:
    """Add the dataset's columnar payload to *arrays*; returns the layout tag.

    The rows come from the engine's active columnar store (built lazily here
    if need be), so released slots carry the same placeholder payload the
    store holds — loaded stores on any backend read back byte-identical rows.
    The slot-aligned ``dataset__released`` mask records which slots read back
    as ``None`` in the point container.
    """
    points = sampler.dataset
    try:
        store = sampler._active_store()
    except Exception:
        store = None
    if store is None or len(store) != len(points):
        return "pickled"
    if isinstance(points, StoreBackedPoints):
        released_slots = points.released
        released = np.zeros(len(points), dtype=bool)
        for index in released_slots:
            released[index] = True
    else:
        released = np.asarray([p is None for p in points], dtype=bool)
    if store.kind == "dense":
        arrays["dataset__dense"] = np.ascontiguousarray(store.matrix, dtype=np.float64)
    elif store.kind == "sets":
        arrays["dataset__indptr"] = np.ascontiguousarray(store.indptr, dtype=np.int64)
        arrays["dataset__items"] = np.ascontiguousarray(store.items, dtype=np.int64)
    else:  # pragma: no cover - no other columnar kinds exist
        return "pickled"
    arrays["dataset__released"] = released
    return store.kind


#: Exception types a damaged snapshot surfaces as: missing/unreadable files
#: (``OSError``), invalid JSON (``ValueError`` subclasses), a truncated
#: ``arrays.npz`` (``zipfile.BadZipFile`` — *not* a ``ValueError``),
#: truncated pickles (``UnpicklingError``/``EOFError``), missing manifest or
#: array keys (``KeyError``), and structurally wrong values
#: (``TypeError``/``AttributeError``/``IndexError``).
_CORRUPT_SIGNALS = (
    OSError,
    ValueError,
    KeyError,
    TypeError,
    AttributeError,
    IndexError,
    EOFError,
    ImportError,
    pickle.UnpicklingError,
    zipfile.BadZipFile,
)


class _NpyDir:
    """Dict-style accessor over a v5 snapshot's ``arrays/`` directory.

    Presents the same ``arrays[key]`` interface as an open ``NpzFile`` so
    the table-restore code is format-agnostic.  With ``mapped=True`` every
    array comes back as a read-only ``np.memmap`` — loading touches only
    ``.npy`` headers and the OS pages data in on first access.  A missing or
    damaged per-array file raises
    :class:`~repro.exceptions.SnapshotCorruptError` carrying the file's
    ``path``, mirroring what a truncated ``arrays.npz`` raises for the
    zipped formats.
    """

    def __init__(self, directory: pathlib.Path, mapped: bool = False):
        self._directory = pathlib.Path(directory)
        self._mapped = mapped

    def path(self, key: str) -> pathlib.Path:
        return self._directory / f"{key}.npy"

    def __getitem__(self, key: str) -> np.ndarray:
        path = self.path(key)
        try:
            return np.load(
                path, mmap_mode="r" if self._mapped else None, allow_pickle=False
            )
        except (OSError, ValueError, EOFError) as error:
            raise SnapshotCorruptError(
                f"cannot read snapshot array {path}: {type(error).__name__}: {error}",
                path=path,
            ) from error

    def __enter__(self) -> "_NpyDir":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False


def load_engine(
    directory: Union[str, pathlib.Path],
    store: Union[StoreSpec, str, None] = None,
    block_client=None,
) -> BatchQueryEngine:
    """Reconstruct a :class:`BatchQueryEngine` saved by :func:`save_engine`.

    All compatible formats load: v1–v3 snapshots restore exactly as
    written, and v5 snapshots additionally choose their storage tier.
    Snapshots of table-sharded engines (format v4, or a v5 manifest flagged
    ``"sharded": true``) are refused with
    :class:`~repro.exceptions.InvalidParameterError` naming the format.

    *store* selects the dataset backend: a backend name (``"inram"``,
    ``"memmap"``, ``"remote"``), a full :class:`~repro.store.StoreSpec`, or
    ``None`` to follow the snapshot's own spec (falling back to ``inram``).
    ``memmap`` maps the v5 snapshot's raw arrays in place — cold start reads
    headers, not the corpus; ``remote`` fetches vector blocks from a block
    server (*block_client*, or an HTTP client built from the spec's
    ``endpoint``).  Out-of-core backends require a v5 snapshot with a
    columnar dataset layout; anything else raises
    :class:`~repro.exceptions.InvalidParameterError`.

    A snapshot that cannot be loaded — missing files, truncated or
    bit-rotted arrays, invalid JSON, pickle damage — raises
    :class:`~repro.exceptions.SnapshotCorruptError` (with the underlying
    failure as ``__cause__``, and the damaged file as ``path`` when one is
    identifiable) rather than leaking raw ``numpy``/``pickle``/``json``
    exceptions; a *valid* snapshot in an unsupported format still raises
    :class:`~repro.exceptions.InvalidParameterError`.
    """
    directory = pathlib.Path(directory)
    try:
        return _load_engine(directory, store, block_client)
    except ReproError:
        raise
    except _CORRUPT_SIGNALS as error:
        raise SnapshotCorruptError(
            f"snapshot at {directory} is corrupt or incomplete: "
            f"{type(error).__name__}: {error}"
        ) from error


def _load_engine(
    directory: pathlib.Path,
    store_request: Union[StoreSpec, str, None] = None,
    block_client=None,
) -> BatchQueryEngine:
    with open(directory / _MANIFEST, "r", encoding="utf-8") as handle:
        manifest = json.load(handle)
    version = manifest["format_version"]
    if version == SHARDED_FORMAT_VERSION or (
        version == FORMAT_VERSION and manifest.get("sharded")
    ):
        raise InvalidParameterError(
            f"snapshot format {version} (sharded) is no longer supported: table "
            "sharding was removed; re-save the index from an unsharded engine"
        )
    if version not in COMPATIBLE_VERSIONS:
        raise InvalidParameterError(
            f"snapshot format {version} not supported "
            f"(expected one of {COMPATIBLE_VERSIONS})"
        )
    npy = version == FORMAT_VERSION

    # Manifests since format v3 are self-describing; v2 and older lack the
    # spec and serving name, so the spec stays None and the name is derived
    # from the sampler class.
    spec_data = manifest.get("spec")
    spec = None
    if spec_data is not None:
        spec_cls = EngineSpec if manifest.get("spec_kind") == "engine" else SamplerSpec
        spec = spec_cls.from_dict(spec_data)

    # Resolve the storage tier: explicit request > snapshot spec > inram.
    if store_request is not None:
        store_spec = StoreSpec.coerce(store_request)
    elif isinstance(spec, EngineSpec) and spec.store is not None:
        store_spec = spec.store
    else:
        store_spec = StoreSpec()
    if store_spec.backend != "inram":
        if not npy:
            raise InvalidParameterError(
                f"store backend {store_spec.backend!r} requires a format-"
                f"{FORMAT_VERSION} snapshot (this one is format {version}); "
                "load it in RAM and re-save it with save_engine"
            )
        if manifest.get("dataset_layout") == "pickled":
            raise InvalidParameterError(
                f"store backend {store_spec.backend!r} requires a columnar "
                "dataset layout; this snapshot's dataset is pickled"
            )
    if store_request is not None and isinstance(spec, EngineSpec):
        # The explicitly requested tier becomes part of the engine's spec, so
        # subsequent checkpoints and recoveries stay on it.
        spec = dataclasses.replace(spec, store=store_spec)

    with open(directory / _OBJECTS, "rb") as handle:
        objects = pickle.load(handle)
    num_tables = int(manifest["num_tables"])
    num_points = int(manifest["num_points"])
    has_ranks = bool(manifest["has_ranks"])
    dynamic = bool(manifest["dynamic"])

    if dynamic:
        tables = DynamicLSHTables(
            objects["family"],
            num_tables,
            seed=0,
            use_ranks=bool(manifest["use_ranks"]),
            max_tombstone_fraction=float(manifest["max_tombstone_fraction"]),
            _functions=objects["functions"],
        )
    else:
        tables = LSHTables(objects["family"], num_tables, seed=0, _functions=objects["functions"])
    # All array accesses happen inside the with block (NpzFile materializes
    # plain ndarrays on access), so the file handle is released on exit.
    # Memmap-backed loads map the per-array ``.npy`` files instead: bucket
    # arrays stay lazy views and the corpus is never read up front.
    if npy:
        arrays_source = _NpyDir(
            directory / _ARRAYS_DIR, mapped=store_spec.backend == "memmap"
        )
    else:
        arrays_source = np.load(directory / _ARRAYS, allow_pickle=False)
    with arrays_source as arrays:
        points, prebuilt_store = _restore_dataset(
            directory, manifest, objects, arrays, store_spec, block_client
        )
        tables._tables = [
            _restore_table(
                arrays,
                table_index,
                _decode_keys(objects["bucket_keys"][table_index], arrays),
                has_ranks,
            )
            for table_index in range(num_tables)
        ]
        tables._n = num_points
        tables._ranks = arrays["ranks"] if has_ranks else None
        tables._fitted = True

        if dynamic:
            tables._points = points
            if prebuilt_store is not None:
                tables._store = prebuilt_store
            if has_ranks:
                # Re-establish the capacity buffer the rank view grows inside.
                tables._ranks_buf = np.array(tables._ranks, dtype=np.int64)
                tables._ranks = tables._ranks_buf[:num_points]
            tables._alive = arrays["alive"].astype(bool)
            tables._num_live = int(manifest["num_live"])
            tables._pending = set(arrays["pending"].tolist())
            tables.rebuilds_triggered = int(manifest["rebuilds_triggered"])
            tables._mut_rng = objects["mut_rng"]
            restored_delta = objects.get("pending_delta")
            tables._delta = restored_delta if restored_delta is not None else MutationDelta()
            # Epochs restart at 0 in the restored tables; re-anchor the delta
            # so the re-anchored sampler (below) sees no epoch gap.  Its
            # overflowed flag is kept, and still forces a redraw.
            tables._delta.start_epoch = tables.mutation_epoch
            dataset = tables.dataset
        else:
            dataset = points

    sampler = objects["sampler"]
    sampler.tables = tables
    sampler._dataset = dataset
    sampler.ranks = tables.ranks if sampler._use_ranks else None
    if prebuilt_store is not None and not hasattr(tables, "point_store"):
        # Static tables have no shared store; seed the sampler's own cache so
        # vectorized scoring starts on the reconstructed store immediately.
        sampler._store = prebuilt_store
    # Restored tables restart their mutation epoch; re-anchor the sampler so
    # its next empty drain is not mistaken for a missed (stolen) delta.  Any
    # delta persisted above round-trips and is applied on the next sync.
    sampler._synced_epoch = tables.mutation_epoch

    engine = BatchQueryEngine(
        sampler,
        batch_hashing=bool(manifest["batch_hashing"]),
        coalesce_duplicates=bool(manifest["coalesce_duplicates"]),
        sampler_name=manifest.get("sampler_name"),
        spec=spec,
    )
    engine.stats = EngineStats.from_dict(manifest["stats"])
    return engine


def _restore_dataset(
    directory: pathlib.Path,
    manifest: dict,
    objects: dict,
    arrays,
    store_spec: StoreSpec,
    block_client,
):
    """Rebuild the point container for the requested backend.

    Returns ``(points, store)`` — the dataset container the tables/sampler
    will hold, plus a ready columnar store over it (``None`` when the
    dataset has no columnar form and scoring falls back to the scalar loop).
    ``inram`` materializes a plain list (of matrix row views / frozensets);
    ``memmap`` and ``remote`` return a
    :class:`~repro.store.StoreBackedPoints` facade whose rows come straight
    from the backing store, so nothing is read up front.
    """
    layout = manifest.get("dataset_layout") or "pickled"
    if manifest["format_version"] != FORMAT_VERSION or layout == "pickled":
        return list(objects["dataset"]), None
    if layout not in _DATASET_LAYOUTS:
        raise InvalidParameterError(f"unknown snapshot dataset layout {layout!r}")
    released_mask = np.asarray(arrays["dataset__released"], dtype=bool)

    points = None
    if store_spec.backend == "inram":
        dead = released_mask.tolist()
        if layout == "dense":
            matrix = np.ascontiguousarray(arrays["dataset__dense"], dtype=np.float64)
            points = [None if gone else row for gone, row in zip(dead, matrix)]
            store = DenseStore(matrix)
        else:
            indptr = np.ascontiguousarray(arrays["dataset__indptr"], dtype=np.int64)
            items = np.ascontiguousarray(arrays["dataset__items"], dtype=np.int64)
            # One tolist() per array, then a frozenset per slice of Python ints.
            bounds, flat = indptr.tolist(), items.tolist()
            points = [
                None if gone else frozenset(flat[start:end])
                for gone, start, end in zip(dead, bounds, bounds[1:])
            ]
            # The store gets its own list: the tables extend theirs on insert
            # and then append the batch to the store, which extends its list.
            store = SetStore._from_csr(list(points), indptr, items)
    elif store_spec.backend == "memmap":
        arrays_dir = directory / _ARRAYS_DIR
        if layout == "dense":
            store = MemmapDenseStore(arrays_dir / "dataset__dense.npy")
        else:
            store = MemmapSetStore(
                arrays_dir / "dataset__indptr.npy", arrays_dir / "dataset__items.npy"
            )
    else:  # remote
        client = block_client
        if client is None:
            if store_spec.endpoint is None:
                raise InvalidParameterError(
                    "the remote backend needs a block server: pass block_client= "
                    "or a StoreSpec carrying an endpoint"
                )
            from repro.store import HTTPBlockClient

            client = HTTPBlockClient(store_spec.endpoint)
        from repro.store import RemoteDenseStore, RemoteSetStore

        store_cls = RemoteDenseStore if layout == "dense" else RemoteSetStore
        store = store_cls(
            client,
            cache_blocks=store_spec.cache_blocks,
            block_size=store_spec.block_size,
        )
    num_points = int(manifest["num_points"])
    if len(store) != num_points or released_mask.size != num_points:
        raise SnapshotCorruptError(
            f"snapshot dataset holds {len(store)} rows and {released_mask.size} "
            f"liveness flags but the manifest records {num_points}"
        )
    if points is None:
        points = StoreBackedPoints(store, np.flatnonzero(released_mask).tolist())
    return points, store


def _restore_table(arrays, table_index: int, keys, has_ranks: bool) -> dict:
    """Rebuild one table's ``key -> Bucket`` dict from its CSR arrays."""
    # np.asarray demotes memmap-loaded arrays to base-ndarray views over the
    # same mapping, so the thousands of per-bucket slices are cheap ndarray
    # views instead of memmap subclass instances.  copy=False keeps the intp
    # cast lazy too (int64 == intp on 64-bit platforms).  A ranked table
    # reads both arrays once, into the indices-over-ranks layout that Bucket
    # keeps its members in.
    indices = np.asarray(arrays[f"t{table_index}_indices"]).astype(np.intp, copy=False)
    ranks = np.asarray(arrays[f"t{table_index}_ranks"]) if has_ranks else None
    members = indices if ranks is None else np.array((indices, ranks))
    offsets = np.asarray(arrays[f"t{table_index}_offsets"])
    if offsets.size != len(keys) + 1:
        raise SnapshotCorruptError(
            f"table {table_index} has {len(keys)} bucket keys but {offsets.size} offsets"
        )
    return buckets_from_csr(keys, offsets, members)
