"""Pluggable storage backends: byte-identity, caching and fault behaviour.

The ``repro.store`` subsystem promises that the storage tier is invisible to
the sampling algorithms: a format-5 snapshot loaded through the in-RAM,
memory-mapped or remote backend must produce **byte-identical**
``QueryResponse`` streams — same indices, same measure values, same work
counters — for every registered sampler, both freshly loaded and after
online churn (inserts land in the resident overlay, deletes tombstone the
base tier).  This file pins that promise, plus the operational surface
around it:

* the remote tier's LRU block cache counts hits/misses/evictions/bytes
  deterministically (one hit *or* miss per unique block per gather) and
  batches all missing blocks of a gather into one fetch round-trip;
* torn and unreachable block servers surface as the typed
  :class:`~repro.exceptions.BlockFetchError`, never a raw struct error;
* missing or truncated per-array ``.npy`` payloads of a v5 snapshot raise
  :class:`~repro.exceptions.SnapshotCorruptError` with ``.path`` set;
* ``StoreSpec`` round-trips through JSON standalone and on ``EngineSpec``;
* ``FairNN.serve(store="memmap")`` demotes the built index out-of-core and
  checkpoints in format 5; the HTTP ``/v1/stats`` surface exposes the
  store block.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.api import FairNN
from repro.engine import BatchQueryEngine, load_engine, save_engine
from repro.engine.requests import QueryRequest
from repro.exceptions import BlockFetchError, InvalidParameterError, SnapshotCorruptError
from repro.server import BlockServer, FairNNClient, FairNNServer
from repro.spec import EngineSpec, LSHSpec, SamplerSpec
from repro.store import (
    HTTPBlockClient,
    LocalBlockClient,
    MemmapDenseStore,
    MemmapSetStore,
    RemoteDenseStore,
    RemoteSetStore,
    SetStore,
    StoreBackedPoints,
    StoreSpec,
)
from repro.store.blocks import block_count
from repro.testing import FaultInjector, tear_tail

from test_spec_api import CANONICAL_SPECS

SEED = 7

#: Remote loads in the identity tests use a deliberately tiny cache so the
#: eviction path runs inside them too.
REMOTE_SPEC = {"backend": "remote", "cache_blocks": 8, "block_size": 16}

#: A dense-vector LSH workload (the canonical specs cover dense only through
#: the filter samplers; churn and corruption need a dense *table* engine).
DENSE_LSH_SPEC = SamplerSpec(
    "independent",
    {"radius": 0.7, "far_radius": 0.2, "num_hashes": 4, "num_tables": 6},
    lsh=LSHSpec("hyperplane", {"dim": 20}),
)


def _flavour_data(name, small_set_dataset, planted_unit_vectors):
    if name == "independent_dense":
        spec, flavour = DENSE_LSH_SPEC, "vectors"
    else:
        spec, flavour = CANONICAL_SPECS[name]
    spec = dataclasses.replace(spec, seed=SEED)
    if flavour == "sets":
        dataset = list(small_set_dataset)
        queries = dataset[:4] + [frozenset(set(dataset[0]) | {99991})]
    else:
        dataset = planted_unit_vectors["points"]
        queries = [dataset[i] for i in range(4)] + [planted_unit_vectors["query"]]
    return spec, dataset, queries


def _assert_identical_runs(engines, queries):
    requests = [QueryRequest(query=q) for q in queries]
    reference = engines[0].run(requests)
    for other in engines[1:]:
        for a, b in zip(reference, other.run(requests)):
            assert a.indices == b.indices
            assert a.value == b.value
            assert a.stats == b.stats


def _load_three_ways(snapshot, loader):
    """The same snapshot through all three backends, remote via a local
    (in-process) block client so no HTTP server is needed."""
    return [
        loader(snapshot),
        loader(snapshot, store="memmap"),
        loader(snapshot, store=REMOTE_SPEC, block_client=LocalBlockClient(snapshot)),
    ]


#: Samplers with no LSH table layer cannot be snapshotted (pre-existing
#: constraint); their backend-independence is pinned by fitting directly
#: over store-backed containers instead of through a snapshot round-trip.
TABLELESS = ("exact", "filter", "gaussian_filter")
SNAPSHOTTABLE = tuple(n for n in sorted(CANONICAL_SPECS) if n not in TABLELESS)


def _store_containers(dataset, flavour, tmp_path):
    """The same dataset as a plain list, a memmap-backed container and a
    remote-backed container (in-process block client)."""
    if flavour == "vectors":
        matrix = np.ascontiguousarray(np.asarray(dataset, dtype=np.float64))
        np.save(tmp_path / "dataset__dense.npy", matrix)
        mapped = MemmapDenseStore(tmp_path / "dataset__dense.npy")
        remote = RemoteDenseStore(
            LocalBlockClient({"dataset__dense": matrix}), cache_blocks=8, block_size=16
        )
    else:
        indptr = np.cumsum([0] + [len(s) for s in dataset]).astype(np.int64)
        items = np.concatenate(
            [np.sort(np.fromiter(s, dtype=np.int64)) for s in dataset]
        )
        np.save(tmp_path / "dataset__indptr.npy", indptr)
        np.save(tmp_path / "dataset__items.npy", items)
        mapped = MemmapSetStore(
            tmp_path / "dataset__indptr.npy", tmp_path / "dataset__items.npy"
        )
        remote = RemoteSetStore(
            LocalBlockClient({"dataset__indptr": indptr, "dataset__items": items}),
            cache_blocks=8,
            block_size=16,
        )
    return [list(dataset), StoreBackedPoints(mapped), StoreBackedPoints(remote)]


# ----------------------------------------------------------------------
# Byte-identity across backends
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", SNAPSHOTTABLE)
class TestBackendIdentity:
    def test_fresh_load_identical_per_sampler(
        self, name, small_set_dataset, planted_unit_vectors, tmp_path
    ):
        """Every snapshottable sampler answers identically on all backends."""
        spec, dataset, queries = _flavour_data(name, small_set_dataset, planted_unit_vectors)
        nn = FairNN.from_spec(spec).fit(dataset)
        nn.save(tmp_path / "snap")

        clones = _load_three_ways(tmp_path / "snap", FairNN.load)
        backends = [clone.capacity()["store_backend"] for clone in clones]
        assert backends == ["inram", "memmap", "remote"]
        _assert_identical_runs([clone.engine(clone.primary) for clone in clones], queries)


@pytest.mark.parametrize("name", TABLELESS)
class TestTablelessBackendIdentity:
    def test_fit_over_store_backed_containers(
        self, name, small_set_dataset, planted_unit_vectors, tmp_path
    ):
        """Tableless samplers gather through the same store protocol: a fit
        over memmap- or remote-backed containers answers identically to a
        fit over the plain list."""
        spec, flavour = CANONICAL_SPECS[name]
        spec = dataclasses.replace(spec, seed=SEED)
        _, dataset, queries = _flavour_data(name, small_set_dataset, planted_unit_vectors)
        outputs = []
        for container in _store_containers(dataset, flavour, tmp_path):
            sampler = spec.build().fit(container)
            outputs.append(
                [
                    [sampler.sample(q) for q in queries],
                    [sampler.sample_k(q, k=5) for q in queries],
                ]
            )
        assert outputs[0] == outputs[1] == outputs[2]


@pytest.mark.parametrize("flavour_name", ["permutation", "independent_dense"])
class TestChurnedBackendIdentity:
    def test_post_churn_identity_and_overlay_promotion(
        self, flavour_name, small_set_dataset, planted_unit_vectors, tmp_path
    ):
        """Inserts/deletes/compaction on out-of-core engines stay identical
        to the in-RAM twin; inserts are promoted into the resident overlay."""
        spec, dataset, queries = _flavour_data(
            flavour_name, small_set_dataset, planted_unit_vectors
        )
        engine = BatchQueryEngine.build(spec.build(), dataset[:60])
        save_engine(engine, tmp_path / "snap")

        clones = _load_three_ways(tmp_path / "snap", load_engine)
        fresh = list(dataset[60:70])
        for clone in clones:
            clone.insert_many(fresh)
            clone.delete(3)
            clone.delete(11)
            clone.tables.compact()
        # The queries hit both tiers: snapshot base rows and overlay rows.
        _assert_identical_runs(clones, queries + fresh[:3])

        for clone, backend in zip(clones[1:], ["memmap", "remote"]):
            store = clone.tables.point_store
            assert store.backend == backend
            assert store.stats_dict()["overlay_rows"] == len(fresh)
        # Mutated out-of-core engines re-snapshot in format 5 (auto-upgrade)
        # and the re-loaded artifact still matches.
        save_engine(clones[1], tmp_path / "resnap")
        manifest = json.loads((tmp_path / "resnap" / "manifest.json").read_text())
        assert manifest["format_version"] == 5
        _assert_identical_runs(
            [clones[0], load_engine(tmp_path / "resnap")], queries + fresh[:3]
        )


# ----------------------------------------------------------------------
# Remote tier: deterministic LRU cache accounting (perf-guard style)
# ----------------------------------------------------------------------
class TestBlockCacheAccounting:
    def _dense_store(self, rows=16, dim=2, cache_blocks=2, block_size=4):
        matrix = np.arange(rows * dim, dtype=np.float64).reshape(rows, dim)
        client = LocalBlockClient({"dataset__dense": matrix})
        store = RemoteDenseStore(client, cache_blocks=cache_blocks, block_size=block_size)
        return matrix, client, store

    def test_dense_gather_counters_are_exact(self):
        """Each unique block a gather needs scores exactly one hit or one
        miss; evictions and bytes fetched follow from LRU + block geometry."""
        matrix, client, store = self._dense_store()
        block_bytes = 4 * 2 * 8  # block_size * dim * float64

        assert np.array_equal(store.gather([0, 5]), matrix[[0, 5]])  # blocks 0,1: miss both
        assert np.array_equal(store.gather([1, 4]), matrix[[1, 4]])  # blocks 0,1: hit both
        assert np.array_equal(store.gather([8, 12]), matrix[[8, 12]])  # blocks 2,3: miss, evict 0,1
        assert np.array_equal(store.gather([0]), matrix[[0]])  # block 0: miss again, evict 2

        stats = store.cache_stats()
        assert stats["hits"] == 2
        assert stats["misses"] == 5
        assert stats["evictions"] == 3
        assert stats["bytes_fetched"] == 5 * block_bytes
        assert stats["cached_blocks"] == 2
        # All missing blocks of one gather travel in ONE round-trip.
        assert client.fetch_calls == 3  # the all-hit gather made none

    def test_set_gather_batches_missing_blocks_into_one_fetch(self):
        sets = [frozenset(range(i, i + 4)) for i in range(12)]
        indptr = np.cumsum([0] + [len(s) for s in sets]).astype(np.int64)
        items = np.concatenate([np.sort(np.fromiter(s, dtype=np.int64)) for s in sets])
        client = LocalBlockClient({"dataset__indptr": indptr, "dataset__items": items})
        store = RemoteSetStore(client, cache_blocks=64, block_size=8)
        calls_before = client.fetch_calls

        lengths, flat = store.gather(list(range(12)))
        assert client.fetch_calls == calls_before + 1  # one batched items fetch
        assert np.array_equal(lengths, np.diff(indptr))
        assert np.array_equal(flat, items)
        stats = store.cache_stats()
        assert stats["misses"] == block_count(len(items), 8)
        assert stats["hits"] == 0

        store.gather([2, 3])  # fully cached now
        assert client.fetch_calls == calls_before + 1
        assert store.cache_stats()["hits"] == 1  # one unique block needed

    def test_torn_fetch_raises_typed_error(self):
        _, client, store = self._dense_store()
        client.tear_next_fetch(keep_bytes=10)
        with pytest.raises(BlockFetchError, match="torn"):
            store.gather([0, 1])

    def test_unreachable_fetch_site_raises_typed_error(self):
        injector = FaultInjector()
        matrix = np.ones((8, 2))
        client = LocalBlockClient({"dataset__dense": matrix}, fault_injector=injector)
        store = RemoteDenseStore(client, cache_blocks=4, block_size=4)
        injector.arm("blocks.fetch", _raise_connection_error)
        with pytest.raises(BlockFetchError):
            store.gather([0])
        injector.disarm("blocks.fetch")
        assert np.array_equal(store.gather([0]), matrix[[0]])  # recovers after the fault

    def test_unreachable_meta_site_raises_typed_error(self):
        injector = FaultInjector()
        injector.arm("blocks.meta", _raise_connection_error)
        client = LocalBlockClient({"dataset__dense": np.ones((8, 2))}, fault_injector=injector)
        with pytest.raises(BlockFetchError):
            RemoteDenseStore(client, cache_blocks=4, block_size=4)

    def test_http_client_unreachable_server(self):
        client = HTTPBlockClient("http://127.0.0.1:9", timeout=0.5)
        with pytest.raises(BlockFetchError, match="unreachable"):
            client.meta()


def _raise_connection_error():
    raise ConnectionError("block server is gone")


# ----------------------------------------------------------------------
# v5 snapshot corruption
# ----------------------------------------------------------------------
class TestV5Corruption:
    def _snapshot(self, tmp_path, planted_unit_vectors):
        spec, dataset, queries = _flavour_data(
            "independent_dense", None, planted_unit_vectors
        )
        engine = BatchQueryEngine.build(spec.build(), dataset[:50])
        save_engine(engine, tmp_path / "snap")
        return tmp_path / "snap"

    def test_missing_array_file_raises_with_path(self, tmp_path, planted_unit_vectors):
        snap = self._snapshot(tmp_path, planted_unit_vectors)
        victim = snap / "arrays" / "dataset__dense.npy"
        victim.unlink()
        for store in (None, "memmap"):
            with pytest.raises(SnapshotCorruptError) as info:
                load_engine(snap, store=store)
            assert str(info.value.path) == str(victim)

    def test_truncated_array_file_raises_with_path(self, tmp_path, planted_unit_vectors):
        snap = self._snapshot(tmp_path, planted_unit_vectors)
        victim = snap / "arrays" / "dataset__dense.npy"
        tear_tail(victim, drop_bytes=64)
        for store in (None, "memmap"):
            with pytest.raises(SnapshotCorruptError) as info:
                load_engine(snap, store=store)
            assert str(info.value.path) == str(victim)

    def test_out_of_core_request_on_legacy_snapshot(self, legacy_snapshot):
        legacy = legacy_snapshot("pstable-k1-v3")  # zipped, written by an earlier release
        manifest = json.loads((legacy / "manifest.json").read_text())
        assert manifest["format_version"] == 3
        with pytest.raises(InvalidParameterError, match="format-5"):
            load_engine(legacy, store="memmap")
        assert load_engine(legacy).num_live_points == manifest["num_live"]


# ----------------------------------------------------------------------
# StoreSpec round-trips and validation
# ----------------------------------------------------------------------
class TestStoreSpec:
    def test_json_round_trip(self):
        spec = StoreSpec(
            backend="remote", cache_blocks=32, block_size=128, endpoint="http://h:1"
        )
        assert StoreSpec.from_json(spec.to_json()) == spec
        assert StoreSpec.coerce("memmap") == StoreSpec(backend="memmap")
        assert StoreSpec.coerce(None) == StoreSpec()
        assert StoreSpec.coerce({"backend": "inram"}) == StoreSpec()

    def test_engine_spec_round_trip(self, tmp_path):
        base = dataclasses.replace(CANONICAL_SPECS["permutation"][0], seed=SEED)
        spec = EngineSpec(samplers={"p": base}, primary="p", store=StoreSpec("memmap"))
        restored = EngineSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert restored.store == StoreSpec("memmap")
        assert restored == spec
        # Coercion sugar on the field itself.
        assert EngineSpec(samplers={"p": base}, primary="p", store="memmap").store == StoreSpec(
            "memmap"
        )

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            StoreSpec(backend="tape")
        with pytest.raises(InvalidParameterError):
            StoreSpec(cache_blocks=0)
        with pytest.raises(InvalidParameterError):
            StoreSpec(backend="inram", endpoint="http://h:1")  # endpoint is remote-only
        with pytest.raises(InvalidParameterError):
            StoreSpec(backend="remote", endpoint="ftp://h:1")


# ----------------------------------------------------------------------
# Facade + serving surface
# ----------------------------------------------------------------------
class TestServingIntegration:
    def test_serve_memmap_demotes_and_checkpoints_v5(self, small_set_dataset, tmp_path):
        spec = dataclasses.replace(CANONICAL_SPECS["permutation"][0], seed=SEED)
        dataset = list(small_set_dataset)

        twin = FairNN.from_spec(spec).serve(dataset)
        nn = FairNN.from_spec(spec).serve(
            dataset, store="memmap", data_dir=str(tmp_path / "dd")
        )
        assert nn.capacity()["store_backend"] == "memmap"
        assert twin.capacity()["store_backend"] == "inram"

        for facade in (twin, nn):
            facade.insert_many(dataset[:5])
            facade.delete(2)
        queries = dataset[:6]
        _assert_identical_runs([twin.engine(twin.primary), nn.engine(nn.primary)], queries)
        # The initial checkpoint of an out-of-core facade is format 5.
        checkpoints = sorted((tmp_path / "dd" / "snapshots").iterdir())
        manifest = json.loads((checkpoints[0] / "manifest.json").read_text())
        assert manifest["format_version"] == 5
        nn.close()
        twin.close()

    def test_serve_remote_is_refused(self, small_set_dataset):
        spec = dataclasses.replace(CANONICAL_SPECS["permutation"][0], seed=SEED)
        nn = FairNN.from_spec(spec)
        with pytest.raises(InvalidParameterError, match="remote"):
            nn.serve(list(small_set_dataset), store={"backend": "remote", "endpoint": "http://h:1"})

    def test_http_stats_exposes_store_block(self, small_set_dataset, tmp_path):
        spec = dataclasses.replace(CANONICAL_SPECS["permutation"][0], seed=SEED)
        dataset = list(small_set_dataset)
        nn = FairNN.from_spec(spec).fit(dataset)
        nn.save(tmp_path / "snap")

        with BlockServer.from_snapshot(tmp_path / "snap") as blocks:
            served = FairNN.load(
                tmp_path / "snap",
                store={"backend": "remote", "endpoint": blocks.url, "block_size": 32},
            )
            served.sample(dataset[0])
            with FairNNServer(served) as server:
                stats = FairNNClient(server.url).stats()
            block = stats["samplers"][served.primary]["store"]
            assert block["backend"] == "remote"
            assert block["cache"]["misses"] > 0
            counters = stats["samplers"][served.primary]["counters"]
            assert counters["store_cache_misses"] == block["cache"]["misses"]
            assert counters["store_bytes_fetched"] == block["cache"]["bytes_fetched"]


# ----------------------------------------------------------------------
# Set-store growth
# ----------------------------------------------------------------------
class TestSetStoreAppend:
    """Appends grow the CSR buffers by capacity doubling; the live prefixes
    must read exactly as one fresh pack of the same rows."""

    @staticmethod
    def _rows(count, seed=3):
        rng = np.random.default_rng(seed)
        return [
            frozenset(int(x) for x in rng.choice(50, size=int(rng.integers(0, 6)), replace=False))
            for _ in range(count)
        ]

    def _assert_same(self, grown, fresh, n):
        indices = np.random.default_rng(0).permutation(n)
        assert len(grown) == len(fresh) == n
        assert np.array_equal(grown.indptr, fresh.indptr)
        assert np.array_equal(grown.items, fresh.items)
        for got, want in zip(grown.gather(indices), fresh.gather(indices)):
            assert np.array_equal(got, want)

    def test_many_small_appends_match_one_fresh_pack(self):
        rows = self._rows(120)
        grown = SetStore(rows[:5])
        cursor = 5
        for size in (1, 0, 1, 3, 1, 7, 2, 1, 40, 1):
            grown.append(rows[cursor : cursor + size])
            cursor += size
        while cursor < len(rows):
            grown.append(rows[cursor : cursor + 1])
            cursor += 1
        self._assert_same(grown, SetStore(rows), len(rows))
        # Doubling leaves spare capacity; the properties read live prefixes.
        assert grown._indptr.size > len(rows) + 1
        assert grown.get_point(119) == rows[119]

    def test_appends_after_a_csr_load(self):
        rows = self._rows(30, seed=4)
        head = SetStore(rows[:20])
        adopted = SetStore._from_csr(list(rows[:20]), head.indptr, head.items)
        for row in rows[20:]:
            adopted.append([row])
        self._assert_same(adopted, SetStore(rows), len(rows))

    def test_pack_equals_the_per_row_oracle(self):
        """One sorted pass over all rows packs as one fromiter per row
        followed by a (row, item) lexsort did."""
        from repro.store.inram import _pack_sets

        rng = np.random.default_rng(8)
        rows = self._rows(60, seed=6) + [None, frozenset(), frozenset({-(2**62), 2**62, 0})]
        rows += [frozenset(int(x) for x in rng.integers(-(2**40), 2**40, size=9))]
        rows += [{np.int64(5), 3, np.int32(-1)}, None]
        lengths = np.asarray([0 if row is None else len(row) for row in rows], dtype=np.int64)
        items = np.concatenate(
            [np.fromiter(row, dtype=np.int64, count=len(row)) for row in rows if row]
        )
        row_ids = np.repeat(np.arange(len(rows), dtype=np.int64), lengths)
        expected = items[np.lexsort((items, row_ids))]
        indptr, packed = _pack_sets(rows)
        assert indptr.tolist() == [0] + np.cumsum(lengths).tolist()
        assert packed.dtype == np.int64 and packed.tolist() == expected.tolist()
        assert _pack_sets([None, frozenset()])[1].size == 0
        with pytest.raises(TypeError):
            _pack_sets([frozenset({1}), frozenset({"a", "b"})])

    def test_memmap_overlay_appends_share_the_growth(self, tmp_path):
        rows = self._rows(40, seed=5)
        base = SetStore(rows[:25])
        np.save(tmp_path / "indptr.npy", base.indptr)
        np.save(tmp_path / "items.npy", base.items)
        mapped = MemmapSetStore(tmp_path / "indptr.npy", tmp_path / "items.npy")
        for row in rows[25:]:
            mapped.append([row])
        assert isinstance(mapped._overlay, SetStore)
        self._assert_same(mapped, SetStore(rows), len(rows))
