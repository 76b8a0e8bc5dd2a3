"""Snapshot round-trips of degenerate serving states.

Production snapshots are taken whenever an operator asks, not when the index
is in a photogenic state.  Three degenerate moments are pinned here, each
after one round-trip and after a second one (the loaded clone saved and
loaded again, as a recovered server's next checkpoint is):

* **zero live points** — everything deleted and swept; the artifact must
  load, answer ``⊥`` and accept fresh inserts;
* **all-tombstoned buckets** — deletes pending, compaction not yet run, so
  bucket arrays still reference dead slots that queries must keep hiding
  after the round-trip;
* **mid-undrained delta** — the tables mutated directly (no engine sync), so
  an unconsumed :class:`MutationDelta` must survive the round-trip and reach
  the restored sampler's next ``notify_update``.

Damaged artifacts are pinned too, for the raw-``.npy`` format (v5) that
``save_engine`` writes and for copies of a zipped (v3) snapshot an earlier
release wrote: a snapshot with missing, truncated or bit-rotted files must
raise the typed :class:`~repro.exceptions.SnapshotCorruptError` (never a raw
``KeyError`` / ``UnpicklingError`` / ``JSONDecodeError``) — recovery
(:meth:`FairNN.recover`) relies on the typed signal to fall back to an
older checkpoint.
"""

from __future__ import annotations

import json
import pickle

import numpy as np
import pytest

from repro.core import IndependentFairSampler, PermutationFairSampler
from repro.engine import BatchQueryEngine, load_engine, save_engine
from repro.exceptions import InvalidParameterError, SnapshotCorruptError
from repro.lsh import MinHashFamily
from repro.testing import flip_byte, tear_tail

PARAMS = {"radius": 0.35, "far_radius": 0.1, "num_hashes": 2, "num_tables": 6}


def _dataset(seed=2, n=40):
    rng = np.random.default_rng(seed)
    return [
        frozenset(int(x) for x in rng.choice(300, size=rng.integers(8, 20)))
        for _ in range(n)
    ]


def _build(dataset, sampler_cls=PermutationFairSampler, seed=9):
    sampler = sampler_cls(MinHashFamily(), seed=seed, **PARAMS)
    return BatchQueryEngine.build(sampler, dataset)


def _round_trip(engine, directory, twice):
    save_engine(engine, directory)
    clone = load_engine(directory)
    if twice:
        save_engine(clone, directory / "again")
        clone = load_engine(directory / "again")
    return clone


def _assert_identical_runs(left, right, queries):
    for a, b in zip(left.run(queries), right.run(queries)):
        assert a.indices == b.indices
        assert a.value == b.value
        assert a.stats == b.stats


@pytest.mark.parametrize("twice", [False, True])
class TestDegenerateSnapshots:
    def test_zero_live_points_round_trip(self, twice, tmp_path):
        dataset = _dataset()
        engine = _build(dataset)
        for index in range(len(dataset)):
            engine.delete(index)
        engine.tables.compact()
        assert engine.num_live_points == 0

        clone = _round_trip(engine, tmp_path / "snap", twice)
        assert clone.num_live_points == 0
        assert type(clone) is type(engine)
        queries = dataset[:5]
        for response in clone.run(queries):
            assert not response.found
        _assert_identical_runs(engine, clone, queries)
        # A dead artifact is still a serviceable index: inserts revive it.
        revived = clone.insert_many(dataset[:3])
        assert len(revived) == 3
        assert clone.run([dataset[0]])[0].found

    def test_all_tombstoned_bucket_pending_round_trip(self, twice, tmp_path):
        """Delete every member of the query's neighborhood but keep the
        sweep pending: bucket arrays still hold the dead references."""
        dataset = _dataset()
        engine = _build(dataset)
        query = dataset[0]
        colliding = [int(i) for i in engine.tables.query_candidates(query)]
        assert colliding
        # A large max_tombstone_fraction would be cleaner, but deleting less
        # than the trigger keeps the sweep pending on the default settings.
        doomed = colliding[: max(1, int(0.2 * engine.tables.num_live))]
        for index in doomed:
            engine.delete(index)
        assert engine.tables.pending_tombstones > 0

        clone = _round_trip(engine, tmp_path / "snap", twice)
        assert clone.tables.pending_tombstones == engine.tables.pending_tombstones
        for index in doomed:
            assert index not in clone.tables.query_candidates(query).tolist()
        _assert_identical_runs(engine, clone, dataset[:8])
        # Compaction after the round-trip still sweeps cleanly.
        clone.tables.compact()
        engine.tables.compact()
        assert clone.tables.pending_tombstones == 0
        _assert_identical_runs(engine, clone, dataset[:8])

    def test_mid_undrained_delta_round_trip(self, twice, tmp_path):
        """Mutations applied directly to the tables (engine not synced) must
        survive as a pending delta and reach the restored sampler."""
        dataset = _dataset()
        engine = _build(dataset, sampler_cls=IndependentFairSampler)
        engine.run(dataset[:3])  # engine fully synced at this point
        tables = engine.tables
        tables.insert_many(dataset[:4])
        tables.delete(1)
        assert not tables.peek_delta().is_empty

        clone = _round_trip(engine, tmp_path / "snap", twice)
        restored = clone.tables.peek_delta()
        assert not restored.is_empty
        assert list(restored.deleted) == [1]
        assert len(restored.inserted) == 4
        # The restored sampler consumes the delta incrementally (epoch
        # re-anchored) and both sides answer identically afterwards.
        clone.sampler.notify_update()
        engine.sampler.notify_update()
        engine._tables_dirty = False
        clone._tables_dirty = False
        _assert_identical_runs(engine, clone, dataset[:8])

    def test_empty_mutation_history_round_trip(self, twice, tmp_path):
        dataset = _dataset()
        engine = _build(dataset)
        clone = _round_trip(engine, tmp_path / "snap", twice)
        assert clone.tables.peek_delta().is_empty
        _assert_identical_runs(engine, clone, dataset[:10])


@pytest.mark.parametrize("format_version", [3, 5], ids=["v3", "v5"])
class TestCorruptSnapshots:
    """Every flavour of on-disk damage surfaces as SnapshotCorruptError.

    The v3 cases damage a copy of a checked-in zipped snapshot; the v5
    cases one ``save_engine`` writes.  ``arrays.npz`` names the array
    payload: the zip itself in v3, one table's ``.npy`` file in v5.
    """

    def _snapshot(self, tmp_path, legacy_snapshot, format_version):
        if format_version == 3:
            return legacy_snapshot("minhash-k2-v3")
        save_engine(_build(_dataset()), tmp_path / "snap")
        return tmp_path / "snap"

    @staticmethod
    def _file(snap, victim):
        if victim == "arrays.npz" and not (snap / victim).exists():
            return snap / "arrays" / "t0_indices.npy"
        return snap / victim

    @pytest.mark.parametrize("victim", ["manifest.json", "arrays.npz", "objects.pkl"])
    def test_missing_file(self, format_version, tmp_path, legacy_snapshot, victim):
        snap = self._snapshot(tmp_path, legacy_snapshot, format_version)
        self._file(snap, victim).unlink()
        with pytest.raises(SnapshotCorruptError):
            load_engine(snap)

    @pytest.mark.parametrize("victim", ["arrays.npz", "objects.pkl"])
    def test_truncated_file(self, format_version, tmp_path, legacy_snapshot, victim):
        snap = self._snapshot(tmp_path, legacy_snapshot, format_version)
        path = self._file(snap, victim)
        tear_tail(path, path.stat().st_size // 2)
        with pytest.raises(SnapshotCorruptError):
            load_engine(snap)

    def test_unparseable_manifest(self, format_version, tmp_path, legacy_snapshot):
        snap = self._snapshot(tmp_path, legacy_snapshot, format_version)
        (snap / "manifest.json").write_text("{not json")
        with pytest.raises(SnapshotCorruptError):
            load_engine(snap)

    def test_manifest_missing_keys(self, format_version, tmp_path, legacy_snapshot):
        snap = self._snapshot(tmp_path, legacy_snapshot, format_version)
        (snap / "manifest.json").write_text(json.dumps({"format_version": format_version}))
        with pytest.raises(SnapshotCorruptError):
            load_engine(snap)

    def test_bit_rot_in_objects(self, format_version, tmp_path, legacy_snapshot):
        snap = self._snapshot(tmp_path, legacy_snapshot, format_version)
        # The pickle opcode stream starts at the front; rot it there so
        # unpickling fails structurally rather than by luck.
        flip_byte(snap / "objects.pkl", 1)
        with pytest.raises(SnapshotCorruptError):
            load_engine(snap)

    def test_error_is_typed_and_chained(self, format_version, tmp_path, legacy_snapshot):
        snap = self._snapshot(tmp_path, legacy_snapshot, format_version)
        self._file(snap, "arrays.npz").unlink()
        with pytest.raises(SnapshotCorruptError) as excinfo:
            load_engine(snap)
        assert excinfo.value.__cause__ is not None
        assert str(snap) in str(excinfo.value)

    def test_unsupported_version_stays_invalid_parameter(
        self, format_version, tmp_path, legacy_snapshot
    ):
        """A *well-formed* snapshot from the future is a usage error, not
        corruption — recovery must not silently fall back past it."""
        snap = self._snapshot(tmp_path, legacy_snapshot, format_version)
        manifest = json.loads((snap / "manifest.json").read_text())
        manifest["format_version"] = 999
        (snap / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(InvalidParameterError):
            load_engine(snap)

    def test_intact_snapshot_still_loads(self, format_version, tmp_path, legacy_snapshot):
        """An undamaged snapshot loads, re-saves (as v5) and answers alike."""
        engine = load_engine(self._snapshot(tmp_path, legacy_snapshot, format_version))
        save_engine(engine, tmp_path / "resaved")
        clone = load_engine(tmp_path / "resaved")
        queries = [point for point in engine.sampler.dataset if point is not None][:6]
        _assert_identical_runs(engine, clone, queries)


class TestSnapshotFormats:
    def test_engines_write_v5(self, tmp_path):
        """Columnar datasets are arrays, not pickled points, in every save."""
        engine = _build(_dataset())
        save_engine(engine, tmp_path / "snap")
        manifest = json.loads((tmp_path / "snap" / "manifest.json").read_text())
        assert manifest["format_version"] == 5
        assert manifest["dataset_layout"] == "sets"
        assert not (tmp_path / "snap" / "arrays.npz").exists()
        assert (tmp_path / "snap" / "arrays" / "dataset__items.npy").exists()
        with open(tmp_path / "snap" / "objects.pkl", "rb") as handle:
            assert pickle.load(handle)["dataset"] is None
        assert isinstance(load_engine(tmp_path / "snap"), BatchQueryEngine)

    @pytest.mark.parametrize(
        "edit", [{"format_version": 4}, {"sharded": True}], ids=["v4", "v5-sharded"]
    )
    def test_sharded_snapshots_are_refused_by_name(self, tmp_path, edit):
        """Table sharding is gone: its snapshots are refused with a typed
        error naming the format, before any array or pickle is read."""
        engine = _build(_dataset())
        save_engine(engine, tmp_path / "snap")
        assert load_engine(tmp_path / "snap").num_live_points == engine.num_live_points
        manifest_path = tmp_path / "snap" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest.update(edit)
        manifest_path.write_text(json.dumps(manifest))
        (tmp_path / "snap" / "objects.pkl").unlink()  # never reached
        with pytest.raises(InvalidParameterError, match=r"format \d \(sharded\)"):
            load_engine(tmp_path / "snap")


class TestInRamSetRestore:
    """A v5 set snapshot loaded in RAM: one point list per owner, exact rows."""

    def test_inserts_after_load_append_once(self, tmp_path):
        """The tables and the set store each extend their own point list on
        insert; sharing one list appended every inserted point twice."""
        dataset = _dataset(n=200)
        engine = _build(dataset, sampler_cls=IndependentFairSampler)
        save_engine(engine, tmp_path / "snap")
        clone = load_engine(tmp_path / "snap")
        joining = _dataset(seed=5, n=2)
        for side in (engine, clone):
            assert side.insert_many(joining) == [200, 201]
            side.delete(3)
        tables = clone.tables
        assert len(tables.dataset) == tables.num_points == 202
        assert len(tables.point_store) == 202
        for slot, point in zip((200, 201), joining):
            assert tables.dataset[slot] == point
            assert tables.point_store.get_point(slot) == point
        queries = dataset[:8] + joining
        _assert_identical_runs(engine, clone, queries)

        save_engine(clone, tmp_path / "again")
        manifest = json.loads((tmp_path / "again" / "manifest.json").read_text())
        assert manifest["dataset_layout"] == "sets"
        again = load_engine(tmp_path / "again")
        assert list(again.tables.dataset) == list(engine.tables.dataset)
        _assert_identical_runs(engine, again, queries)

    def test_restored_points_equal_the_saved_ones(self, tmp_path):
        """Rows come back as the frozensets saved, released slots as None,
        equal to the per-item rebuild the slice rebuild replaced."""
        engine = _build(_dataset(n=60))
        for index in range(0, 30, 2):
            engine.delete(index)
        engine.tables.compact()
        saved = list(engine.tables.dataset)
        assert saved.count(None) == 15
        save_engine(engine, tmp_path / "snap")
        restored = list(load_engine(tmp_path / "snap").tables.dataset)
        assert restored == saved
        assert all(point is None or type(point) is frozenset for point in restored)

        arrays = tmp_path / "snap" / "arrays"
        indptr = np.load(arrays / "dataset__indptr.npy")
        items = np.load(arrays / "dataset__items.npy")
        released = np.load(arrays / "dataset__released.npy")
        oracle = [
            None
            if released[index]
            else frozenset(int(item) for item in items[indptr[index] : indptr[index + 1]])
            for index in range(indptr.shape[0] - 1)
        ]
        assert restored == oracle
