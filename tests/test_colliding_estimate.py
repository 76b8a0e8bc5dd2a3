"""Section 4's colliding-count estimate, and when its sketcher is redrawn.

``IndependentFairSampler.estimate_colliding_count`` estimates ``s_q``, the
number of distinct live points colliding with a query.  The reference here
is the paper's construction built from scratch: one bottom-t sketch of the
live members of each non-empty colliding bucket, merged with
``BottomTSketch.merge_all``.  Bottom-t sketches merge exactly, so the
sampler must return that reference value *exactly*, on static and dynamic
tables, under any insert/delete/compaction schedule (the schedules, and the
mutation record that drives each sync, are in ``test_incremental_sketches.py``).

The sketch hash functions come from ``_perm_rng``, the stream that also
draws the permutation, so *when* the sketcher is redrawn is part of every
later answer.  ``TestRedrawTriggers`` pins each moment: whether the sync
replaces the sketcher, and the ``_perm_rng`` state it leaves behind.
"""

from __future__ import annotations

import copy
import json
import pathlib
import pickle
import shutil

import numpy as np
import pytest

from repro import FairNN
from repro.core import IndependentFairSampler
from repro.engine import BatchQueryEngine, DynamicLSHTables, load_engine, save_engine
from repro.lsh import MinHashFamily
from repro.sketches import BottomTSketch, DistinctCountSketcher


def make_sampler(seed, num_tables=8):
    return IndependentFairSampler(
        MinHashFamily(), radius=0.5, far_radius=0.05, num_hashes=1, num_tables=num_tables, seed=seed
    )


def build_engine(dataset, seed=0, num_tables=8):
    return BatchQueryEngine.build(make_sampler(seed, num_tables), dataset, seed=seed)


def random_sets(rng, count, universe=60, low=3, high=10):
    return [
        frozenset(int(x) for x in rng.integers(0, universe, size=rng.integers(low, high)))
        for _ in range(count)
    ]


MARKER = frozenset(range(9001, 9009))  # far from the random universe


def reference_estimate(sampler, query) -> float:
    """Merge of from-scratch sketches of the live members of each colliding bucket."""
    tables = sampler.tables
    alive = getattr(tables, "alive", None)
    sketches = []
    for table, key in zip(tables._tables, tables.query_keys(query)):
        bucket = table.get(key)
        if bucket is None:
            continue
        members = bucket.indices if alive is None else bucket.indices[alive[bucket.indices]]
        if members.size:
            sketches.append(sampler._sketcher.sketch_keys(members))
    return BottomTSketch.merge_all(sketches).estimate() if sketches else 0.0


def assert_exact(sampler, queries):
    for query in queries:
        assert sampler.estimate_colliding_count(query) == reference_estimate(sampler, query)


# ----------------------------------------------------------------------
# Exactness
# ----------------------------------------------------------------------
class TestExactness:
    def test_static_tables_match_a_from_scratch_sketch(self):
        rng = np.random.default_rng(5)
        dataset = random_sets(rng, 60) + [MARKER] * 5
        sampler = make_sampler(seed=6, num_tables=12).fit(dataset)
        assert_exact(sampler, dataset[:20] + random_sets(rng, 5) + [MARKER])
        assert sampler.estimate_colliding_count(MARKER) == 5.0

    def test_attach_with_pending_tombstones_excludes_dead_members(self):
        rng = np.random.default_rng(31)
        dataset = random_sets(rng, 30) + [MARKER] * 6
        tables = DynamicLSHTables(
            MinHashFamily(), l=8, seed=33, max_tombstone_fraction=0.9
        ).fit(dataset)
        for index in [30, 31, 32, 33]:
            tables.delete(index)
        tables.drain_delta()  # a previous consumer already took the record
        sampler = make_sampler(seed=33).attach(tables, tables.dataset)
        assert tables.pending_tombstones == 4
        assert sampler.estimate_colliding_count(MARKER) == 2.0
        assert_exact(sampler, dataset[:10] + [MARKER])


# ----------------------------------------------------------------------
# Redraw triggers
# ----------------------------------------------------------------------
def perm_state(sampler):
    return copy.deepcopy(sampler._perm_rng.bit_generator.state)


def assert_redrawn(sampler, old_sketcher, rng_before, universe):
    """The sync drew exactly one fresh sketcher for *universe* from ``_perm_rng``."""
    expected = DistinctCountSketcher(
        universe_size=universe,
        epsilon=sampler.sketch_epsilon,
        delta=sampler.sketch_delta,
        seed=rng_before,
    )
    assert sampler._sketcher is not old_sketcher
    assert sampler._sketcher.universe_size == universe
    assert [(h.a, h.b, h.output_range) for h in sampler._sketcher._hashes] == [
        (h.a, h.b, h.output_range) for h in expected._hashes
    ]
    assert perm_state(sampler) == rng_before.bit_generator.state


def assert_kept(sampler, old_sketcher, state_before):
    assert sampler._sketcher is old_sketcher
    assert perm_state(sampler) == state_before


class TestRedrawTriggers:
    def test_second_attached_sampler_redraws_after_missed_delta(self):
        rng = np.random.default_rng(47)
        dataset = random_sets(rng, 40)
        tables = DynamicLSHTables(MinHashFamily(), l=8, seed=49).fit(dataset)
        first = make_sampler(seed=1).attach(tables, tables.dataset)
        second = make_sampler(seed=2).attach(tables, tables.dataset)

        tables.insert_many(random_sets(rng, 6))
        tables.delete(3)
        sketcher, state = first._sketcher, perm_state(first)
        first.notify_update()  # takes the batch-1 record: no gap
        assert_kept(first, sketcher, state)

        tables.insert_many(random_sets(rng, 5))
        tables.delete(7)
        # The drained record covers batch 2 only: the start-epoch gap forces
        # a redraw.  The redraw sweeps the pending tombstones first.
        for sampler in (second, first):  # first's record went to second
            sketcher, rng_before = sampler._sketcher, copy.deepcopy(sampler._perm_rng)
            sampler.notify_update()
            assert_redrawn(sampler, sketcher, rng_before, tables.num_points)
            assert tables.pending_tombstones == 0
            assert_exact(sampler, dataset[:10])

    def test_drainless_churn_overflows_delta_and_redraws(self):
        rng = np.random.default_rng(53)
        tables = DynamicLSHTables(MinHashFamily(), l=4, seed=51).fit(random_sets(rng, 40))
        sampler = make_sampler(seed=55, num_tables=4).attach(tables, tables.dataset)
        for _ in range(60):
            new = tables.insert_many(random_sets(rng, 12))
            for index in new[:11]:
                tables.delete(index)
        delta = tables.peek_delta()
        assert delta.overflowed
        assert len(delta.inserted) + len(delta.deleted) <= 2 * tables.num_live + 1024

        sketcher, rng_before = sampler._sketcher, copy.deepcopy(sampler._perm_rng)
        sampler.notify_update()
        assert_redrawn(sampler, sketcher, rng_before, tables.num_points)
        # The redraw re-anchored the sampler: the next small batch keeps it.
        tables.insert(frozenset({4, 5, 6}))
        sketcher, state = sampler._sketcher, perm_state(sampler)
        sampler.notify_update()
        assert_kept(sampler, sketcher, state)

    def test_sketcher_redrawn_when_slots_outgrow_universe(self):
        rng = np.random.default_rng(19)
        engine = build_engine(random_sets(rng, 20), seed=16)
        sampler = engine.sampler
        sketcher, state = sampler._sketcher, perm_state(sampler)
        assert sketcher.universe_size == 20

        engine.insert_many(random_sets(rng, 60))  # 80 slots: exactly 4x, kept
        engine._sync()
        assert_kept(sampler, sketcher, state)

        rng_before = copy.deepcopy(sampler._perm_rng)
        engine.insert_many(random_sets(rng, 1))  # 81 slots: past 4x
        engine._sync()
        assert_redrawn(sampler, sketcher, rng_before, 81)
        assert_exact(sampler, random_sets(rng, 10))

    def test_legacy_sketcher_without_universe_size_redraws(self):
        """Sketchers unpickled from pre-v2 snapshots lack ``universe_size``."""
        rng = np.random.default_rng(43)
        engine = build_engine(random_sets(rng, 30), seed=45)
        sampler = engine.sampler
        legacy = sampler._sketcher
        del legacy.universe_size
        rng_before = copy.deepcopy(sampler._perm_rng)
        engine.insert_many(random_sets(rng, 2))
        engine._sync()
        assert_redrawn(sampler, legacy, rng_before, engine.tables.num_points)

    def test_empty_sync_keeps_the_sketcher(self):
        rng = np.random.default_rng(12)
        engine = build_engine(random_sets(rng, 40), seed=14)
        sampler = engine.sampler
        sketcher, state = sampler._sketcher, perm_state(sampler)
        engine._tables_dirty = True
        engine._sync()
        assert_kept(sampler, sketcher, state)
        sampler.notify_update()
        assert_kept(sampler, sketcher, state)

    def test_small_batches_keep_the_sketcher(self):
        rng = np.random.default_rng(11)
        dataset = random_sets(rng, 60)
        engine = build_engine(dataset, seed=13)
        sampler = engine.sampler
        sketcher, state = sampler._sketcher, perm_state(sampler)
        engine.insert_many(random_sets(rng, 5))
        engine._sync()
        engine.delete(4)
        engine.delete(9)
        engine._sync()
        engine.delete(12)
        engine.tables.compact()
        engine._sync()
        assert_kept(sampler, sketcher, state)
        assert_exact(sampler, dataset[:20])

    def test_attach_discards_stale_record_and_redraws_once(self):
        """attach() draws from the live tables, so a pending record must not
        trigger a second draw at the first sync."""
        rng = np.random.default_rng(59)
        tables = DynamicLSHTables(
            MinHashFamily(), l=6, seed=57, max_tombstone_fraction=0.9
        ).fit(random_sets(rng, 40))
        tables.insert_many(random_sets(rng, 5))
        tables.delete(2)
        assert not tables.peek_delta().is_empty
        sampler = make_sampler(seed=61, num_tables=6)
        rng_before = copy.deepcopy(sampler._perm_rng)
        sampler.attach(tables, tables.dataset)
        assert_redrawn(sampler, None, rng_before, tables.num_points)
        assert tables.peek_delta().is_empty
        assert tables.pending_tombstones == 1

        tables.insert_many(random_sets(rng, 3))
        sketcher, state = sampler._sketcher, perm_state(sampler)
        sampler.notify_update()
        assert_kept(sampler, sketcher, state)

    def test_static_tables_redraw_on_every_update(self):
        """Static tables report no delta, so every sync redraws."""
        rng = np.random.default_rng(3)
        sampler = make_sampler(seed=4).fit(random_sets(rng, 30))
        for _ in range(2):
            sketcher, rng_before = sampler._sketcher, copy.deepcopy(sampler._perm_rng)
            sampler.notify_update()
            assert_redrawn(sampler, sketcher, rng_before, 30)


# ----------------------------------------------------------------------
# Snapshots
# ----------------------------------------------------------------------
class TestSnapshots:
    def test_unconsumed_delta_survives_snapshot(self, tmp_path):
        """Mutating the tables directly leaves an unconsumed delta; the
        restored sampler's first sync still sees it and answers alike."""
        rng = np.random.default_rng(23)
        dataset = random_sets(rng, 40)
        engine = build_engine(dataset, seed=25)
        tables = engine.tables
        tables.insert_many(random_sets(rng, 4))
        tables.delete(2)
        assert not tables.peek_delta().is_empty

        save_engine(engine, tmp_path / "snap")
        loaded = load_engine(tmp_path / "snap")
        loaded_delta = loaded.tables.peek_delta()
        assert loaded_delta.inserted == tables.peek_delta().inserted
        assert loaded_delta.deleted == tables.peek_delta().deleted

        for side in (engine, loaded):
            side._tables_dirty = True
        queries = dataset[3:13]
        assert loaded.sample_batch(queries) == engine.sample_batch(queries)
        assert loaded.tables.peek_delta().is_empty
        assert_exact(loaded.sampler, queries)

    def test_restored_engine_keeps_its_sketcher(self, tmp_path):
        rng = np.random.default_rng(29)
        engine = build_engine(random_sets(rng, 40), seed=27)
        engine.insert_many(random_sets(rng, 3))
        engine._sync()
        save_engine(engine, tmp_path / "snap")
        loaded = load_engine(tmp_path / "snap")

        sketcher, state = loaded.sampler._sketcher, perm_state(loaded.sampler)
        loaded.insert_many(random_sets(rng, 4))
        loaded.delete(0)
        loaded._sync()
        assert_kept(loaded.sampler, sketcher, state)
        assert_exact(loaded.sampler, random_sets(rng, 10))

    def test_version_1_snapshots_without_delta_still_load(self, legacy_snapshot):
        """Format v2 only added the pending delta; v1 artifacts (no
        ``pending_delta`` key) must keep loading, with an empty delta.  The
        artifact is a copy of a checked-in v3 snapshot of a Section 4
        engine, edited back to v1."""
        import json
        import pickle

        path = legacy_snapshot("minhash-k2-v3")
        reference = load_engine(path)
        assert reference.tables.peek_delta().is_empty

        manifest = json.loads((path / "manifest.json").read_text())
        manifest["format_version"] = 1
        (path / "manifest.json").write_text(json.dumps(manifest))
        with open(path / "objects.pkl", "rb") as handle:
            objects = pickle.load(handle)
        del objects["pending_delta"]
        with open(path / "objects.pkl", "wb") as handle:
            pickle.dump(objects, handle)

        loaded = load_engine(path)
        assert loaded.tables.peek_delta().is_empty
        q = loaded.sampler.dataset[0]
        assert loaded.sample_batch([q] * 3) == reference.sample_batch([q] * 3)


# ----------------------------------------------------------------------
# Snapshots written while per-bucket sketches were stored
# ----------------------------------------------------------------------
STORED_SKETCHES = pathlib.Path(__file__).parent / "data" / "stored_sketch_snapshots"


class TestStoredSketchSnapshots:
    """Format-v3 snapshots written by the release that kept one sketch per
    bucket, with the answers that release gave after loading them.

    ``synced`` was saved right after a served batch.  ``pending`` was saved
    after mutating the tables directly: its delta still holds the per-bucket
    member maps, two tombstones await a sweep, and its sketch rows were
    rewritten as plain lists.  Both pickle ``_bucket_sketches`` and
    ``sketch_min_bucket``, and their manifest spec names ``sketch_min_bucket``.
    Each is loaded, queried, mutated through the engine and queried again.
    """

    @pytest.fixture(scope="class")
    def expected(self):
        return json.loads((STORED_SKETCHES / "expected.json").read_text())

    @staticmethod
    def play(engine, expected):
        queries = [frozenset(q) for q in expected["queries"]]
        record = {"loaded": engine.sample_batch(queries)}
        engine.insert_many([frozenset(q) for q in expected["joining"]])
        engine.delete(20)
        record["after_sync"] = engine.sample_batch(queries)
        record["sketcher"] = [
            [h.a, h.b, h.output_range] for h in engine.sampler._sketcher._hashes
        ]
        record["estimates"] = [engine.sampler.estimate_colliding_count(q) for q in queries]
        return record

    def test_synced_snapshot_answers_identically(self, expected):
        engine = load_engine(STORED_SKETCHES / "synced")
        assert "sketch_min_bucket" not in engine.spec.samplers["default"].params
        for dead in ("_bucket_sketches", "sketch_min_bucket"):
            assert not hasattr(engine.sampler, dead)
        assert self.play(engine, expected) == expected["synced"]

    def test_pending_delta_snapshot_answers_identically_after_its_sync(self, expected):
        engine = load_engine(STORED_SKETCHES / "pending")
        delta = engine.tables.peek_delta()
        assert (len(delta.inserted), delta.deleted, delta.overflowed) == (5, [11, 13], False)
        assert set(vars(delta)) == {"inserted", "deleted", "overflowed", "start_epoch"}
        assert engine.tables.pending_tombstones == 2
        record = self.play(engine, expected)
        # Before its first sync that release estimated from the sketches of
        # the last sync; the first served batch here already counts live
        # members only, so only answers after the sync are compared.
        del record["loaded"]
        assert record == expected["pending"]

    def test_overflowed_delta_in_a_snapshot_still_forces_a_redraw(self, expected, tmp_path):
        path = tmp_path / "overflowed"
        shutil.copytree(STORED_SKETCHES / "pending", path)
        with open(path / "objects.pkl", "rb") as handle:
            objects = pickle.load(handle)
        objects["pending_delta"].overflowed = True
        with open(path / "objects.pkl", "wb") as handle:
            pickle.dump(objects, handle)
        engine = load_engine(path)
        assert engine.tables.peek_delta().overflowed
        record = self.play(engine, expected)
        del record["loaded"]
        assert record == expected["overflowed"]
        assert record["sketcher"] != expected["pending"]["sketcher"]

    def test_facade_loads_a_spec_naming_sketch_min_bucket(self, expected):
        nn = FairNN.load(STORED_SKETCHES / "synced")
        queries = [frozenset(q) for q in expected["queries"]]
        assert [r.index for r in nn.run(queries)] == expected["synced"]["loaded"]
