"""Incremental sketch maintenance over dynamic tables (the PR-2 tentpole).

The Section 4 sampler's per-bucket count-distinct sketches used to be rebuilt
from scratch on every mutation batch.  They are now maintained from the
:class:`~repro.engine.dynamic.MutationDelta` the dynamic table layer records:
inserts merge into the affected sketches, deletions trigger targeted
per-bucket rebuilds.  The load-bearing test here is the equivalence property:
across randomized insert/delete/compaction schedules, the incrementally
maintained sketches must be *exactly* the sketches a full rebuild over the
live bucket members would produce (same hash functions, so same bottom-t
rows — not merely close estimates).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import IndependentFairSampler
from repro.engine import BatchQueryEngine, DynamicLSHTables, MutationDelta, load_engine, save_engine
from repro.lsh import MinHashFamily


def build_engine(dataset, seed=0, num_tables=8, sketch_min_bucket=4):
    sampler = IndependentFairSampler(
        MinHashFamily(),
        radius=0.5,
        far_radius=0.05,
        num_hashes=1,
        num_tables=num_tables,
        sketch_min_bucket=sketch_min_bucket,
        seed=seed,
    )
    return BatchQueryEngine.build(sampler, dataset, seed=seed)


def random_sets(rng, count, universe=60, low=3, high=10):
    return [
        frozenset(int(x) for x in rng.integers(0, universe, size=rng.integers(low, high)))
        for _ in range(count)
    ]


def row_lists(sketch):
    """A sketch's bottom-t rows as plain lists, for exact comparison."""
    return [row.tolist() for row in sketch._rows]


def assert_sketches_match_full_rebuild(engine):
    """The exact-equivalence invariant.

    For every table and bucket key: a sketch is stored iff the bucket's
    *live* membership reaches ``sketch_min_bucket``, and the stored bottom-t
    rows equal those of a fresh sketch over the live members built with the
    sampler's own (shared) hash functions.
    """
    sampler = engine.sampler
    tables = sampler.tables
    alive = tables.alive
    for table_index, table in enumerate(tables._tables):
        sketches = sampler._bucket_sketches[table_index]
        expected_keys = set()
        for key, bucket in table.items():
            live = bucket.indices[alive[bucket.indices]]
            if live.size >= sampler.sketch_min_bucket:
                expected_keys.add(key)
                fresh = sampler._sketcher.sketch_keys(int(i) for i in live)
                assert row_lists(sketches[key]) == row_lists(fresh), (table_index, key)
        assert set(sketches) == expected_keys, table_index


class TestEquivalenceProperty:
    @pytest.mark.parametrize("schedule_seed", [0, 1, 2, 3])
    def test_random_schedules_match_full_rebuild_exactly(self, schedule_seed):
        """Property test: across randomized insert/delete/compaction
        schedules, incremental maintenance and a from-scratch rebuild over
        the live members agree sketch-row for sketch-row."""
        rng = np.random.default_rng(100 + schedule_seed)
        engine = build_engine(random_sets(rng, 40), seed=schedule_seed)
        tables = engine.tables
        assert_sketches_match_full_rebuild(engine)

        for _ in range(12):
            operation = rng.integers(0, 4)
            if operation == 0:
                engine.insert_many(random_sets(rng, int(rng.integers(1, 6))))
            elif operation == 1:
                live = np.flatnonzero(tables.alive)
                doomed = rng.choice(live, size=min(3, live.size - 5), replace=False)
                for index in doomed:
                    engine.delete(int(index))
            elif operation == 2:
                # Mixed batch: deletes and inserts coalesced into one sync.
                live = np.flatnonzero(tables.alive)
                engine.delete(int(rng.choice(live)))
                engine.insert_many(random_sets(rng, 2))
            else:
                # Direct compaction between syncs; the swept keys ride the
                # delta as compaction events.
                tables.compact()
                engine._tables_dirty = True
            engine._sync()
            assert_sketches_match_full_rebuild(engine)

    def test_estimates_match_freshly_rebuilt_sampler(self):
        """End to end: after churn, the served colliding-count estimates
        equal those of sketches rebuilt from scratch over the live members."""
        rng = np.random.default_rng(7)
        dataset = random_sets(rng, 50)
        engine = build_engine(dataset, seed=9)
        engine.insert_many(random_sets(rng, 10))
        for index in [1, 4, 8, 15, 23]:
            engine.delete(index)
        engine._sync()
        queries = dataset[:10] + random_sets(rng, 3)
        maintained = [engine.sampler.estimate_colliding_count(q) for q in queries]
        # Force the full-rebuild path over the same sketcher state: refresh
        # every bucket's sketch from its live members.
        sampler = engine.sampler
        sampler._refresh_bucket_sketches(
            [
                (table, sampler._bucket_sketches[table_index], key)
                for table_index, table in enumerate(sampler.tables._tables)
                for key in list(table)
            ]
        )
        sampler._estimate_cache.clear()
        rebuilt = [sampler.estimate_colliding_count(q) for q in queries]
        assert maintained == rebuilt


class TestIncrementalBehaviour:
    def test_insert_only_batch_merges_instead_of_rebuilding(self):
        """Insert-only churn must leave untouched buckets' sketches alone
        (same objects — no full rebuild) and keep the sketcher (and so the
        hash functions) stable."""
        rng = np.random.default_rng(11)
        engine = build_engine(random_sets(rng, 60), seed=13)
        sampler = engine.sampler
        sketcher_before = sampler._sketcher
        before = [dict(table_sketches) for table_sketches in sampler._bucket_sketches]

        inserted = engine.insert_many(random_sets(rng, 5))
        engine._sync()

        assert sampler._sketcher is sketcher_before
        touched = untouched = 0
        for table_index, table in enumerate(sampler.tables._tables):
            for key, sketch in sampler._bucket_sketches[table_index].items():
                old = before[table_index].get(key)
                if old is None:
                    continue
                members = set(table[key].indices.tolist())
                if members & set(inserted):
                    touched += 1
                else:
                    untouched += 1
                    assert sketch is old  # untouched bucket: sketch not rebuilt
        assert untouched > 0
        assert_sketches_match_full_rebuild(engine)

    def test_sketcher_resized_when_index_outgrows_universe(self):
        """Regression: unbounded insert-only growth must eventually re-draw
        the sketcher — hashing ever-larger slot indices into the fit-time
        range would make the sketches under-count via hash collisions."""
        rng = np.random.default_rng(19)
        engine = build_engine(random_sets(rng, 20), seed=16)
        sampler = engine.sampler
        small_sketcher = sampler._sketcher
        assert small_sketcher.universe_size == 20

        engine.insert_many(random_sets(rng, 30))  # 50 slots: within headroom
        engine._sync()
        assert sampler._sketcher is small_sketcher

        engine.insert_many(random_sets(rng, 61))  # 111 slots: > 4 * 20
        engine._sync()
        assert sampler._sketcher is not small_sketcher
        assert sampler._sketcher.universe_size == 111
        assert_sketches_match_full_rebuild(engine)

    def test_legacy_sketcher_without_universe_size_triggers_rebuild(self):
        """Regression: sketchers unpickled from pre-v2 snapshots lack the
        ``universe_size`` attribute; the incremental path must route them
        into a full rebuild instead of raising AttributeError."""
        rng = np.random.default_rng(43)
        engine = build_engine(random_sets(rng, 30), seed=45)
        sampler = engine.sampler
        legacy = sampler._sketcher
        del legacy.universe_size
        engine.insert_many(random_sets(rng, 2))
        engine._sync()  # must not raise
        assert sampler._sketcher is not legacy
        assert sampler._sketcher.universe_size == engine.tables.num_points
        assert_sketches_match_full_rebuild(engine)

    def test_second_attached_sampler_rebuilds_after_missed_delta(self):
        """Regression: with two samplers on one table set, the consumer that
        misses the (single-drain) delta must detect the epoch mismatch and
        rebuild rather than silently keep pre-mutation sketches."""
        rng = np.random.default_rng(47)
        dataset = random_sets(rng, 40)
        tables = DynamicLSHTables(MinHashFamily(), l=8, seed=49).fit(dataset)

        def attach_fresh(seed):
            sampler = IndependentFairSampler(
                MinHashFamily(),
                radius=0.5,
                far_radius=0.05,
                num_hashes=1,
                num_tables=8,
                sketch_min_bucket=4,
                seed=seed,
            )
            return sampler.attach(tables, tables.dataset)

        first, second = attach_fresh(1), attach_fresh(2)
        tables.insert_many(random_sets(rng, 6))
        tables.delete(3)
        first.notify_update()   # takes the batch-1 record
        tables.insert_many(random_sets(rng, 5))
        tables.delete(7)
        # B drains a NON-empty delta, but it only covers batch 2 — the
        # start-epoch gap must force a full rebuild, not a partial merge.
        second.notify_update()
        # A's record, in turn, went to B; A must detect its own gap too.
        first.notify_update()
        for sampler in (first, second):
            for table_index, table in enumerate(tables._tables):
                sketches = sampler._bucket_sketches[table_index]
                for key, bucket in table.items():
                    live = bucket.indices[tables.alive[bucket.indices]]
                    if live.size >= sampler.sketch_min_bucket:
                        fresh = sampler._sketcher.sketch_keys(int(i) for i in live)
                        assert row_lists(sketches[key]) == row_lists(fresh)

    def test_drainless_churn_overflows_delta_and_bounds_memory(self):
        """Regression: standalone tables (no consumer ever draining) must not
        accumulate an unbounded mutation record or pin deleted points."""
        rng = np.random.default_rng(53)
        tables = DynamicLSHTables(MinHashFamily(), l=4, seed=51).fit(random_sets(rng, 40))
        sampler = IndependentFairSampler(
            MinHashFamily(), radius=0.5, far_radius=0.05, num_hashes=1,
            num_tables=4, sketch_min_bucket=4, seed=55,
        ).attach(tables, tables.dataset)
        for round_index in range(60):
            new = tables.insert_many(random_sets(rng, 12))
            for index in new[:11]:
                tables.delete(index)
        delta = tables.peek_delta()
        assert delta.overflowed
        assert len(delta.inserted) + len(delta.deleted) <= 2 * tables.num_live + 1024
        assert len(tables._unresolved_deletes) <= 2 * tables.num_live + 1024
        # The attached sampler consuming the overflowed record must rebuild.
        sketcher = sampler._sketcher
        sampler.notify_update()
        assert sampler._sketcher is not sketcher  # overflow forced a rebuild
        # The rebuild re-anchored the sampler (discarding the compaction
        # residue it caused): the next small batch is incremental again.
        tables.insert(frozenset({4, 5, 6}))
        sketcher = sampler._sketcher
        sampler.notify_update()
        assert sampler._sketcher is sketcher

    def test_attach_discards_stale_record_and_stays_incremental(self):
        """attach() rebuilds from the live tables, so a pre-existing
        undrained record is redundant: it must be discarded (not trigger a
        second full rebuild on the first sync)."""
        rng = np.random.default_rng(59)
        tables = DynamicLSHTables(MinHashFamily(), l=6, seed=57).fit(random_sets(rng, 40))
        tables.insert_many(random_sets(rng, 5))
        tables.delete(2)
        assert not tables.peek_delta().is_empty
        sampler = IndependentFairSampler(
            MinHashFamily(), radius=0.5, far_radius=0.05, num_hashes=1,
            num_tables=6, sketch_min_bucket=4, seed=61,
        ).attach(tables, tables.dataset)
        assert tables.peek_delta().is_empty
        tables.insert_many(random_sets(rng, 3))
        sketcher = sampler._sketcher
        sampler.notify_update()
        assert sampler._sketcher is sketcher  # first sync stayed incremental

    def test_empty_delta_sync_is_a_no_op(self):
        rng = np.random.default_rng(12)
        engine = build_engine(random_sets(rng, 40), seed=14)
        sampler = engine.sampler
        before = [dict(s) for s in sampler._bucket_sketches]
        engine._tables_dirty = True
        engine._sync()
        for table_index, table_sketches in enumerate(sampler._bucket_sketches):
            assert table_sketches == before[table_index]

    def test_delta_is_drained_once(self):
        rng = np.random.default_rng(13)
        engine = build_engine(random_sets(rng, 30), seed=15)
        tables = engine.tables
        tables.insert(frozenset({1, 2, 3}))
        delta = tables.drain_delta()
        assert not delta.is_empty
        assert tables.drain_delta().is_empty

    def test_stale_sketch_dropped_when_bucket_shrinks_below_cutoff(self):
        """Regression: a bucket that shrinks below ``sketch_min_bucket``
        after deletions must lose its stored sketch — keeping it would
        over-count the emptied bucket forever."""
        rng = np.random.default_rng(17)
        marker = frozenset(range(9001, 9009))  # far from the random universe
        dataset = random_sets(rng, 30) + [marker] * 6
        engine = build_engine(dataset, seed=19, sketch_min_bucket=4)
        sampler = engine.sampler
        keys = sampler.tables.query_keys(marker)
        sketched_tables = [
            t for t, key in enumerate(keys) if key in sampler._bucket_sketches[t]
        ]
        assert sketched_tables  # the 6-copy bucket is sketched somewhere

        for index in [30, 31, 32, 33]:  # shrink the marker bucket to 2 live
            engine.delete(index)
        engine._sync()

        for t, key in enumerate(keys):
            assert key not in sampler._bucket_sketches[t]
        # The exact small-bucket path now answers: two live colliding copies.
        assert sampler.estimate_colliding_count(marker) == 2.0
        assert_sketches_match_full_rebuild(engine)

    def test_attach_with_pending_tombstones_excludes_dead_members(self):
        """Regression: attaching a fresh sampler to churned tables whose
        delta was already drained (so no future batch will name the dead
        buckets) must not bake tombstoned members into the initial
        sketches."""
        rng = np.random.default_rng(31)
        marker = frozenset(range(9001, 9009))
        dataset = random_sets(rng, 30) + [marker] * 6
        tables = DynamicLSHTables(
            MinHashFamily(), l=8, seed=33, max_tombstone_fraction=0.9
        ).fit(dataset)
        for index in [30, 31, 32, 33]:
            tables.delete(index)
        tables.drain_delta()  # a previous consumer already took the record

        sampler = IndependentFairSampler(
            MinHashFamily(),
            radius=0.5,
            far_radius=0.05,
            num_hashes=1,
            num_tables=8,
            sketch_min_bucket=4,
            seed=33,
        )
        sampler.attach(tables, tables.dataset)
        assert sampler.estimate_colliding_count(marker) == 2.0
        for table_index, sketches in enumerate(sampler._bucket_sketches):
            for key, sketch in sketches.items():
                live = tables._tables[table_index][key].indices
                live = live[tables.alive[live]]
                fresh = sampler._sketcher.sketch_keys(int(i) for i in live)
                assert row_lists(sketch) == row_lists(fresh)

    def test_bucket_promoted_when_inserts_cross_cutoff(self):
        rng = np.random.default_rng(18)
        marker = frozenset(range(9001, 9009))
        dataset = random_sets(rng, 30) + [marker] * 2
        engine = build_engine(dataset, seed=21, sketch_min_bucket=4)
        sampler = engine.sampler
        keys = sampler.tables.query_keys(marker)
        assert all(key not in sampler._bucket_sketches[t] for t, key in enumerate(keys))

        engine.insert_many([marker] * 3)
        engine._sync()

        assert any(key in sampler._bucket_sketches[t] for t, key in enumerate(keys))
        assert sampler.estimate_colliding_count(marker) == 5.0
        assert_sketches_match_full_rebuild(engine)


class TestDeltaRoundTrip:
    def test_unconsumed_delta_survives_snapshot(self, tmp_path):
        """Mutating the tables *directly* (bypassing the engine) leaves an
        unconsumed delta; a snapshot must carry it so the restored sampler's
        first sync still sees exactly what changed."""
        rng = np.random.default_rng(23)
        engine = build_engine(random_sets(rng, 40), seed=25)
        tables = engine.tables
        tables.insert_many(random_sets(rng, 4))
        tables.delete(2)
        assert not tables.peek_delta().is_empty

        save_engine(engine, tmp_path / "snap")
        loaded = load_engine(tmp_path / "snap")
        loaded_delta = loaded.tables.peek_delta()
        assert loaded_delta.inserted == tables.peek_delta().inserted
        assert loaded_delta.deleted == tables.peek_delta().deleted

        loaded._tables_dirty = True
        loaded._sync()
        assert loaded.tables.peek_delta().is_empty
        assert_sketches_match_full_rebuild(loaded)

    def test_version_1_snapshots_without_delta_still_load(self, tmp_path):
        """Format v2 only added the pending delta; v1 artifacts (no
        ``pending_delta`` key) must keep loading, with an empty delta."""
        import json
        import pickle

        rng = np.random.default_rng(41)
        engine = build_engine(random_sets(rng, 30), seed=43)
        path = save_engine(engine, tmp_path / "snap")

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
        assert loaded.sample_batch([q] * 3) == engine.sample_batch([q] * 3)

    def test_list_backed_sketch_rows_load_and_answer_identically(self, tmp_path):
        """Snapshots may hold sketch rows as sorted lists of ints rather
        than int64 arrays.  Such a sampler must load as is — never
        re-sketched, which would redraw hashes — and answer
        byte-identically, before and after further churn."""
        import pickle

        rng = np.random.default_rng(51)
        engine = build_engine(random_sets(rng, 60), seed=53)
        engine.insert_many(random_sets(rng, 5))
        # Captured before the delete: the sync sweep releases slot 3.
        queries = list(engine.sampler.dataset[:12])
        engine.delete(3)
        engine._sync()
        path = save_engine(engine, tmp_path / "snap")
        reference = load_engine(path)

        with open(path / "objects.pkl", "rb") as handle:
            objects = pickle.load(handle)
        converted = 0
        for sketches in objects["sampler"]._bucket_sketches:
            for sketch in sketches.values():
                sketch._rows = [row.tolist() for row in sketch._rows]
                converted += 1
        assert converted
        with open(path / "objects.pkl", "wb") as handle:
            pickle.dump(objects, handle)
        loaded = load_engine(path)

        for mine, theirs in zip(
            loaded.sampler._bucket_sketches, reference.sampler._bucket_sketches
        ):
            assert mine.keys() == theirs.keys()
            for key, sketch in mine.items():
                assert all(isinstance(row, np.ndarray) for row in sketch._rows)
                assert row_lists(sketch) == row_lists(theirs[key])
        assert loaded.sample_batch(queries) == reference.sample_batch(queries)
        joining = random_sets(rng, 4)
        for restored in (loaded, reference):
            restored.insert_many(joining)
            restored.delete(5)
        assert loaded.sample_batch(queries) == reference.sample_batch(queries)
        assert_sketches_match_full_rebuild(loaded)

    def test_restored_engine_keeps_incremental_maintenance(self, tmp_path):
        rng = np.random.default_rng(29)
        engine = build_engine(random_sets(rng, 40), seed=27)
        engine.insert_many(random_sets(rng, 3))
        engine._sync()
        save_engine(engine, tmp_path / "snap")
        loaded = load_engine(tmp_path / "snap")

        sketcher = loaded.sampler._sketcher
        loaded.insert_many(random_sets(rng, 4))
        loaded.delete(0)
        loaded._sync()
        assert loaded.sampler._sketcher is sketcher  # no full rebuild happened
        assert_sketches_match_full_rebuild(loaded)


class TestMutationDelta:
    def test_empty_shape_and_flags(self):
        delta = MutationDelta.empty(3)
        assert delta.num_tables == 3
        assert delta.is_empty
        assert delta.rebuild_keys(0) == set()

    def test_records_inserts_deletes_and_compaction(self):
        tables = DynamicLSHTables(MinHashFamily(), l=4, seed=3).fit(
            [frozenset({1, 2, 3}), frozenset({1, 2, 4}), frozenset({8, 9})]
        )
        new = tables.insert(frozenset({1, 2, 5}))
        tables.delete(new)
        delta = tables.peek_delta()
        assert delta.inserted == [new]
        assert delta.deleted == [new]
        for table_index in range(4):
            inserted_keys = {
                key
                for key, members in delta.inserted_members[table_index].items()
                if new in members
            }
            assert inserted_keys  # the insert names its bucket in every table
            assert inserted_keys <= delta.rebuild_keys(table_index)
        tables.compact()
        assert any(delta.compacted_keys)
        drained = tables.drain_delta()
        assert drained is delta
        assert tables.peek_delta().is_empty
