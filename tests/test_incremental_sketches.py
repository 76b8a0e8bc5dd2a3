"""Section 4's colliding-count estimate across mutation batches.

The Section 4 sampler once stored one count-distinct sketch per bucket and
maintained it incrementally from each :class:`~repro.engine.dynamic.MutationDelta`.
It now sketches the live members of the query's colliding view at query time
(``test_colliding_estimate.py`` checks that estimate and pins when its hash
functions are redrawn).  What incremental upkeep had to get right still has
to hold: across insert/delete/compaction schedules the estimate equals a full
rebuild's, inserted copies count as soon as they are synced and deleted
copies stop counting at once, and each mutation record is drained once.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import DynamicLSHTables, MutationDelta
from repro.lsh import MinHashFamily
from test_colliding_estimate import MARKER, assert_exact, build_engine, make_sampler, random_sets


class TestEquivalenceProperty:
    @pytest.mark.parametrize("schedule_seed", [0, 1, 2, 3])
    def test_random_schedules_match_full_rebuild_exactly(self, schedule_seed):
        """After every sync of a random schedule, each estimate equals the
        merge of from-scratch sketches of the live colliding buckets."""
        rng = np.random.default_rng(100 + schedule_seed)
        dataset = random_sets(rng, 40)
        queries = dataset[:15] + random_sets(rng, 5) + [MARKER]
        engine = build_engine(dataset, seed=schedule_seed)
        tables = engine.tables
        assert_exact(engine.sampler, queries)

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
                engine.insert_many(random_sets(rng, 2) + [MARKER])
            else:
                tables.compact()
                engine._tables_dirty = True
            engine._sync()
            assert_exact(engine.sampler, queries)

    def test_estimates_match_freshly_rebuilt_sampler(self):
        """After churn, the served estimates equal those of a sampler
        attached afresh to the same tables with the same hash functions:
        nothing cached before the churn leaks into later answers."""
        rng = np.random.default_rng(7)
        dataset = random_sets(rng, 50)
        engine = build_engine(dataset, seed=9)
        queries = dataset[:10] + random_sets(rng, 3)
        before = [engine.sampler.estimate_colliding_count(q) for q in queries]

        engine.insert_many(random_sets(rng, 10))
        for index in [1, 4, 8, 15, 23]:
            engine.delete(index)
        engine._sync()
        maintained = [engine.sampler.estimate_colliding_count(q) for q in queries]
        assert maintained != before

        rebuilt = make_sampler(seed=9).attach(engine.tables, engine.tables.dataset)
        rebuilt._sketcher = engine.sampler._sketcher
        assert [rebuilt.estimate_colliding_count(q) for q in queries] == maintained


class TestIncrementalBehaviour:
    def test_bucket_promoted_when_inserts_cross_cutoff(self):
        """Inserted copies count from the next sync on, however small
        their bucket was before."""
        rng = np.random.default_rng(18)
        dataset = random_sets(rng, 30) + [MARKER] * 2
        engine = build_engine(dataset, seed=21)
        sampler = engine.sampler
        assert sampler.estimate_colliding_count(MARKER) == 2.0

        engine.insert_many([MARKER] * 3)
        engine._sync()

        assert sampler.estimate_colliding_count(MARKER) == 5.0
        assert_exact(sampler, dataset[:10] + [MARKER])

    def test_stale_sketch_dropped_when_bucket_shrinks_below_cutoff(self):
        """Deleted copies stop counting at the next sync, before any sweep
        removes them from their buckets."""
        rng = np.random.default_rng(17)
        dataset = random_sets(rng, 30) + [MARKER] * 6
        tables = DynamicLSHTables(
            MinHashFamily(), l=8, seed=19, max_tombstone_fraction=0.9
        ).fit(dataset)
        sampler = make_sampler(seed=19).attach(tables, tables.dataset)
        assert sampler.estimate_colliding_count(MARKER) == 6.0

        for index in [30, 31, 32, 33]:  # shrink the marker bucket to 2 live
            tables.delete(index)
        sampler.notify_update()

        assert tables.pending_tombstones == 4
        assert sampler.estimate_colliding_count(MARKER) == 2.0
        assert_exact(sampler, dataset[:10] + [MARKER])

    def test_delta_is_drained_once(self):
        rng = np.random.default_rng(13)
        engine = build_engine(random_sets(rng, 30), seed=15)
        tables = engine.tables
        tables.insert(frozenset({1, 2, 3}))
        delta = tables.drain_delta()
        assert not delta.is_empty
        assert tables.drain_delta().is_empty


class TestMutationDelta:
    def test_empty_shape_and_flags(self):
        delta = MutationDelta()
        assert delta.is_empty
        assert (delta.inserted, delta.deleted, delta.overflowed, delta.start_epoch) == (
            [], [], False, 0
        )
        assert MutationDelta(start_epoch=7).is_empty
        # An overflowed record lost its slot lists but still means "changed".
        assert not MutationDelta(overflowed=True).is_empty

    def test_records_inserts_deletes_and_compaction(self):
        tables = DynamicLSHTables(
            MinHashFamily(), l=4, seed=3, max_tombstone_fraction=0.9
        ).fit([frozenset({1, 2, 3}), frozenset({1, 2, 4}), frozenset({8, 9})])
        assert tables.peek_delta().is_empty
        new = tables.insert(frozenset({1, 2, 5}))
        tables.delete(new)
        delta = tables.peek_delta()
        assert (delta.inserted, delta.deleted, delta.overflowed) == ([new], [new], False)

        # A sweep moves the epoch but leaves the record to its consumer.
        assert tables.pending_tombstones == 1
        epoch = tables.mutation_epoch
        tables.compact()
        assert (tables.pending_tombstones, tables.mutation_epoch) == (0, epoch + 1)
        assert tables.peek_delta() is delta
        assert (delta.inserted, delta.deleted) == ([new], [new])

        drained = tables.drain_delta()
        assert drained is delta
        assert tables.peek_delta().is_empty
        assert tables.peek_delta().start_epoch == tables.mutation_epoch
