"""Regression tests for the mutation edge paths audited in this PR.

Three under-specified behaviours are pinned down:

* ``delete`` on an out-of-range or already-tombstoned slot raises a typed
  error (:class:`SlotOutOfRangeError` — an ``IndexError`` — respectively
  :class:`AlreadyDeletedError` — a ``KeyError``) **before** any bookkeeping:
  no :class:`MutationDelta` entry, no pending tombstone, no moved engine
  counter, no compaction-trigger drift.
* ``insert_many([])`` is a no-op at every layer (tables, engine, facade):
  it returns ``[]``, emits no delta, bumps no counter and triggers no
  sampler re-synchronization.
* ``FairNN.neighborhood`` over a churned (insert/delete/compaction) index
  always equals a fresh exact scan over the live points — in particular it
  never evaluates the measure against a compaction-released (``None``)
  dataset slot.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import FairNN
from repro.core import PermutationFairSampler
from repro.engine import BatchQueryEngine
from repro.exceptions import (
    AlreadyDeletedError,
    InvalidParameterError,
    SlotOutOfRangeError,
)
from repro.lsh import MinHashFamily
from repro.spec import DistanceSpec, EngineSpec, LSHSpec, SamplerSpec

SET_PARAMS = {"radius": 0.35, "far_radius": 0.1, "num_hashes": 2, "num_tables": 8}


def _dataset(seed=3, n=60):
    rng = np.random.default_rng(seed)
    return [
        frozenset(int(x) for x in rng.choice(400, size=rng.integers(8, 22)))
        for _ in range(n)
    ]


def _engine(dataset, seed=7):
    sampler = PermutationFairSampler(
        MinHashFamily(), seed=seed, **{k: SET_PARAMS[k] for k in SET_PARAMS}
    )
    return BatchQueryEngine.build(sampler, dataset)


class TestDeleteEdgeSemantics:
    def test_out_of_range_raises_index_error(self):
        engine = _engine(_dataset())
        for bad in (len(engine.tables.dataset), 10_000, -1):
            with pytest.raises(SlotOutOfRangeError):
                engine.delete(bad)
            with pytest.raises(IndexError):
                engine.delete(bad)
            # Still an InvalidParameterError for pre-existing handlers.
            with pytest.raises(InvalidParameterError):
                engine.delete(bad)

    def test_double_delete_raises_key_error(self):
        engine = _engine(_dataset())
        engine.delete(0)
        with pytest.raises(AlreadyDeletedError):
            engine.delete(0)
        with pytest.raises(KeyError):
            engine.delete(0)
        with pytest.raises(InvalidParameterError):
            engine.delete(0)

    def test_failed_delete_has_no_side_effects(self):
        engine = _engine(_dataset())
        tables = engine.tables
        engine.delete(1)
        delta_before = tables.peek_delta()
        deleted_before = list(delta_before.deleted)
        pending_before = set(tables._pending)
        live_before = tables.num_live
        epoch_before = tables.mutation_epoch
        stats_before = engine.stats.to_dict()

        for failing in (lambda: engine.delete(1), lambda: engine.delete(10_000)):
            with pytest.raises(InvalidParameterError):
                failing()
            # Never double-counted: the delta, the tombstone bookkeeping and
            # the engine statistics are untouched by a failed delete.
            assert list(tables.peek_delta().deleted) == deleted_before
            assert set(tables._pending) == pending_before
            assert tables.num_live == live_before
            assert tables.mutation_epoch == epoch_before
            assert engine.stats.to_dict() == stats_before

    def test_tombstone_fraction_not_moved_by_failed_deletes(self):
        dataset = _dataset(n=40)
        engine = _engine(dataset)
        tables = engine.tables
        # Bring the index one delete short of the compaction trigger, then
        # hammer it with failing deletes: no sweep may fire.
        threshold = tables.max_tombstone_fraction
        while len(tables._pending) + 1 <= threshold * max(1, tables.num_live - 1):
            engine.delete(len(tables._pending))
        sweeps = tables.rebuilds_triggered
        for _ in range(50):
            with pytest.raises(InvalidParameterError):
                engine.delete(0 if not tables._alive[0] else 10_000)
        assert tables.rebuilds_triggered == sweeps


class TestFairNNDeleteSemantics:
    def test_facade_propagates_typed_errors_without_counting(self):
        dataset = _dataset()
        spec = SamplerSpec("permutation", SET_PARAMS, lsh=LSHSpec("minhash"), seed=5)
        nn = FairNN.from_spec(spec).serve(dataset)
        nn.delete(3)
        stats_before = {name: s.to_dict() for name, s in nn.stats().items()}
        with pytest.raises(KeyError):
            nn.delete(3)
        with pytest.raises(IndexError):
            nn.delete(10_000)
        assert {name: s.to_dict() for name, s in nn.stats().items()} == stats_before


class TestEmptyInsertIsANoOp:
    def test_engine_empty_insert_many(self):
        engine = _engine(_dataset())
        tables = engine.tables
        epoch = tables.mutation_epoch
        stats_before = engine.stats.to_dict()
        assert engine.insert_many([]) == []
        assert tables.mutation_epoch == epoch
        assert tables.peek_delta().is_empty
        assert engine.stats.to_dict() == stats_before
        assert engine._tables_dirty is False

    def test_tables_empty_insert_many(self):
        engine = _engine(_dataset())
        tables = engine.tables
        epoch = tables.mutation_epoch
        assert tables.insert_many([]) == []
        assert tables.mutation_epoch == epoch
        assert tables.peek_delta().is_empty


class TestFairNNEmptyInsert:
    def test_no_delta_no_counters_no_sync(self):
        dataset = _dataset()
        spec = SamplerSpec("permutation", SET_PARAMS, lsh=LSHSpec("minhash"), seed=5)
        nn = FairNN.from_spec(spec).serve(dataset)
        stats_before = {name: s.to_dict() for name, s in nn.stats().items()}
        assert nn.insert_many([]) == []
        assert {name: s.to_dict() for name, s in nn.stats().items()} == stats_before
        assert nn.tables.peek_delta().is_empty
        assert all(not engine._tables_dirty for engine in nn._engines.values())

    def test_no_op_even_where_mutation_would_be_rejected(self):
        """A facade serving the exact baseline rejects real mutations, but an
        empty batch has nothing to apply and must not raise."""
        dataset = _dataset()
        spec = EngineSpec(
            samplers={
                "fair": SamplerSpec("permutation", SET_PARAMS, lsh=LSHSpec("minhash"), seed=5),
                "exact": SamplerSpec("exact", {"radius": 0.35}, distance=DistanceSpec("jaccard"), seed=6),
            },
            primary="fair",
        )
        nn = FairNN.from_spec(spec).serve(dataset)
        with pytest.raises(InvalidParameterError):
            nn.insert(frozenset({1, 2, 3}))
        assert nn.insert_many([]) == []


class TestNeighborhoodLivenessAudit:
    def test_neighborhood_equals_fresh_exact_scan_under_churn(self):
        """Property test: after arbitrary interleavings of insert / delete /
        compaction, ``FairNN.neighborhood`` equals a fresh exact scan over
        the surviving points — in particular it survives compaction-released
        (``None``) dataset slots, which the pre-audit implementation fed
        straight into the measure kernels."""
        rng = np.random.default_rng(11)
        dataset = _dataset(n=50)
        spec = EngineSpec(
            samplers={"fair": SamplerSpec("permutation", SET_PARAMS, lsh=LSHSpec("minhash"), seed=5)},
            max_tombstone_fraction=0.15,  # force frequent sweeps
        )
        nn = FairNN.from_spec(spec).serve(dataset)
        sampler = nn.samplers["fair"]
        queries = [dataset[0], dataset[7], frozenset(int(x) for x in rng.choice(400, size=12))]

        for step in range(60):
            action = rng.integers(0, 3)
            live = np.flatnonzero(nn.tables.alive)
            if action == 0 or live.size <= 5:
                nn.insert_many(
                    [frozenset(int(x) for x in rng.choice(400, size=rng.integers(8, 22)))]
                )
            elif action == 1:
                nn.delete(int(rng.choice(live)))
            else:
                nn.tables.compact()
            if step % 5 == 0:
                container = nn.tables.dataset
                alive = nn.tables.alive
                for query in queries:
                    expected = sorted(
                        index
                        for index in range(len(container))
                        if alive[index]
                        and sampler.measure.within(
                            sampler.measure.value(container[index], query), sampler.radius
                        )
                    )
                    assert nn.neighborhood(query).tolist() == expected

        # End in a compacted state with released slots and check once more.
        nn.tables.compact()
        assert any(point is None for point in nn.tables.dataset)
        container = nn.tables.dataset
        alive = nn.tables.alive
        for query in queries:
            expected = sorted(
                index
                for index in range(len(container))
                if alive[index]
                and sampler.measure.within(
                    sampler.measure.value(container[index], query), sampler.radius
                )
            )
            assert nn.neighborhood(query).tolist() == expected
