"""The targeted compaction sweep and the engine's per-batch sync sweep.

``DynamicLSHTables.compact`` hashes the pending tombstones once and rewrites
only the buckets under their keys, falling back to a walk over every bucket
when the count of removed dead references disagrees with
``len(pending) x L``.  ``BatchQueryEngine`` sweeps at every batch sync with
tombstones pending, so served gathers never filter dead references; while a
batch over the same tables is in flight, whose gathered views may name the
swept slots, their point objects are kept until it ends.

This file pins:

* after random churn, the targeted sweep leaves exactly the buckets (keys,
  members, ranks, order) and the compaction record a full walk leaves;
* a pending point hashed to a wrong key still ends swept, through the
  checked fallback;
* ``engine.run`` after ``engine.delete`` leaves nothing pending and answers
  exactly as the sampler's own (full-view) draws;
* a batch in flight during a delete + run keeps its slots until it is done;
* a delete or insert issued while a sweep runs waits for it, and facade
  mutations racing facade batches leave no dead reference and lose no
  insert.
"""

from __future__ import annotations

import copy
import threading

import numpy as np
import pytest

from repro import FairNN
from repro.core import PermutationFairSampler
from repro.core.evaluator import scalar_kernels
from repro.engine import BatchQueryEngine
from repro.engine.dynamic import DynamicLSHTables
from repro.lsh import MinHashFamily, PStableFamily
from repro.spec import EngineSpec, LSHSpec, SamplerSpec


def _sets(rng, count, universe=60):
    return [
        frozenset(int(x) for x in rng.choice(universe, size=int(rng.integers(4, 12)), replace=False))
        for _ in range(count)
    ]


def _vectors(rng, count, dim=6):
    return [row for row in rng.normal(size=(count, dim))]


FLAVOURS = {
    "minhash": (lambda: MinHashFamily().concatenate(2), _sets),
    "pstable": (lambda: PStableFamily(6, width=2.0).concatenate(2), _vectors),
}


def _churned_tables(flavour, seed):
    """Tables with inserts and deletes applied in one unswept batch."""
    make_family, make_points = FLAVOURS[flavour]
    rng = np.random.default_rng(seed)
    tables = DynamicLSHTables(make_family(), l=8, seed=seed, max_tombstone_fraction=1.0)
    tables.fit(make_points(rng, 120))
    inserted = tables.insert_many(make_points(rng, 30))
    doomed = rng.choice(120, size=25, replace=False).tolist() + inserted[::4]
    for index in doomed:
        tables.delete(int(index))
    return tables, sorted(int(index) for index in doomed)


def _bucket_state(tables):
    return [
        [
            (key, bucket.indices.tolist(), None if bucket.ranks is None else bucket.ranks.tolist())
            for key, bucket in table.items()
        ]
        for table in tables._tables
    ]


def _dead_references(tables):
    alive = tables.alive
    return sum(
        int(np.count_nonzero(~alive[bucket.indices]))
        for table in tables._tables
        for bucket in table.values()
    )


@pytest.mark.parametrize("flavour", sorted(FLAVOURS))
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_targeted_sweep_matches_full_walk(flavour, seed):
    tables, doomed = _churned_tables(flavour, seed)
    reference = copy.deepcopy(tables)
    assert tables.pending_tombstones == len(doomed)

    reference._sweep_all_buckets()
    tables.compact()

    assert _bucket_state(tables) == _bucket_state(reference)
    assert _dead_references(tables) == 0
    assert tables.pending_tombstones == 0
    assert tables.rebuilds_triggered == 1
    assert all(tables.dataset[index] is None for index in doomed)


def test_exact_keys_never_take_the_fallback(monkeypatch):
    tables, _ = _churned_tables("minhash", 4)

    def _fail():
        raise AssertionError("the full walk ran")

    monkeypatch.setattr(tables, "_sweep_all_buckets", _fail)
    tables.compact()
    assert _dead_references(tables) == 0


@pytest.mark.parametrize("flavour", sorted(FLAVOURS))
def test_wrong_key_is_swept_by_the_fallback(flavour, monkeypatch):
    tables, _ = _churned_tables(flavour, 5)
    reference = copy.deepcopy(tables)
    reference._sweep_all_buckets()
    hash_points = tables.query_keys_many

    def _one_wrong_key(points):
        keys = [list(point_keys) for point_keys in hash_points(points)]
        # A point alone in its table-0 bucket among the pending ones, so no
        # other pending point's key reaches its dead reference.
        first_keys = [point_keys[0] for point_keys in keys]
        lone = next(j for j, key in enumerate(first_keys) if first_keys.count(key) == 1)
        keys[lone][0] = ("no such bucket",)
        return keys

    walks = []
    sweep_all = tables._sweep_all_buckets
    monkeypatch.setattr(tables, "query_keys_many", _one_wrong_key)
    monkeypatch.setattr(tables, "_sweep_all_buckets", lambda: walks.append(1) or sweep_all())
    tables.compact()

    assert walks == [1]
    assert _dead_references(tables) == 0
    assert tables.pending_tombstones == 0
    assert _bucket_state(tables) == _bucket_state(reference)


def _permutation_engine(dataset, seed=11):
    sampler = PermutationFairSampler(
        MinHashFamily(), radius=0.3, far_radius=0.1, num_hashes=2, num_tables=12, seed=seed
    )
    return BatchQueryEngine.build(sampler, dataset, max_tombstone_fraction=1.0, seed=seed)


def test_run_after_delete_sweeps_and_matches_the_sampler():
    rng = np.random.default_rng(21)
    dataset = _sets(rng, 200, universe=40)
    engine = _permutation_engine(dataset)
    queries = dataset[:30]
    engine.run(queries)
    for _ in range(3):
        for index in rng.choice(200, size=5, replace=False):
            if engine.tables.alive[index]:
                engine.delete(int(index))
        engine.insert_many(_sets(rng, 3, universe=40))
        before = engine.tables.rebuilds_triggered
        responses = engine.run(queries)
        assert engine.tables.pending_tombstones == 0
        # One sweep per batch with deletes.
        assert engine.tables.rebuilds_triggered == before + 1
        assert engine.stats.rebuilds_triggered == engine.tables.rebuilds_triggered
        assert [r.index for r in responses] == [engine.sampler.sample(q) for q in queries]
    # A batch without mutations sweeps nothing.
    engine.run(queries)
    assert engine.tables.rebuilds_triggered == before + 1


def test_batch_in_flight_keeps_its_slots_until_done():
    """A sweep keeps the swept point objects while a batch is in flight.

    The first batch gathers its view, then pauses before scoring it while
    another thread deletes the point it is about to return and runs a
    batch, which sweeps.  With scalar kernels the first batch reads point
    objects from the dataset list, so releasing the slot under it would
    fail the batch.
    """
    rng = np.random.default_rng(31)
    dataset = _sets(rng, 200, universe=40)
    query = dataset[7]
    expected = _permutation_engine(dataset).run([query])[0].index
    assert expected is not None

    engine = _permutation_engine(dataset)
    sampler = engine.sampler
    score_prefix = sampler.sample_detailed_from_prefix
    gathered, resume = threading.Event(), threading.Event()
    paused = threading.current_thread()

    def _pausing(*args, **kwargs):
        if threading.current_thread() is paused:
            gathered.set()
            assert resume.wait(30)
        return score_prefix(*args, **kwargs)

    sampler.sample_detailed_from_prefix = _pausing
    outcome = {}

    def _first_batch():
        try:
            outcome["response"] = engine.run([query])[0]
        except BaseException as error:  # surfaced by the assertion below
            outcome["error"] = error

    with scalar_kernels():
        thread = threading.Thread(target=_first_batch)
        paused = thread
        thread.start()
        assert gathered.wait(30)
        engine.delete(expected)
        concurrent = engine.run([query])[0]
        # The buckets are swept; the point object waits for the first batch.
        assert engine.tables.pending_tombstones == 0
        assert engine.tables.dataset[expected] is not None
        assert concurrent.index != expected
        resume.set()
        thread.join(30)
        assert not thread.is_alive()
        assert "error" not in outcome, outcome.get("error")
        assert outcome["response"].index == expected
        assert engine.tables.dataset[expected] is None

        after = engine.run([query])[0]
    assert after.index == concurrent.index


def _references_per_table(tables):
    return [sum(bucket.indices.size for bucket in table.values()) for table in tables._tables]


@pytest.mark.parametrize("op", ["delete", "insert"])
def test_mutation_waits_for_a_running_sweep(op, monkeypatch):
    """A sweep holds the tables' lock from its count check to its release.

    The sweep pauses after hashing; a delete landing then would have its
    slot released with its references left in the buckets, and an insert
    splice into a bucket the sweep rewrites would be lost.
    """
    tables, doomed = _churned_tables("minhash", 6)
    rng = np.random.default_rng(6)
    victim = next(index for index in range(tables.num_points) if tables.alive[index])
    new_point = tables.dataset[victim] | {999}
    hash_points = tables.query_keys_many
    hashed, resume = threading.Event(), threading.Event()
    sweeper = threading.Thread(target=tables.compact)

    def _pausing(points):
        keys = hash_points(points)
        if threading.current_thread() is sweeper:
            hashed.set()
            assert resume.wait(30)
        return keys

    monkeypatch.setattr(tables, "query_keys_many", _pausing)
    inserted = []
    mutate = (
        (lambda: tables.delete(victim))
        if op == "delete"
        else (lambda: inserted.extend(tables.insert_many([new_point] + _sets(rng, 3))))
    )
    mutator = threading.Thread(target=mutate)
    sweeper.start()
    assert hashed.wait(30)
    mutator.start()
    mutator.join(0.2)
    assert mutator.is_alive()  # blocked on the sweep
    resume.set()
    sweeper.join(30)
    mutator.join(30)
    assert not sweeper.is_alive() and not mutator.is_alive()

    assert all(tables.dataset[index] is None for index in doomed)
    if op == "delete":
        assert tables.pending_tombstones == 1
        assert tables.dataset[victim] is not None
        assert _dead_references(tables) == tables.l
    else:
        assert tables.pending_tombstones == 0
        for index, keys in zip(inserted, hash_points([tables.dataset[i] for i in inserted])):
            for table, key in zip(tables._tables, keys):
                assert index in table[key].indices
    tables.compact()
    assert _dead_references(tables) == 0
    assert _references_per_table(tables) == [tables.num_live] * tables.l


def test_facade_mutations_race_batches():
    """Concurrent facade deletes and inserts against concurrent batches.

    With scalar kernels a batch reads point objects from the dataset list,
    so a sweep releasing a slot that a batch in flight still scores fails
    the batch.  At the end every live point sits in exactly one bucket per
    table and no dead reference remains.
    """
    rng = np.random.default_rng(51)
    dataset = _sets(rng, 300, universe=40)
    spec = EngineSpec(
        samplers={
            "permutation": SamplerSpec(
                "permutation",
                {"radius": 0.3, "far_radius": 0.1, "num_hashes": 2, "num_tables": 8},
                lsh=LSHSpec("minhash"),
                seed=5,
            )
        }
    )
    nn = FairNN(spec).serve(dataset)
    queries = dataset[:16]
    doomed = [int(index) for index in rng.permutation(300)[:120]]
    insert_batches = [_sets(rng, 2, universe=40) for _ in range(40)]
    errors, inserted = [], []
    stop = threading.Event()

    def _guarded(work):
        def run():
            try:
                work()
            except BaseException as error:  # surfaced by the assertion below
                errors.append(error)
                stop.set()

        return threading.Thread(target=run)

    def _reader():
        while not stop.is_set():
            for response in nn.run(queries):
                assert response.index is None or 0 <= response.index < nn.tables.num_points

    def _deleter(indices):
        def work():
            for index in indices:
                nn.delete(index)

        return work

    def _inserter():
        for batch in insert_batches:
            inserted.extend(nn.insert_many(batch))

    with scalar_kernels():
        readers = [_guarded(_reader) for _ in range(2)]
        mutators = [
            _guarded(_deleter(doomed[0::2])),
            _guarded(_deleter(doomed[1::2])),
            _guarded(_inserter),
        ]
        for thread in readers + mutators:
            thread.start()
        for thread in mutators:
            thread.join(60)
        stop.set()
        for thread in readers:
            thread.join(60)
        assert not any(thread.is_alive() for thread in readers + mutators)
        assert not errors, errors
        nn.run(queries)

    tables = nn.tables
    assert tables.pending_tombstones == 0
    assert not tables.alive[doomed].any()
    assert sorted(inserted) == list(range(300, 300 + 2 * len(insert_batches)))
    assert tables.alive[inserted].all()
    assert tables.num_live == 300 - len(doomed) + len(inserted)
    assert _dead_references(tables) == 0
    assert _references_per_table(tables) == [tables.num_live] * tables.l
    nn.close()
