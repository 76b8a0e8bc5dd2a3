"""Bulk WAL replay ends in the state record-at-a-time replay leaves.

:meth:`FairNN.recover` replays the WAL suffix in runs: the inserts of a run
go to one ``insert_many`` and its deletes follow in journal order
(:class:`repro.engine.dynamic.ReplayRun`).  Here seeded random journals are
written straight into a durable facade's WAL (so they may hold what a live
facade never journals: doomed deletes, repeated idempotency keys), then
recovered in bulk and, as the oracle, replayed one record at a time onto the
same checkpoint.  The two must agree on every slot, rank, bucket, epoch,
mutation delta (overflow included), sweep count, engine counter and the
idempotency window, and then answer Section 3 and Section 4 queries
identically.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.api
from repro import FairNN
from repro.engine.dynamic import DynamicLSHTables
from repro.engine.requests import QueryRequest
from repro.exceptions import AlreadyDeletedError, SlotOutOfRangeError
from repro.spec import EngineSpec, LSHSpec, SamplerSpec

SET_PARAMS = {"radius": 0.35, "num_hashes": 2, "num_tables": 6}
DENSE_PARAMS = {"radius": 1.5, "far_radius": 4.0, "num_hashes": 2, "num_tables": 6}
DIM = 4


def _spec(dense: bool, fraction: float) -> EngineSpec:
    if dense:
        params, lsh = DENSE_PARAMS, LSHSpec("pstable", {"dim": DIM, "width": 2.0})
    else:
        params, lsh = SET_PARAMS, LSHSpec("minhash")
    return EngineSpec(
        samplers={
            "section3": SamplerSpec("permutation", dict(params), lsh=lsh, seed=3),
            "section4": SamplerSpec("independent", dict(params), lsh=lsh, seed=4),
        },
        primary="section3",
        max_tombstone_fraction=fraction,
    )


def _points(rng, count: int, dense: bool) -> list:
    if dense:
        return list(rng.normal(size=(count, DIM)))
    return [
        frozenset(int(x) for x in rng.choice(200, size=rng.integers(6, 14)))
        for _ in range(count)
    ]


def _journal(rng, dataset_size, records, dense, *, delete_share, doomed_share, keys):
    """A seeded random journal of WAL payloads, as the live facade writes them.

    Half of the live deletes pick one of the last few slots, so runs delete
    points they inserted themselves.  A doomed delete names a slot one past
    the current end (a later insert in the same run creates it) or one
    already deleted.  Keys come from a small pool, so they repeat.
    """
    slots, dead, payloads = dataset_size, set(), []
    for _ in range(records):
        key = f"k{int(rng.integers(0, keys))}" if keys and rng.random() < 0.7 else None
        live = slots - len(dead)
        if live > 3 and rng.random() < delete_share:
            if rng.random() < doomed_share:
                if dead and rng.random() < 0.5:
                    index = int(rng.choice(sorted(dead)))
                else:
                    index = slots + int(rng.integers(0, 2))
            else:
                recent = rng.random() < 0.5
                while True:
                    low = max(0, slots - 4) if recent else 0
                    index = int(rng.integers(low, slots))
                    if index not in dead:
                        break
                    recent = False
                dead.add(index)
            payloads.append({"op": "delete", "index": index, "key": key})
        else:
            points = _points(rng, int(rng.integers(1, 4)), dense)
            payloads.append({"op": "insert", "points": points, "key": key})
            slots += len(points)
    return payloads


def _replay_one_at_a_time(nn, payloads) -> None:
    """The oracle: each record applied alone, doomed deletes skipped."""
    tables = nn.tables
    for payload in payloads:
        try:
            if payload["op"] == "insert":
                result = tables.insert_many(list(payload["points"]))
                for engine in nn.engines.values():
                    engine.note_external_mutation(inserts=len(result))
            else:
                tables.delete(int(payload["index"]))
                for engine in nn.engines.values():
                    engine.note_external_mutation(deletes=1)
                result = None
        except (SlotOutOfRangeError, AlreadyDeletedError):
            continue
        nn._idempotency_remember(payload.get("key"), result)


def _plain(point):
    if point is None or isinstance(point, frozenset):
        return point
    return np.asarray(point).tolist()


def _state(nn) -> dict:
    tables = nn.tables
    delta = tables.peek_delta()
    return {
        "slots": tables.num_points,
        "live": tables.num_live,
        "alive": tables.alive.tolist(),
        "ranks": tables.ranks.tolist(),
        "points": [_plain(point) for point in tables.dataset],
        "buckets": [
            {key: bucket._members.tolist() for key, bucket in table.items()}
            for table in tables._tables
        ],
        "mutation_epoch": tables.mutation_epoch,
        "delta": (delta.inserted, delta.deleted, delta.overflowed, delta.start_epoch),
        "pending": sorted(tables._pending),
        "rebuilds_triggered": tables.rebuilds_triggered,
        "rank_stream": tables._mut_rng.bit_generator.state,
        "engine_counts": {
            name: (engine.stats.inserts, engine.stats.deletes)
            for name, engine in nn.engines.items()
        },
        "idempotency": list(nn._idempotency.items()),
    }


def _answers(nn, queries) -> dict:
    requests = [QueryRequest(query=q, k=2, replacement=False) for q in queries]
    return {
        name: [(r.indices, r.value) for r in nn.run(requests, sampler=name)]
        for name in ("section3", "section4")
    }


CASES = {
    # interleaved inserts and deletes, sweeps fire partway through replay
    "interleaved": dict(records=80, delete_share=0.45, doomed_share=0.0, keys=0),
    "low-fraction": dict(records=80, delete_share=0.45, doomed_share=0.0, keys=0, fraction=0.08),
    # journaled doomed deletes: out of range (a later insert makes the slot) and dead
    "doomed": dict(records=80, delete_share=0.5, doomed_share=0.35, keys=0),
    # repeated idempotency keys, more of them than the window holds
    "keys": dict(records=80, delete_share=0.5, doomed_share=0.1, keys=9, cap=5),
    # enough undrained mutations that the delta overflows during replay
    "overflow": dict(records=1300, delete_share=0.5, doomed_share=0.05, keys=0),
    "dense": dict(records=80, delete_share=0.45, doomed_share=0.2, keys=6, dense=True),
}


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("case", sorted(CASES))
def test_bulk_replay_matches_one_record_at_a_time(case, seed, tmp_path, monkeypatch):
    config = dict(CASES[case])
    dense = config.pop("dense", False)
    fraction = config.pop("fraction", 0.25)
    if "cap" in config:
        monkeypatch.setattr(repro.api, "_IDEMPOTENCY_CAP", config.pop("cap"))
    rng = np.random.default_rng([seed, sorted(CASES).index(case)])
    dataset = _points(rng, 30, dense)
    payloads = _journal(rng, len(dataset), dense=dense, **config)
    queries = dataset[:4] + _points(rng, 2, dense)

    nn = FairNN.from_spec(_spec(dense, fraction)).serve(
        dataset, data_dir=tmp_path / "d", fsync="off"
    )
    checkpoint = nn.checkpoint()
    for payload in payloads:
        nn.wal.append(payload)
    nn.close()

    runs = []
    apply_run = DynamicLSHTables.apply_run
    monkeypatch.setattr(
        DynamicLSHTables,
        "apply_run",
        lambda tables, run: runs.append(len(run.records)) or apply_run(tables, run),
    )
    bulk = FairNN.recover(tmp_path / "d")
    monkeypatch.undo()
    if "cap" in CASES[case]:
        monkeypatch.setattr(repro.api, "_IDEMPOTENCY_CAP", CASES[case]["cap"])
    oracle = FairNN.load(checkpoint)
    try:
        _replay_one_at_a_time(oracle, payloads)
        expected = _state(oracle)
        assert _state(bulk) == expected
        assert bulk.durability()["recovered_records"] == sum(runs)
        # The journal really exercises what the case names.
        assert len(runs) < len(payloads) / 2 and max(runs) > 2
        assert expected["rebuilds_triggered"] > 0
        if CASES[case].get("doomed_share"):
            assert sum(runs) < len(payloads)
        if case == "keys":
            assert len(expected["idempotency"]) == CASES[case]["cap"]
        if case == "overflow":
            assert expected["delta"][2]
        assert _answers(bulk, queries) == _answers(oracle, queries)
        assert _state(bulk) == _state(oracle)
    finally:
        bulk.close()
        oracle.close()


def test_one_insert_equals_its_points_one_at_a_time_on_rank_ties():
    """A batch splices rank ties as its points inserted singly would."""
    rng = np.random.default_rng(5)
    points = _points(rng, 12, dense=False)

    def tables():
        built = DynamicLSHTables(repro.MinHashFamily(), 3, seed=9)
        built.fit(points[:6], ranks=np.array([5, 5, 7, 1, 5, 9], dtype=np.int64))
        return built

    batched, single = tables(), tables()
    extra = points[:6] + points[6:]
    ranks = [5, 5, 1, 9, 7, 5, 5, 5, 0, 9, 7, 3]
    batched.insert_many(extra, ranks=ranks)
    for point, rank in zip(extra, ranks):
        single.insert(point, rank=rank)
    assert [
        {key: b._members.tolist() for key, b in table.items()} for table in batched._tables
    ] == [{key: b._members.tolist() for key, b in table.items()} for table in single._tables]
