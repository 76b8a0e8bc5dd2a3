"""Crash recovery: checkpoint + WAL replay is byte-identical to never crashing.

The durability contract of ``FairNN.serve(data_dir=...)`` is pinned here end
to end:

* apply a random interleaving of insert/delete batches, kill the facade at a
  random point (simulated crash: the WAL flushes per append, so dropping the
  process loses nothing), then :meth:`FairNN.recover` — the recovered facade
  answers **byte-identically** to a reference facade that applied the same
  mutation prefix and never crashed, and keeps doing so as both sides apply
  the rest of the history;
* a **torn final WAL record** (death mid-append) is truncated on recovery:
  the recovered facade matches a reference that never saw that mutation —
  which is exactly what the crashed process applied;
* a real ``SIGKILL``-ed child process leaves a directory the parent recovers
  from (no simulation shortcuts);
* mid-history checkpoints only shorten replay, never change the answers;
* idempotency keys ride inside WAL records, so the retry-dedup window
  survives the crash;
* RNG-backed samplers (whose query stream is not journaled) still recover
  **deterministically**: two recoveries of the same directory are identical;
* a data directory whose base checkpoint is in the zipped v3 format an
  earlier release wrote recovers, its next checkpoint is v5, and a damaged
  v5 checkpoint falls back to the v3 one with identical answers.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro import FairNN
from repro.engine.requests import QueryRequest
from repro.engine.wal import WriteAheadLog
from repro.exceptions import InvalidParameterError, SnapshotCorruptError
from repro.spec import LSHSpec, SamplerSpec
from repro.testing import tear_tail

SEED = 7
PARAMS = {"radius": 0.35, "num_hashes": 2, "num_tables": 6}


def _spec(sampler="permutation", seed=SEED):
    return SamplerSpec(sampler, dict(PARAMS), lsh=LSHSpec("minhash"), seed=seed)


def _dataset(seed=2, n=30):
    rng = np.random.default_rng(seed)
    return [
        frozenset(int(x) for x in rng.choice(300, size=rng.integers(8, 20)))
        for _ in range(n)
    ]


def _gen_ops(rng, pool, n_ops, initial_count):
    """A valid random mutation history: inserts from ``pool``, live deletes."""
    count, dead, ops = initial_count, set(), []
    for _ in range(n_ops):
        if count - len(dead) > 3 and rng.random() < 0.4:
            while True:
                index = int(rng.integers(0, count))
                if index not in dead:
                    break
            dead.add(index)
            ops.append(("delete", index))
        else:
            batch = [pool[int(i)] for i in rng.integers(0, len(pool), size=rng.integers(1, 4))]
            ops.append(("insert", batch))
            count += len(batch)
    return ops


def _apply(nn, ops):
    for op in ops:
        if op[0] == "insert":
            nn.insert_many(op[1])
        else:
            nn.delete(op[1])


def _assert_byte_identical(left, right, queries):
    requests = [QueryRequest(query=q, k=3, replacement=False) for q in queries]
    for a, b in zip(left.run(requests), right.run(requests)):
        assert a.indices == b.indices
        assert a.value == b.value
        assert a.stats == b.stats


# ----------------------------------------------------------------------
# The core property: random history x random kill point
# ----------------------------------------------------------------------
class TestRandomKillPoint:
    # The ids keep the names these cases had while sharded executors ran
    # beside the unsharded engine.
    @pytest.mark.parametrize("seed", [0, 1, 2], ids=lambda seed: f"unsharded-{seed}")
    def test_recovery_is_byte_identical(self, seed, tmp_path):
        rng = np.random.default_rng(100 + seed)
        dataset = _dataset(seed=seed)
        pool = _dataset(seed=1000 + seed, n=20)
        ops = _gen_ops(rng, pool, n_ops=12, initial_count=len(dataset))
        kill = int(rng.integers(1, len(ops) + 1))
        checkpoint_at = int(rng.integers(0, kill))
        queries = dataset[:5] + pool[:3]

        nn = FairNN.from_spec(_spec()).serve(dataset, data_dir=tmp_path / "d", fsync="off")
        try:
            _apply(nn, ops[:checkpoint_at])
            nn.checkpoint()
            _apply(nn, ops[checkpoint_at:kill])
        finally:
            # Simulated kill: per-append flush means a dead process loses
            # nothing the OS already holds; close() only releases resources.
            nn.close()

        recovered = FairNN.recover(tmp_path / "d")
        reference = FairNN.from_spec(_spec()).serve(dataset)
        try:
            _apply(reference, ops[:kill])
            _assert_byte_identical(recovered, reference, queries)
            # The recovered facade is a full serving facade: applying the
            # rest of the history keeps it in lockstep.
            _apply(recovered, ops[kill:])
            _apply(reference, ops[kill:])
            _assert_byte_identical(recovered, reference, queries)
        finally:
            recovered.close()
            reference.close()

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(data=st.data())
    def test_property_random_interleavings(self, data):
        """Hypothesis sweep over histories, kill points and checkpoints."""
        seed = data.draw(st.integers(0, 2**16), label="seed")
        n_ops = data.draw(st.integers(1, 14), label="n_ops")
        rng = np.random.default_rng(seed)
        dataset = _dataset(seed=seed % 97)
        pool = _dataset(seed=5000 + seed % 97, n=15)
        ops = _gen_ops(rng, pool, n_ops=n_ops, initial_count=len(dataset))
        kill = data.draw(st.integers(1, len(ops)), label="kill")
        checkpoint_at = data.draw(st.integers(0, kill), label="checkpoint_at")
        queries = dataset[:4] + pool[:2]

        tmp = Path(tempfile.mkdtemp(prefix="crash-recovery-"))
        recovered = reference = None
        try:
            nn = FairNN.from_spec(_spec()).serve(
                dataset, data_dir=tmp / "d", fsync="off"
            )
            try:
                _apply(nn, ops[:checkpoint_at])
                nn.checkpoint()
                _apply(nn, ops[checkpoint_at:kill])
            finally:
                nn.close()
            recovered = FairNN.recover(tmp / "d")
            reference = FairNN.from_spec(_spec()).serve(dataset)
            _apply(reference, ops[:kill])
            _assert_byte_identical(recovered, reference, queries)
        finally:
            if recovered is not None:
                recovered.close()
            if reference is not None:
                reference.close()
            shutil.rmtree(tmp, ignore_errors=True)


# ----------------------------------------------------------------------
# Torn final record: the crash residue the WAL exists for
# ----------------------------------------------------------------------
class TestTornFinalRecord:
    def test_torn_tail_recovers_to_previous_mutation(self, tmp_path):
        rng = np.random.default_rng(9)
        dataset = _dataset(seed=4)
        pool = _dataset(seed=1004, n=20)
        ops = _gen_ops(rng, pool, n_ops=10, initial_count=len(dataset))
        queries = dataset[:5] + pool[:3]

        nn = FairNN.from_spec(_spec()).serve(dataset, data_dir=tmp_path / "d", fsync="off")
        try:
            _apply(nn, ops)
        finally:
            nn.close()
        # Die mid-append of the final record: shear a few bytes off the tail.
        last_segment = sorted((tmp_path / "d" / "wal").iterdir())[-1]
        tear_tail(last_segment, 5)

        recovered = FairNN.recover(tmp_path / "d")
        reference = FairNN.from_spec(_spec()).serve(dataset)
        try:
            _apply(reference, ops[:-1])  # the torn mutation never applied
            _assert_byte_identical(recovered, reference, queries)
            # The repaired WAL accepts new mutations (the torn record's
            # sequence number is reused) and stays in lockstep.
            _apply(recovered, ops[-1:])
            _apply(reference, ops[-1:])
            _assert_byte_identical(recovered, reference, queries)
        finally:
            recovered.close()
            reference.close()


# ----------------------------------------------------------------------
# A real SIGKILL, not a simulation
# ----------------------------------------------------------------------
_CHILD_SCRIPT = """
import json, os, signal, sys
from repro import FairNN
from repro.spec import LSHSpec, SamplerSpec

with open(sys.argv[2]) as handle:
    job = json.load(handle)
dataset = [frozenset(point) for point in job["dataset"]]
spec = SamplerSpec(
    "permutation", job["params"], lsh=LSHSpec("minhash"), seed=job["seed"]
)
nn = FairNN.from_spec(spec).serve(dataset, data_dir=sys.argv[1], fsync="off")
for op in job["ops"]:
    if op[0] == "insert":
        nn.insert_many([frozenset(point) for point in op[1]])
    else:
        nn.delete(op[1])
os.kill(os.getpid(), signal.SIGKILL)
"""


class TestRealSigkill:
    def test_parent_recovers_sigkilled_child(self, tmp_path):
        rng = np.random.default_rng(21)
        dataset = _dataset(seed=5)
        pool = _dataset(seed=1005, n=15)
        ops = _gen_ops(rng, pool, n_ops=8, initial_count=len(dataset))
        job = {
            "dataset": [sorted(point) for point in dataset],
            "ops": [
                [op[0], [sorted(p) for p in op[1]]] if op[0] == "insert" else list(op)
                for op in ops
            ],
            "params": PARAMS,
            "seed": SEED,
        }
        job_path = tmp_path / "job.json"
        job_path.write_text(json.dumps(job))

        env = dict(os.environ)
        src_root = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
        result = subprocess.run(
            [sys.executable, "-c", _CHILD_SCRIPT, str(tmp_path / "d"), str(job_path)],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == -signal.SIGKILL, result.stderr

        recovered = FairNN.recover(tmp_path / "d")
        reference = FairNN.from_spec(_spec()).serve(dataset)
        try:
            _apply(reference, ops)
            _assert_byte_identical(recovered, reference, dataset[:5] + pool[:3])
        finally:
            recovered.close()
            reference.close()


# ----------------------------------------------------------------------
# Durable-facade surface: guard rails, idempotency, checkpoints
# ----------------------------------------------------------------------
class TestDurableFacade:
    def test_serve_requires_fresh_directory(self, tmp_path):
        dataset = _dataset()
        nn = FairNN.from_spec(_spec()).serve(dataset, data_dir=tmp_path / "d")
        nn.close()
        with pytest.raises(InvalidParameterError, match="recover"):
            FairNN.from_spec(_spec()).serve(dataset, data_dir=tmp_path / "d")

    def test_serve_data_dir_requires_dynamic_tables(self, tmp_path):
        spec = dataclasses.replace(
            repro.EngineSpec(samplers={"permutation": _spec()}), dynamic=False
        )
        with pytest.raises(InvalidParameterError, match="dynamic"):
            FairNN.from_spec(spec).serve(_dataset(), data_dir=tmp_path / "d")

    def test_recover_empty_directory_raises(self, tmp_path):
        with pytest.raises((InvalidParameterError, SnapshotCorruptError)):
            FairNN.recover(tmp_path / "nothing-here")

    def test_invalid_fsync_policy_rejected(self, tmp_path):
        with pytest.raises(InvalidParameterError, match="fsync"):
            FairNN.from_spec(_spec()).serve(
                _dataset(), data_dir=tmp_path / "d", fsync="sometimes"
            )

    def test_idempotency_window_survives_recovery(self, tmp_path):
        dataset = _dataset()
        extra = _dataset(seed=77, n=3)
        nn = FairNN.from_spec(_spec()).serve(
            dataset, data_dir=tmp_path / "d", fsync="off"
        )
        try:
            first = nn.insert_many(extra, idempotency_key="retry-me")
            assert nn.insert_many(extra, idempotency_key="retry-me") == first
        finally:
            nn.close()
        recovered = FairNN.recover(tmp_path / "d")
        try:
            # The ack was lost in the crash; the client retries the same key
            # and gets the original slots, not a second insert.
            assert recovered.insert_many(extra, idempotency_key="retry-me") == first
            assert recovered.num_live_points == len(dataset) + len(extra)
        finally:
            recovered.close()

    def test_delete_idempotency_key(self, tmp_path):
        nn = FairNN.from_spec(_spec()).serve(
            _dataset(), data_dir=tmp_path / "d", fsync="off"
        )
        try:
            before = nn.num_live_points
            nn.delete(3, idempotency_key="del-3")
            nn.delete(3, idempotency_key="del-3")  # deduped, no AlreadyDeleted
            assert nn.num_live_points == before - 1
        finally:
            nn.close()

    def test_doomed_delete_is_never_journaled(self, tmp_path):
        dataset = _dataset()
        nn = FairNN.from_spec(_spec()).serve(
            dataset, data_dir=tmp_path / "d", fsync="off"
        )
        try:
            journaled = nn.wal.appended_records
            with pytest.raises(repro.SlotOutOfRangeError):
                nn.delete(10_000)
            nn.delete(0)
            with pytest.raises(repro.AlreadyDeletedError):
                nn.delete(0)
            assert nn.wal.appended_records == journaled + 1  # only the valid one
        finally:
            nn.close()

    def test_checkpoint_truncates_and_rotates(self, tmp_path):
        dataset = _dataset()
        pool = _dataset(seed=42, n=10)
        nn = FairNN.from_spec(_spec()).serve(
            dataset, data_dir=tmp_path / "d", fsync="off"
        )
        try:
            _apply(nn, _gen_ops(np.random.default_rng(0), pool, 6, len(dataset)))
            nn.checkpoint()
            nn.insert_many(pool[:4])
            nn.checkpoint()
            report = nn.durability()
            assert report["durable"] is True
            assert report["wal_fsync"] == "off"
            # Only the newest two checkpoints are kept.
            assert len(report["checkpoints"]) == 2
            live = nn.num_live_points
        finally:
            nn.close()
        recovered = FairNN.recover(tmp_path / "d")
        try:
            assert recovered.num_live_points == live
        finally:
            recovered.close()

    def test_mutations_after_a_checkpoint_on_a_recovered_facade_survive(self, tmp_path):
        """A checkpoint right after recovery covers, and removes, every WAL
        segment; the next process must journal past its position, or the
        recovery after it skips the new records."""
        dataset = _dataset()
        nn = FairNN.from_spec(_spec()).serve(dataset, data_dir=tmp_path / "d", fsync="off")
        nn.insert_many(dataset[:3])
        nn.delete(1)
        nn.close()
        recovered = FairNN.recover(tmp_path / "d")
        position = recovered.wal.next_seq
        recovered.checkpoint()
        recovered.close()
        assert not any((tmp_path / "d" / "wal").iterdir())

        restarted = FairNN.recover(tmp_path / "d")
        assert restarted.wal.next_seq == position
        restarted.insert_many(dataset[3:6])
        restarted.delete(2)
        live = restarted.num_live_points
        restarted.close()
        again = FairNN.recover(tmp_path / "d")
        try:
            assert again.durability()["recovered_records"] == 2
            assert again.num_live_points == live
        finally:
            again.close()

    def test_durability_reporting_without_data_dir(self):
        nn = FairNN.from_spec(_spec()).serve(_dataset())
        try:
            assert nn.durability()["durable"] is False
            assert nn.wal is None
            assert nn.data_dir is None
        finally:
            nn.close()


# ----------------------------------------------------------------------
# RNG-backed samplers: determinism of recovery itself
# ----------------------------------------------------------------------
class TestRNGSamplerRecovery:
    def test_two_recoveries_are_identical(self, tmp_path):
        """The query RNG is not journaled, so an RNG-backed sampler cannot
        promise byte-identity with an uninterrupted twin that also served
        queries — but recovery itself must be deterministic: recovering the
        same directory twice yields facades in the exact same state."""
        dataset = _dataset(seed=6)
        pool = _dataset(seed=1006, n=10)
        ops = _gen_ops(np.random.default_rng(3), pool, 8, len(dataset))
        nn = FairNN.from_spec(_spec(sampler="independent")).serve(
            dataset, data_dir=tmp_path / "d", fsync="off"
        )
        try:
            _apply(nn, ops[:5])
            nn.checkpoint()
            _apply(nn, ops[5:])
            nn.run(dataset[:4])  # consumes query RNG; not journaled, on purpose
        finally:
            nn.close()

        queries = dataset[:6] + pool[:2]
        first = FairNN.recover(tmp_path / "d")
        try:
            first_answers = [r.indices for r in first.run(
                [QueryRequest(query=q, k=3, replacement=True) for q in queries]
            )]
        finally:
            first.close()
        second = FairNN.recover(tmp_path / "d")
        try:
            second_answers = [r.indices for r in second.run(
                [QueryRequest(query=q, k=3, replacement=True) for q in queries]
            )]
        finally:
            second.close()
        assert first_answers == second_answers

    def test_rng_sampler_matches_reference_when_queries_follow_recovery(
        self, tmp_path
    ):
        """With no pre-crash queries, even an RNG-backed sampler recovers
        byte-identically: mutations are replayed from the journal and the
        query RNG stream starts from the persisted state."""
        dataset = _dataset(seed=8)
        pool = _dataset(seed=1008, n=10)
        ops = _gen_ops(np.random.default_rng(4), pool, 8, len(dataset))
        nn = FairNN.from_spec(_spec(sampler="independent")).serve(
            dataset, data_dir=tmp_path / "d", fsync="off"
        )
        try:
            _apply(nn, ops)
        finally:
            nn.close()
        recovered = FairNN.recover(tmp_path / "d")
        reference = FairNN.from_spec(_spec(sampler="independent")).serve(dataset)
        try:
            _apply(reference, ops)
            _assert_byte_identical(recovered, reference, dataset[:5])
        finally:
            recovered.close()
            reference.close()


# ----------------------------------------------------------------------
# Data directories from before checkpoints were written in format v5
# ----------------------------------------------------------------------
class TestLegacyCheckpoint:
    #: The Section 4 sampler the checked-in ``minhash-k2-v3`` snapshot holds.
    SPEC = SamplerSpec(
        "independent",
        {"radius": 0.45, "far_radius": 0.2, "num_hashes": 2, "num_tables": 8},
        lsh=LSHSpec("minhash"),
        seed=5,
    )

    def _v3_checkpoint(self, legacy_snapshot) -> Path:
        """The checked-in v3 snapshot, with the spec a FairNN checkpoint
        carries (``save_engine`` wrote it without one)."""
        snapshot = legacy_snapshot("minhash-k2-v3")
        manifest = json.loads((snapshot / "manifest.json").read_text())
        assert manifest["format_version"] == 3 and manifest["spec"] is None
        manifest.update(spec=self.SPEC.to_dict(), spec_kind="sampler")
        (snapshot / "manifest.json").write_text(json.dumps(manifest))
        return snapshot

    def test_v3_base_checkpoint_recovers_and_falls_back(self, tmp_path, legacy_snapshot):
        base = self._v3_checkpoint(legacy_snapshot)
        data_dir = tmp_path / "d"
        shutil.copytree(base, data_dir / "snapshots" / f"checkpoint-{0:020d}")
        (data_dir / "snapshots" / f"checkpoint-{0:020d}" / "wal_position.json").write_text(
            json.dumps({"next_seq": 0})
        )
        rng = np.random.default_rng(3)
        pool = [
            frozenset(range(6)) | {int(x) for x in rng.choice(range(6, 90), 5, replace=False)}
            for _ in range(8)
        ]
        ops = [("insert", pool[:3]), ("delete", 40), ("insert", pool[3:5]), ("delete", 157)]
        wal = WriteAheadLog.open(data_dir / "wal", fsync="off")
        for op, arg in ops:
            if op == "insert":
                wal.append({"op": "insert", "points": list(arg), "key": None})
            else:
                wal.append({"op": "delete", "index": arg, "key": None})
        wal.close()
        extra = pool[5:8]
        queries = pool[:2] + [frozenset(range(6)) | {40, 41, 42}]

        def answers(nn):
            return [(r.indices, r.value, r.stats) for r in nn.run(
                [QueryRequest(query=q, k=3, replacement=False) for q in queries]
            )]

        # The reference never crashed: the v3 snapshot plus the same mutations.
        reference = FairNN.load(base)
        _apply(reference, ops + [("insert", extra)])
        expected = answers(reference)

        recovered = FairNN.recover(data_dir)
        try:
            assert recovered.durability()["recovered_records"] == len(ops)
            recovered.insert_many(extra)  # journaled after the replayed suffix
            checkpoint = recovered.checkpoint()
            assert answers(recovered) == expected
        finally:
            recovered.close()
        manifest = json.loads((checkpoint / "manifest.json").read_text())
        assert manifest["format_version"] == 5
        assert (checkpoint / "arrays" / "dataset__items.npy").exists()

        from_v5 = FairNN.recover(data_dir)
        try:
            assert from_v5.durability()["recovered_records"] == 0
            assert answers(from_v5) == expected
        finally:
            from_v5.close()

        (checkpoint / "arrays" / "t0_indices.npy").unlink()
        fallback = FairNN.recover(data_dir)
        try:
            # Back on the v3 checkpoint: the whole journal is replayed.
            assert fallback.durability()["recovered_records"] == len(ops) + 1
            assert answers(fallback) == expected
        finally:
            fallback.close()
