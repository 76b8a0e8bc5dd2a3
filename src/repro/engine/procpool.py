"""Process-parallel shard workers over shared memory.

:class:`ProcessShardedEngine` promotes :class:`~repro.engine.sharded.
ShardedEngine`'s thread-pool shards to worker **processes**, the pooled-memory
-pod shape: one authoritative index in the parent, per-shard replicas in
workers that read the dataset's columnar buffers zero-copy through
``multiprocessing.shared_memory`` (:meth:`DatasetStore.to_shared
<repro.store.base.DatasetStore.to_shared>`), and a small length-prefixed
message protocol carrying query batches, mutation deltas and raw-bucket
manifests between them.

**Coordinator/replica split.**  The parent keeps the full
:class:`~repro.engine.sharded.ShardedLSHTables` — construction, placement,
the global rank stream, snapshots and any local fallback all stay
authoritative and byte-identical to thread-pool serving.  Each worker holds a
replica of exactly one shard's :class:`~repro.engine.dynamic.DynamicLSHTables`
and serves two read operations: bounded rank-prefix gathers (``QUERY``) and
raw per-shard bucket fetches (``BUCKETS``, the merged-view priming feed).
Mutations are applied parent-side first and then *replicated*: the tables'
shard-op listener ships every ``insert`` / ``delete`` / ``compact`` — with
the parent-drawn ranks — as a fire-and-forget ``MUTATE`` frame, so replica
buckets evolve bit-identically (shard-local self-compaction triggers from
identical thresholds).

**Why answers stay byte-identical.**  Worker gathers run the exact shared
per-shard computation (:func:`repro.engine.gather.bounded_shard_prefix` —
the same function :meth:`ShardedLSHTables.colliding_view
<repro.lsh.tables.LSHTables.colliding_view>` runs locally)
and the parent merges them with the shared boundary/cut/sort code
(:func:`repro.engine.gather.merge_prefix_parts`), so every gathered view is
a *true rank prefix* of the full colliding view.  Prefix-certifying
samplers (:meth:`~repro.core.base.LSHNeighborSampler.
sample_detailed_from_prefix` / :meth:`~repro.core.base.LSHNeighborSampler.
sample_k_from_prefix`) refuse to answer unless their scan provably fits the
prefix — therefore *any* true prefix that certifies yields the same result
and the same per-query counters, whatever gather budget produced it.  The
whole prefix/certify/escalate loop, including the self-tuning budget
controller, lives in :class:`~repro.engine.batch.BatchQueryEngine` and
:mod:`repro.engine.gather`; this engine only overrides *where* gathers and
bucket fetches execute.  Non-prefix work (multi-draw requests of samplers
without a k-aware prefix form, samplers without prefix support) runs on the
parent against merged buckets primed from worker ``BUCKETS`` replies via
the exact :class:`~repro.engine.sharded._MergedTableView` merge recipe —
and the parent's authoritative shards remain the fallback for anything
unprimed.

**Supervision.**  A :class:`WorkerSupervisor` owns worker lifecycle: each
worker is spawned from a *baseline* (a pickled snapshot of its shard) plus a
sequence-numbered mutation log.  Health is checked on every exchange — a
dead socket, an EOF or a reply timeout (hung worker) marks the worker
crashed.  The supervisor then restarts it from the baseline, replays the
logged mutations (counted in ``EngineStats.mutations_replayed``), and fails
the in-flight request with a typed
:class:`~repro.exceptions.WorkerCrashedError` instead of hanging — the
*next* request is served normally.  Crashes during mutation replication are
swallowed entirely (the parent is the source of truth; replay covers the
op).  :class:`FaultPlan` injects deterministic crashes for the fault tests.
"""

from __future__ import annotations

import gc
import os
import pickle
import signal
import socket
import struct
import threading
import time
import weakref
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import multiprocessing
import numpy as np

from repro.engine.batch import build_tables
from repro.engine.dynamic import DynamicLSHTables, MutationDelta
from repro.engine.gather import (
    PrefixView,
    bounded_shard_prefix,
    merge_prefix_parts,
    split_budget,
)
from repro.engine.sharded import _MERGED_CACHE_LIMIT, ShardedEngine, ShardedLSHTables
from repro.store import DatasetStore
from repro.exceptions import WorkerCrashedError
from repro.lsh.tables import Bucket
from repro.testing.faults import FaultPlan

__all__ = ["FaultPlan", "ProcessShardedEngine", "WorkerSupervisor"]

#: Mutations logged per worker before the supervisor re-baselines (re-pickles
#: the parent shard and truncates the log) so restart replay stays bounded.
_CHECKPOINT_EVERY = 192

#: How long a hang-mode fault sleeps; must exceed any test reply timeout.
_HANG_SECONDS = 60.0


# FaultPlan moved to repro.testing.faults in the durability PR so the chaos
# machinery is reusable outside the process engine; re-exported above for
# backward compatibility (``from repro.engine.procpool import FaultPlan``
# keeps working).

# ----------------------------------------------------------------------
# Length-prefixed pickle frames
# ----------------------------------------------------------------------
class _WorkerGone(Exception):
    """Internal: the peer socket is dead (EOF / reset / timeout)."""


def _send_payload(sock: socket.socket, payload: bytes) -> int:
    try:
        sock.sendall(struct.pack(">I", len(payload)) + payload)
    except (BrokenPipeError, ConnectionResetError, OSError) as exc:
        raise _WorkerGone(str(exc)) from exc
    return 4 + len(payload)


def _send_frame(sock: socket.socket, payload_obj) -> int:
    return _send_payload(
        sock, pickle.dumps(payload_obj, protocol=pickle.HIGHEST_PROTOCOL)
    )


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    chunks = []
    while count:
        try:
            chunk = sock.recv(count)
        except socket.timeout as exc:
            raise _WorkerGone("reply timeout") from exc
        except (ConnectionResetError, OSError) as exc:
            raise _WorkerGone(str(exc)) from exc
        if not chunk:
            raise _WorkerGone("connection closed")
        chunks.append(chunk)
        count -= len(chunk)
    return b"".join(chunks)


def _recv_frame(sock: socket.socket) -> Tuple[object, int]:
    header = _recv_exact(sock, 4)
    (length,) = struct.unpack(">I", header)
    payload = _recv_exact(sock, length)
    return pickle.loads(payload), 4 + length


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------
def _shard_baseline(shard: DynamicLSHTables) -> bytes:
    """Pickle a restartable snapshot of *shard* (the worker's birth state).

    The clone drops everything a replica rebuilds or never needs: the batch
    hasher is reconstructed from the (pickled) hash functions in the worker
    — mirroring the snapshot layer, which never pickles it — the key cache
    starts empty, the columnar store is marked inapplicable (bucket gathers
    never dereference points; mutation payloads carry their own points), and
    the point container is reduced to placeholders of the right length so
    ``delete``/``compact`` bookkeeping stays index-correct — except the
    pending tombstones, which a compaction sweep hashes.  Unconsumed
    delta state is dropped: replicas discard their delta after every applied
    op, so a baseline must not resurrect one.
    """
    clone = DynamicLSHTables.__new__(DynamicLSHTables)
    clone.__dict__.update(shard.__dict__)
    clone._batch_hasher = None
    clone._key_cache = {}
    clone.key_cache_hits = 0
    clone._store = False
    clone._points = [None] * len(shard._points)
    for index in shard._pending:
        clone._points[index] = shard._points[index]
    clone._pending = set(shard._pending)
    clone._delta = MutationDelta.empty(shard.l, start_epoch=shard.mutation_epoch)
    clone._unresolved_deletes = []
    clone._unresolved_inserts = []
    return pickle.dumps(clone, protocol=pickle.HIGHEST_PROTOCOL)


def _revive_shard(shard: DynamicLSHTables) -> None:
    shard._batch_hasher = shard.family.make_batch_hasher(shard._functions)


def _apply_op(shard: DynamicLSHTables, op: str, args: tuple) -> None:
    """Re-apply one parent-side shard op on the replica, bit-identically.

    Ranks always arrive from the parent's global stream (never redrawn), a
    ``delete`` brings its point (baseline slots are ``None`` placeholders,
    and a compaction sweep hashes the pending points), and the delta record
    is discarded after every op — replicas have no delta consumers.
    """
    if op == "insert":
        points, ranks, was_fit = args
        if was_fit:
            shard.fit(points, ranks=ranks)
        else:
            shard.insert_many(points, ranks=ranks)
    elif op == "delete":
        local_index, point = args
        shard._points[local_index] = point
        shard.delete(local_index)
    elif op == "compact":
        shard.compact()
    else:  # pragma: no cover - protocol error
        raise ValueError(f"unknown shard op {op!r}")
    shard.discard_delta()


# The per-shard bounded gather itself lives in repro.engine.gather
# (bounded_shard_prefix) — shared verbatim with the thread executor's local
# colliding_view, so worker replies are byte-identical to local parts
# by construction.


def _pack_query_reply(parts: List[Optional[tuple]], with_tables: bool = False) -> dict:
    """Pack per-query gather parts into a few flat arrays for the wire.

    A 300-query reply would otherwise pickle ~600 small ndarrays; packing
    them into one ``indices`` and one ``ranks`` array (plus a per-query
    ``sizes`` vector, ``-1`` marking a ``None`` part) makes the reply two
    big buffer copies.  ``boundaries`` stays a plain list — it is small and
    mixes ``None`` with ints.  With *with_tables* (gathers for samplers that
    replay a per-bucket scan) the reply also carries the concatenated
    per-reference ``table_ids`` (sliced exactly like ``ranks``) and one
    ``(l,)`` row of full per-table bucket sizes per non-``None`` part,
    stacked in part order.
    """
    sizes = np.empty(len(parts), dtype=np.int64)
    boundaries: List[Optional[int]] = [None] * len(parts)
    rank_chunks: List[np.ndarray] = []
    index_chunks: List[np.ndarray] = []
    tid_chunks: List[np.ndarray] = []
    size_rows: List[np.ndarray] = []
    for position, part in enumerate(parts):
        if part is None:
            sizes[position] = -1
            continue
        locals_, ranks, boundary = part[0], part[1], part[2]
        sizes[position] = ranks.size
        boundaries[position] = boundary
        rank_chunks.append(ranks)
        index_chunks.append(locals_)
        if with_tables:
            tid_chunks.append(part[3])
            size_rows.append(part[4])
    reply = {
        "type": "QUERY_OK",
        "sizes": sizes,
        "boundaries": boundaries,
        "ranks": (
            np.concatenate(rank_chunks) if rank_chunks else np.empty(0, dtype=np.int64)
        ),
        "indices": (
            np.concatenate(index_chunks) if index_chunks else np.empty(0, dtype=np.intp)
        ),
    }
    if with_tables:
        reply["table_ids"] = (
            np.concatenate(tid_chunks) if tid_chunks else np.empty(0, dtype=np.int64)
        )
        reply["table_sizes"] = (
            np.stack(size_rows) if size_rows else np.empty((0, 0), dtype=np.int64)
        )
    return reply


def _unpack_query_reply(reply: dict) -> List[Optional[tuple]]:
    """Invert :func:`_pack_query_reply` into per-query part views.

    The slices are views over the big reply arrays — no copies; the
    downstream merge concatenates them into fresh arrays anyway.  Table
    metadata, when present, is re-attached: ``table_ids`` slices like
    ``ranks``, and the stacked ``table_sizes`` rows are consumed in
    non-``None`` part order.
    """
    sizes = reply["sizes"]
    boundaries = reply["boundaries"]
    lengths = np.maximum(sizes, 0)
    ends = np.cumsum(lengths)
    starts = ends - lengths
    ranks = reply["ranks"]
    indices = reply["indices"]
    table_ids = reply.get("table_ids")
    if table_ids is None:
        return [
            None
            if sizes[position] < 0
            else (
                indices[starts[position] : ends[position]],
                ranks[starts[position] : ends[position]],
                boundaries[position],
            )
            for position in range(len(sizes))
        ]
    table_sizes = reply["table_sizes"]
    parts: List[Optional[tuple]] = []
    row = 0
    for position in range(len(sizes)):
        if sizes[position] < 0:
            parts.append(None)
            continue
        parts.append(
            (
                indices[starts[position] : ends[position]],
                ranks[starts[position] : ends[position]],
                boundaries[position],
                table_ids[starts[position] : ends[position]],
                table_sizes[row],
            )
        )
        row += 1
    return parts


def _fault_due(plan: Optional[FaultPlan], queries: int, mutations: int) -> bool:
    if plan is None:
        return False
    if plan.kill_after_queries is not None and queries >= plan.kill_after_queries:
        return True
    if plan.kill_after_mutations is not None and mutations >= plan.kill_after_mutations:
        return True
    return False


def _run_fault(plan: FaultPlan) -> None:
    if plan.mode == "hang":
        time.sleep(_HANG_SECONDS)
        return
    if plan.mode == "exit":
        os._exit(17)
    os.kill(os.getpid(), signal.SIGKILL)


def _worker_main(
    conn: socket.socket, shard_index: int, parent_conn: Optional[socket.socket] = None
) -> None:
    """Entry point of one shard worker process (fork-started).

    Receives ``INIT`` (baseline pickle + shared-store descriptor), then
    serves frames until ``SHUTDOWN`` or EOF — EOF covers parent death, so
    workers can never outlive their coordinator.  The shared store is
    attached (and only ever closed, never unlinked: segment lifetime belongs
    to the parent) purely as the zero-copy dataset view; replica bucket
    state evolves from the mutation stream alone.
    """
    # fork copies every fd, including the parent side of this very
    # socketpair — if the child kept it, it would hold its own EOF open and
    # outlive a crashed coordinator.  Close it before anything else.
    if parent_conn is not None:
        parent_conn.close()
    store = None
    try:
        init, _ = _recv_frame(conn)
        shard: DynamicLSHTables = pickle.loads(init["baseline"])
        _revive_shard(shard)
        if init.get("store") is not None:
            store = DatasetStore.from_shared(init["store"])
        fault: Optional[FaultPlan] = init.get("fault")
        queries_served = 0
        mutations_applied = 0
        _send_frame(
            conn,
            {
                "type": "INIT_OK",
                "shard_index": shard_index,
                "store_rows": None if store is None else len(store),
            },
        )
        while True:
            try:
                frame, _ = _recv_frame(conn)
            except _WorkerGone:
                break
            ftype = frame["type"]
            if ftype == "QUERY":
                queries_served += 1
                if _fault_due(fault, queries_served, -1):
                    active, fault = fault, None
                    _run_fault(active)
                with_tables = frame.get("with_tables", False)
                parts = [
                    bounded_shard_prefix(shard, keys, limit, with_tables=with_tables)
                    if shard._fitted
                    else None
                    for keys, limit in frame["queries"]
                ]
                _send_frame(conn, _pack_query_reply(parts, with_tables=with_tables))
            elif ftype == "BUCKETS":
                buckets = []
                if shard._fitted:
                    for position, (table_index, key) in enumerate(frame["jobs"]):
                        bucket = shard._tables[table_index].get(key)
                        if bucket is not None and bucket.indices.size:
                            buckets.append((position, bucket.indices, bucket.ranks))
                _send_frame(conn, {"type": "BUCKETS_OK", "buckets": buckets})
            elif ftype == "MUTATE":
                _apply_op(shard, frame["op"], frame["args"])
                mutations_applied += 1
                if _fault_due(fault, -1, mutations_applied):
                    active, fault = fault, None
                    _run_fault(active)
            elif ftype == "FAULT":
                fault = frame["plan"]
                queries_served = 0
                mutations_applied = 0
                _send_frame(conn, {"type": "FAULT_OK"})
            elif ftype == "PING":
                _send_frame(
                    conn, {"type": "PONG", "mutations_applied": mutations_applied}
                )
            elif ftype == "SHUTDOWN":
                _send_frame(conn, {"type": "BYE"})
                break
    except _WorkerGone:
        pass
    finally:
        try:
            conn.close()
        except OSError:
            pass
        if store is not None:
            store.detach()


# ----------------------------------------------------------------------
# Supervisor
# ----------------------------------------------------------------------
class _Worker:
    __slots__ = ("process", "conn")

    def __init__(self, process, conn):
        self.process = process
        self.conn = conn


class WorkerSupervisor:
    """Owns the shard worker fleet: spawn, health, restart, replay.

    One worker per shard, spawned from a pickled *baseline* of that shard
    plus the shared-store descriptor.  Every mutation replicated to a worker
    is also appended to its sequence log; when a worker dies (socket EOF,
    reset, or a reply timeout on a hung process) the supervisor respawns it
    from the baseline and replays the log, so the replica provably re-reaches
    the parent shard's exact state.  Logs are truncated by periodic
    re-baselining (every :data:`_CHECKPOINT_EVERY` ops) so replay cost stays
    bounded.  All counters (restarts, replayed ops, IPC bytes) feed
    :class:`~repro.engine.requests.EngineStats`.
    """

    def __init__(
        self,
        tables: ShardedLSHTables,
        reply_timeout: float = 30.0,
        fault_injector=None,
    ):
        self._tables = tables
        self.reply_timeout = float(reply_timeout)
        #: Optional :class:`repro.testing.faults.FaultInjector`; fires the
        #: ``"proc.send"``/``"proc.recv"`` sites around every frame so chaos
        #: tests can delay or drop IPC traffic (an injected ``OSError``
        #: becomes a worker-crash signal, like a real dead socket).
        self.fault_injector = fault_injector
        try:
            self._ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-posix fallback
            self._ctx = multiprocessing.get_context()
        self._workers: List[Optional[_Worker]] = [None] * tables.n_shards
        self._baselines: List[Optional[bytes]] = [None] * tables.n_shards
        self._logs: List[List[Tuple[str, tuple]]] = [[] for _ in range(tables.n_shards)]
        self._fault_plans: Dict[int, FaultPlan] = {}
        self._store_export = None
        self._store_descriptor = None
        # One lock serializes all frame traffic: request/reply rounds must
        # not interleave with each other or with mutation replication
        # (frames are ordered per socket, but two senders could interleave
        # mid-round).  RLock because a crash handler restarts workers while
        # the round that detected the crash still holds the lock.
        self._lock = threading.RLock()
        self._started = False
        self._shutdown_done = False
        self.worker_restarts = 0
        self.mutations_replayed = 0
        self.ipc_bytes_sent = 0
        self.ipc_bytes_received = 0

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Export the shared store and spawn one worker per shard."""
        with self._lock:
            if self._started:
                return
            self._started = True
            store = self._tables.point_store
            if store is not None:
                self._store_export = store.to_shared()
                self._store_descriptor = self._store_export.descriptor
            for shard_index in range(self._tables.n_shards):
                self._baselines[shard_index] = _shard_baseline(
                    self._tables.shards[shard_index]
                )
                self._spawn(shard_index)

    def _spawn(self, shard_index: int) -> None:
        parent_conn, child_conn = socket.socketpair()
        process = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, shard_index, parent_conn),
            daemon=True,
            name=f"repro-procshard-{shard_index}",
        )
        # Freeze the parent heap across the fork: the child inherits every
        # tracked object in its GC generations, and the first collections in
        # the worker would touch every inherited GC header — copy-on-write
        # faulting most of a large parent heap into each worker.  Freezing
        # moves the inherited objects to the permanent generation (exempt
        # from worker GC); unfreeze restores the parent, whose pages it
        # already owns.
        gc.freeze()
        try:
            process.start()
        finally:
            gc.unfreeze()
        child_conn.close()
        parent_conn.settimeout(self.reply_timeout)
        self._workers[shard_index] = _Worker(process, parent_conn)
        self._request(
            shard_index,
            {
                "type": "INIT",
                "baseline": self._baselines[shard_index],
                "store": self._store_descriptor,
                "fault": None,
            },
        )

    # ------------------------------------------------------------------
    # Framed exchanges
    # ------------------------------------------------------------------
    def _fire(self, site: str) -> None:
        if self.fault_injector is not None:
            try:
                self.fault_injector.fire(site)
            except OSError as exc:
                raise _WorkerGone(f"injected fault at {site}: {exc}") from exc

    def _send(self, shard_index: int, frame) -> None:
        worker = self._workers[shard_index]
        if worker is None:
            raise _WorkerGone(f"shard {shard_index} has no worker")
        self._fire("proc.send")
        self.ipc_bytes_sent += _send_frame(worker.conn, frame)

    def _recv(self, shard_index: int):
        worker = self._workers[shard_index]
        if worker is None:
            raise _WorkerGone(f"shard {shard_index} has no worker")
        self._fire("proc.recv")
        try:
            reply, nbytes = _recv_frame(worker.conn)
        except _WorkerGone:
            # A silent worker may be hung rather than dead (the hang fault,
            # a wedged syscall): make the state unambiguous before restart.
            if worker.process.is_alive():
                worker.process.kill()
            raise
        self.ipc_bytes_received += nbytes
        return reply

    def _request(self, shard_index: int, frame):
        with self._lock:
            self._send(shard_index, frame)
            return self._recv(shard_index)

    def gather_round(self, shard_indices: Sequence[int], frame) -> Dict[int, dict]:
        """One synchronized request/reply round against several workers.

        Sends *frame* to every listed worker, then collects every reply.  If
        any worker dies mid-round the round still *drains* the surviving
        workers' replies (keeping each socket strictly in request/reply
        lockstep), restarts every dead worker from baseline + replay, and
        raises :class:`~repro.exceptions.WorkerCrashedError` for the
        in-flight request.  The engine is healthy again when this raises.
        """
        with self._lock:
            # The frame is identical for every worker: pickle it once and
            # broadcast the bytes instead of re-serializing per shard.
            payload = pickle.dumps(frame, protocol=pickle.HIGHEST_PROTOCOL)
            sent: List[int] = []
            dead: List[int] = []
            for shard_index in shard_indices:
                worker = self._workers[shard_index]
                try:
                    if worker is None:
                        raise _WorkerGone(f"shard {shard_index} has no worker")
                    self._fire("proc.send")
                    self.ipc_bytes_sent += _send_payload(worker.conn, payload)
                    sent.append(shard_index)
                except _WorkerGone:
                    dead.append(shard_index)
            replies: Dict[int, dict] = {}
            for shard_index in sent:
                try:
                    replies[shard_index] = self._recv(shard_index)
                except _WorkerGone:
                    dead.append(shard_index)
            if dead:
                restarts = 0
                for shard_index in dead:
                    self._restart(shard_index)
                    restarts += 1
                raise WorkerCrashedError(
                    f"shard worker{'s' if len(dead) > 1 else ''} "
                    f"{sorted(dead)} died mid-batch; restarted from baseline "
                    f"with mutations replayed — retry the request",
                    shard_index=dead[0] if len(dead) == 1 else None,
                    restarts=restarts,
                )
            return replies

    # ------------------------------------------------------------------
    # Mutation replication
    # ------------------------------------------------------------------
    def record_mutation(self, shard_index: int, op: str, args: tuple) -> None:
        """Log one shard op and replicate it (fire-and-forget).

        Called synchronously by the tables' shard-op listener, after the op
        landed in the authoritative parent shard.  A crash detected here is
        swallowed: the parent state is already correct, the op is in the log,
        and the restart's replay delivers it — the *mutation* must not fail
        because a replica died.
        """
        with self._lock:
            log = self._logs[shard_index]
            log.append((op, args))
            try:
                self._send(shard_index, {"type": "MUTATE", "op": op, "args": args})
            except _WorkerGone:
                self._restart(shard_index)
                return
            if len(log) >= _CHECKPOINT_EVERY:
                # The parent shard already reflects every logged op, so a
                # fresh baseline + empty log is the same replica state.
                self._baselines[shard_index] = _shard_baseline(
                    self._tables.shards[shard_index]
                )
                log.clear()

    # ------------------------------------------------------------------
    # Restart / health
    # ------------------------------------------------------------------
    def _restart(self, shard_index: int) -> None:
        with self._lock:
            self._reap(shard_index)
            # Fault plans are one-shot: handling the crash consumes the plan
            # so the restarted worker is not re-armed.
            self._fault_plans.pop(shard_index, None)
            self.worker_restarts += 1
            self._spawn(shard_index)
            log = self._logs[shard_index]
            for op, args in log:
                self._send(shard_index, {"type": "MUTATE", "op": op, "args": args})
            self.mutations_replayed += len(log)

    def _reap(self, shard_index: int) -> None:
        worker = self._workers[shard_index]
        if worker is None:
            return
        self._workers[shard_index] = None
        try:
            worker.conn.close()
        except OSError:
            pass
        process = worker.process
        process.join(timeout=1.0)
        if process.is_alive():
            process.terminate()
            process.join(timeout=1.0)
        if process.is_alive():  # pragma: no cover - terminate always lands here
            process.kill()
            process.join(timeout=1.0)
        process.close()

    def health_check(self) -> Dict[int, bool]:
        """Ping every worker; restart the dead ones.  Returns pre-restart health."""
        health: Dict[int, bool] = {}
        with self._lock:
            for shard_index in range(len(self._workers)):
                try:
                    reply = self._request(shard_index, {"type": "PING"})
                    health[shard_index] = reply.get("type") == "PONG"
                except _WorkerGone:
                    health[shard_index] = False
                    self._restart(shard_index)
        return health

    def inject_fault(self, plan: FaultPlan) -> None:
        """Install *plan* on every matching worker (test instrumentation)."""
        with self._lock:
            for shard_index in range(len(self._workers)):
                if plan.matches(shard_index):
                    self._fault_plans[shard_index] = plan
                    self._request(shard_index, {"type": "FAULT", "plan": plan})

    def worker_pids(self) -> List[Optional[int]]:
        """The live workers' PIDs (``None`` for a reaped slot)."""
        return [
            None if worker is None else worker.process.pid for worker in self._workers
        ]

    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        """Stop every worker and unlink the shared segments (idempotent)."""
        with self._lock:
            if self._shutdown_done:
                return
            self._shutdown_done = True
            for shard_index, worker in enumerate(self._workers):
                if worker is None:
                    continue
                try:
                    self._send(shard_index, {"type": "SHUTDOWN"})
                    self._recv(shard_index)
                except _WorkerGone:
                    pass
                self._reap(shard_index)
            if self._store_export is not None:
                self._store_export.unlink()
                self._store_export = None


def _finalize_supervisor(supervisor: WorkerSupervisor) -> None:
    # weakref.finalize target: must not reference the engine.  Registered at
    # engine construction, so it runs at interpreter exit *before*
    # multiprocessing's own atexit hook (LIFO), while workers can still be
    # joined and segments unlinked cleanly.
    supervisor.shutdown()


# ----------------------------------------------------------------------
# Engine
# ----------------------------------------------------------------------
class ProcessShardedEngine(ShardedEngine):
    """Batched query execution with each shard replicated in a worker process.

    Drop-in for :class:`~repro.engine.sharded.ShardedEngine` (select it with
    ``EngineSpec(executor="process")`` / ``FairNN.serve(executor="process")``)
    with the same byte-identity guarantee: responses — indices, values and
    per-query work counters — match unsharded :class:`~repro.engine.batch.
    BatchQueryEngine` serving exactly, at every shard count, for every
    registered sampler, through churn and through worker crashes.

    Request flow per batch: prefix-eligible queries are gathered in **one**
    ``QUERY`` round trip per worker (the whole batch in one frame — IPC cost
    amortizes across the batch) and certified by the *shared*
    prefix/certify/escalate loop of :class:`~repro.engine.batch.
    BatchQueryEngine` — shared widened rounds for RNG-free samplers, serial
    batch-order answering otherwise, the same
    :class:`~repro.engine.gather.PrefixBudgetController` tuning the opening
    budget.  Everything else answers on the parent from merged buckets
    primed via ``BUCKETS`` rounds.  A worker crash mid-batch raises
    :class:`~repro.exceptions.WorkerCrashedError` after the supervisor has
    already restarted and replayed — the engine is immediately serviceable.

    Because any certifying true rank prefix yields identical bytes (see the
    module docstring), sharing the budget controller costs nothing in
    output: both executors open every batch at the same tuned budget and
    produce the same budget sequence for the same batch stream — only
    *where* the bounded gather executes differs.
    """

    #: Non-prefix deterministic queries answer serially on the parent:
    #: merged buckets are already primed via worker rounds, and the serial
    #: loop beats thread-chunk scheduling overhead.
    _parallel_fallback = False

    def __init__(
        self,
        sampler,
        batch_hashing: bool = True,
        coalesce_duplicates: bool = True,
        sampler_name: Optional[str] = None,
        spec=None,
        max_workers: Optional[int] = None,
        reply_timeout: float = 30.0,
        fault_injector=None,
        prefix_budget: Optional[int] = None,
        prefix_budget_cap: Optional[int] = None,
    ):
        super().__init__(
            sampler,
            batch_hashing=batch_hashing,
            coalesce_duplicates=coalesce_duplicates,
            sampler_name=sampler_name,
            spec=spec,
            max_workers=max_workers,
            prefix_budget=prefix_budget,
            prefix_budget_cap=prefix_budget_cap,
        )
        tables: ShardedLSHTables = self.tables
        # Build the columnar store before export so workers attach the same
        # buffers the parent serves from.
        tables.point_store
        self._supervisor = WorkerSupervisor(
            tables, reply_timeout=reply_timeout, fault_injector=fault_injector
        )
        self._synced_worker_counters = {
            "worker_restarts": 0,
            "mutations_replayed": 0,
            "ipc_bytes_sent": 0,
            "ipc_bytes_received": 0,
        }
        self._supervisor.start()
        self._shard_op_listener = self._supervisor.record_mutation
        tables.add_shard_op_listener(self._shard_op_listener)
        # Interpreter-exit safety net: reap workers and unlink segments even
        # if close() is never called.  close() runs the same callable (it
        # fires at most once).
        self._finalizer = weakref.finalize(
            self, _finalize_supervisor, self._supervisor
        )

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        sampler,
        dataset,
        n_shards: int = 2,
        placement: str = "round_robin",
        max_tombstone_fraction: float = 0.25,
        seed=None,
        max_workers: Optional[int] = None,
        reply_timeout: float = 30.0,
    ) -> "ProcessShardedEngine":
        """Build sharded tables and wrap them in a process-executor engine.

        Parameters resolve exactly as :meth:`ShardedEngine.build
        <repro.engine.sharded.ShardedEngine.build>`; *reply_timeout* bounds
        how long the supervisor waits on a silent worker before declaring it
        crashed.
        """
        tables, bound_dataset = build_tables(
            sampler,
            dataset,
            dynamic=True,
            max_tombstone_fraction=max_tombstone_fraction,
            seed=seed,
            n_shards=n_shards,
            placement=placement,
        )
        sampler.attach(tables, bound_dataset)
        return cls(sampler, max_workers=max_workers, reply_timeout=reply_timeout)

    # ------------------------------------------------------------------
    @property
    def supervisor(self) -> WorkerSupervisor:
        """The worker supervisor (restart/replay/IPC accounting)."""
        return self._supervisor

    def inject_fault(self, plan: FaultPlan) -> None:
        """Arm a :class:`FaultPlan` on the matching workers (tests only)."""
        self._supervisor.inject_fault(plan)

    def _sync_worker_stats(self) -> None:
        # Fold supervisor counters into EngineStats as *deltas* since the
        # last sync: snapshot restore replaces ``engine.stats`` wholesale
        # after construction, and an absolute copy would clobber the
        # restored lifetime counters.
        supervisor = self._supervisor
        with self._stats_lock:
            for stats_field, supervisor_field in (
                ("worker_restarts", "worker_restarts"),
                ("mutations_replayed", "mutations_replayed"),
                ("ipc_bytes_sent", "ipc_bytes_sent"),
                ("ipc_bytes_received", "ipc_bytes_received"),
            ):
                current = getattr(supervisor, supervisor_field)
                delta = current - self._synced_worker_counters[stats_field]
                if delta:
                    setattr(
                        self.stats,
                        stats_field,
                        getattr(self.stats, stats_field) + delta,
                    )
                    self._synced_worker_counters[stats_field] = current

    def stats_dict(self) -> Dict:
        self._sync_worker_stats()
        payload = super().stats_dict()
        payload["executor"] = "process"
        payload["worker_pids"] = self._supervisor.worker_pids()
        return payload

    def _shutdown(self) -> None:
        self.tables.remove_shard_op_listener(self._shard_op_listener)
        self._finalizer()  # runs the supervisor shutdown exactly once
        super()._shutdown()

    # ------------------------------------------------------------------
    # Worker-backed gathering
    # ------------------------------------------------------------------
    def _gather_prefixes(
        self,
        positions: Sequence[int],
        keys_per_query,
        limit: int,
    ) -> Dict[int, PrefixView]:
        """One ``QUERY`` round gathering rank prefixes at global budget *limit*.

        The worker-backed override of :meth:`BatchQueryEngine._gather_prefixes
        <repro.engine.batch.BatchQueryEngine._gather_prefixes>`: the same
        :func:`~repro.engine.gather.split_budget` split across fitted shards
        (each worker surfaces its bottom-``limit/n`` by rank via the shared
        :func:`~repro.engine.gather.bounded_shard_prefix`), one broadcast
        frame per round, and the shared
        :func:`~repro.engine.gather.merge_prefix_parts` merge — so the
        merged views are byte-identical to locally gathered ones.  A skewed
        shard can truncate early and force an escalation, but the boundary
        cut keeps every returned view a provably exact global rank prefix
        at any split.
        """
        tables: ShardedLSHTables = self.tables
        fitted = tables._fitted_shards()
        with_tables = getattr(self.sampler, "prefix_scan_needs_tables", False)
        views: Dict[int, PrefixView] = {}
        if not fitted:
            empty = PrefixView.empty(tables.l if with_tables else None)
            return {position: empty for position in positions}
        per_shard = split_budget(limit, len(fitted))
        frame = {
            "type": "QUERY",
            "queries": [(list(keys_per_query[p]), per_shard) for p in positions],
            "with_tables": with_tables,
        }
        replies = self._supervisor.gather_round(fitted, frame)
        parts_by_shard = {
            shard_index: _unpack_query_reply(replies[shard_index])
            for shard_index in fitted
        }
        for offset, position in enumerate(positions):
            shard_parts = [
                (shard_index, parts_by_shard[shard_index][offset])
                for shard_index in fitted
                if parts_by_shard[shard_index][offset] is not None
            ]
            views[position] = merge_prefix_parts(
                shard_parts,
                tables._shard_globals,
                num_tables=tables.l if with_tables else None,
            )
        return views

    def _prime_via_workers(self, keys_per_query: Sequence[List[Hashable]]) -> None:
        """Materialize merged buckets from worker ``BUCKETS`` replies.

        The exact :class:`~repro.engine.sharded._MergedTableView` recipe —
        dedup the batch's (table, key) pairs, skip cached ones, collect raw
        per-shard buckets in shard order, translate locals to globals,
        single-part buckets keep their order, multi-part re-sort stably by
        rank — so cached merged buckets (and the ``shard_merges`` counter)
        are indistinguishable from locally merged ones.
        """
        tables: ShardedLSHTables = self.tables
        needed: List[set] = [set() for _ in range(tables.l)]
        for keys in keys_per_query:
            for table_index, key in enumerate(keys):
                needed[table_index].add(key)
        jobs: List[Tuple[int, Hashable]] = []
        views = []
        for table_index, view in enumerate(tables._tables):
            view._refresh_epoch()
            views.append(view)
            jobs.extend(
                (table_index, key)
                for key in needed[table_index]
                if key not in view._cache
            )
        if not jobs:
            return
        fitted = tables._fitted_shards()
        if not fitted:
            return
        replies = self._supervisor.gather_round(fitted, {"type": "BUCKETS", "jobs": jobs})
        parts_per_job: List[List[Tuple[int, np.ndarray, Optional[np.ndarray]]]] = [
            [] for _ in jobs
        ]
        for shard_index in fitted:
            for position, indices, ranks in replies[shard_index]["buckets"]:
                parts_per_job[position].append((shard_index, indices, ranks))
        for (table_index, key), parts in zip(jobs, parts_per_job):
            if not parts:
                # No shard holds the bucket: like the local merge, nothing is
                # cached and nothing is counted.
                continue
            if len(parts) == 1:
                shard_index, locals_, ranks = parts[0]
                merged = Bucket(tables._shard_globals(shard_index)[locals_], ranks)
            else:
                indices = np.concatenate(
                    [tables._shard_globals(s)[locals_] for s, locals_, _ in parts]
                )
                if parts[0][2] is not None:
                    ranks = np.concatenate([ranks for _, _, ranks in parts])
                    order = np.argsort(ranks, kind="stable")
                    merged = Bucket(indices[order], ranks[order])
                else:
                    order = np.argsort(indices, kind="stable")
                    merged = Bucket(indices[order])
            with tables._merge_count_lock:
                tables.merged_buckets += 1
            cache = views[table_index]._cache
            if len(cache) >= _MERGED_CACHE_LIMIT:
                cache.pop(next(iter(cache)), None)
            cache[key] = merged

    # ------------------------------------------------------------------
    # Batched execution
    # ------------------------------------------------------------------
    # The batch loop itself — prefix eligibility, shared-round escalation,
    # budget retuning, serial batch-order answering for RNG samplers — is
    # BatchQueryEngine's, unchanged.  Only the executor hooks differ: where
    # gathers run (above), how merged buckets are primed, and what syncs
    # after a batch.

    def _prime(self, keys_per_query, positions: Sequence[int]) -> None:
        self._prime_via_workers([keys_per_query[position] for position in positions])

    def _after_batch(self) -> None:
        self._sync_worker_stats()
