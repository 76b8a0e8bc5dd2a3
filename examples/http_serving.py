"""Serve fair near-neighbor samples over HTTP: boot, query, swap, throttle.

The in-process serving loop (``examples/online_serving.py``) has a network
twin: :class:`~repro.server.FairNNServer` puts a stdlib HTTP/JSON front
door on the :class:`~repro.api.FairNN` facade.  This example — also run by
CI as the server smoke test — walks the whole surface and *asserts* the
schemas it documents, exiting non-zero on any regression:

1. boot a server on an ephemeral port with a capacity budget and a
   per-sampler query quota;
2. check ``/healthz`` and ``/v1/capacity`` return the documented shapes;
3. answer a query batch through ``POST /v1/sample_batch`` (one engine
   batch) and confirm it matches the in-process answers byte-for-byte;
4. mutate the index over the wire and watch the capacity accounting move;
5. hot-swap to a snapshot of the served state — probe-verified, the
   generation counter flips, traffic continues;
6. drive the quota into exhaustion and read the ``Retry-After`` hint from
   the resulting 429;
7. boot a **durable** server (``serve(data_dir=...)``): every mutation is
   journaled to a write-ahead log before it is applied, and idempotency
   keys dedupe client retries;
8. shut down gracefully on SIGTERM/SIGINT — the handler only sets a flag,
   the serving loop drains in-flight requests and closes cleanly — then
   **restart with recovery** (``FairNNServer.from_data_dir``) and confirm
   the rebooted server answers byte-identically.

Operational details (fsync policies, crash recovery, chaos testing) live
in ``docs/operations.md``.

Run with:

    PYTHONPATH=src python examples/http_serving.py
"""

from __future__ import annotations

import os
import signal
import tempfile
import threading

from repro import CapacityModel, FairNN, FairNNClient, FairNNServer, LSHSpec, SamplerSpec
from repro.data import generate_lastfm_like
from repro.engine.requests import QueryRequest
from repro.server.client import ServerHTTPError


def main() -> None:
    users = generate_lastfm_like(num_users=300, seed=0)
    spec = SamplerSpec(
        "permutation",
        {"radius": 0.2, "far_radius": 0.1, "recall": 0.95},
        lsh=LSHSpec("minhash"),
        seed=0,
    )
    nn = FairNN.from_spec(spec, name="fair").serve(users)
    twin = FairNN.from_spec(spec, name="fair").serve(users)  # in-process reference

    capacity = CapacityModel(
        slot_capacity=400,
        over_commit_ratio=1.25,
        default_quota=(50.0, 100.0),
        max_inflight=16,
    )

    # 1. Ephemeral port; the context manager serves on a background thread.
    with FairNNServer(nn, capacity=capacity) as server:
        client = FairNNClient(server.url)
        print(f"serving {len(users)} users at {server.url}")

        # 2. /healthz and /v1/capacity schemas (CI smoke assertions).
        health = client.healthz()
        assert set(health) == {
            "status", "serving", "generation", "live_points", "point_kind",
            "samplers", "primary", "durable", "version",
        }, health
        assert health["status"] == "ok", health
        assert health["serving"] is True and health["generation"] == 1, health
        assert health["samplers"] == ["fair"] and health["primary"] == "fair", health
        assert health["live_points"] == len(users), health
        assert health["point_kind"] == "set", health

        snapshot = client.capacity()
        assert set(snapshot) == {
            "total", "used", "available", "over_commit_ratio", "live_points",
            "pending_tombstones", "quotas", "queue",
        }, snapshot
        for section in ("total", "used", "available"):
            assert set(snapshot[section]) == {"points", "memory_bytes"}, snapshot
        assert snapshot["total"]["points"] == 500  # floor(400 * 1.25)
        assert snapshot["used"]["points"] == len(users), snapshot
        assert snapshot["over_commit_ratio"] == 1.25, snapshot
        assert snapshot["queue"]["max_inflight"] == 16, snapshot
        print(
            f"capacity: {snapshot['used']['points']}/{snapshot['total']['points']} slots, "
            f"{snapshot['used']['memory_bytes']} resident bytes"
        )

        # 3. One HTTP batch == one engine batch == the in-process answers.
        queries = users[:20]
        over_http = client.sample_batch(queries, k=2, replacement=False)
        expected = twin.run([QueryRequest(query=q, k=2, replacement=False) for q in queries])
        assert [r["indices"] for r in over_http["results"]] == [
            r.indices for r in expected
        ], "HTTP answers diverged from in-process answers"
        answered = sum(r["found"] for r in over_http["results"])
        print(f"batch of {len(queries)} queries over HTTP: {answered} answered, byte-identical")

        # 4. Mutation over the wire moves the capacity needle.
        inserted = client.insert([frozenset({5000 + i, 5100 + i}) for i in range(3)])
        assert client.capacity()["used"]["points"] == len(users) + 3
        client.delete(inserted["indices"][0])
        assert client.capacity()["live_points"] == len(users) + 2
        print(f"inserted {len(inserted['indices'])} users, deleted 1 (tombstoned)")

        # 5. Hot swap to a snapshot of the *current* state: probe-verified.
        with tempfile.TemporaryDirectory() as tmp:
            nn.save(f"{tmp}/tonight")
            report = client.swap(f"{tmp}/tonight")
            assert report["status"] == "completed", report
            assert client.healthz()["generation"] == 2
            print(
                f"hot swap: generation {report['generation']}, "
                f"{report['compared_identical']} probe answers byte-identical, "
                f"load {report['load_seconds']:.3f}s"
            )
        assert client.sample(users[0])["found"] is not None  # traffic continues

        # 6. Exhaust the quota; backpressure arrives as 429 + Retry-After.
        # The default client *retries* 429s after sleeping out Retry-After,
        # which would politely wait for the bucket to refill — exactly what
        # production callers want, and exactly wrong for this demo.  Turn
        # retries off to observe the raw backpressure.
        impatient = FairNNClient(server.url, retries=0)
        throttled = None
        for _ in range(200):
            try:
                impatient.sample(users[0])
            except ServerHTTPError as exc:
                throttled = exc
                break
        assert throttled is not None and throttled.status == 429, "quota never engaged"
        assert throttled.retry_after is not None and throttled.retry_after >= 1
        print(f"quota exhausted: HTTP 429, Retry-After {throttled.retry_after:.0f}s")

    # 7 + 8. Durable serving, graceful shutdown, restart with recovery.
    with tempfile.TemporaryDirectory() as tmp:
        data_dir = f"{tmp}/durable"
        durable = FairNN.from_spec(spec, name="fair").serve(
            users, data_dir=data_dir, fsync="interval"
        )

        # A production handler must not tear the server down from inside the
        # signal frame; it only sets a flag, and the serving loop drains.
        drain_requested = threading.Event()

        def _request_drain(signum, frame):
            drain_requested.set()

        previous = {
            sig: signal.signal(sig, _request_drain)
            for sig in (signal.SIGINT, signal.SIGTERM)
        }
        try:
            with FairNNServer(durable) as server:
                client = FairNNClient(server.url)
                assert client.healthz()["durable"] is True

                # Journaled mutations: logged (and flushed) before applied.
                # The idempotency key makes the client's retries safe.
                inserted = client.insert(
                    [frozenset({7000 + i, 7100 + i}) for i in range(3)]
                )
                client.checkpoint()  # snapshot + truncate the journaled prefix
                client.delete(inserted["indices"][0])  # lives in the WAL suffix
                queries = users[:10]
                before = client.sample_batch(queries, k=2, replacement=False)

                # The operator sends SIGTERM (here: to ourselves).  The loop
                # notices the flag, stops accepting work, and the context
                # manager exit drains in-flight requests before closing.
                os.kill(os.getpid(), signal.SIGTERM)
                assert drain_requested.wait(5.0), "signal handler never ran"
            durable.close()  # fsyncs and closes the WAL
            print("SIGTERM: drained in-flight requests, closed server and WAL")
        finally:
            for sig, old in previous.items():
                signal.signal(sig, old)

        # Restart with recovery: newest checkpoint + WAL-suffix replay
        # rebuilds the exact pre-shutdown engine (see docs/operations.md).
        with FairNNServer.from_data_dir(data_dir) as server:
            client = FairNNClient(server.url)
            assert client.healthz()["durable"] is True
            after = client.sample_batch(queries, k=2, replacement=False)
            assert after["results"] == before["results"], "recovery diverged"
            with server.handle.acquire() as facade:
                recovered = facade
        recovered.close()
        print(f"restarted from {data_dir}: answers byte-identical")

    print("ok")


if __name__ == "__main__":
    main()
