"""The HTTP serving surface: wire fidelity, capacity, quotas, hot swap.

Four serving guarantees are pinned down here:

1. **Wire fidelity** — a ``POST /v1/sample_batch`` answered over HTTP is
   byte-identical to the same batch run directly through an in-process
   :class:`~repro.api.FairNN` twin, for **every** registered sampler
   (JSON float64 round-trips exactly, and the server feeds the whole batch
   to one engine run).
2. **Capacity accounting** — ``GET /v1/capacity`` stays consistent with
   inserts and deletes, and admission enforces the slot budget within the
   configured over-commit ratio (429 + ``Retry-After`` beyond it).
3. **Backpressure** — per-sampler token-bucket quotas (injectable clock)
   and the bounded in-flight queue both surface as 429 with a usable
   ``Retry-After`` hint.
4. **Hot swap** — an atomic snapshot swap under concurrent traffic never
   drops or corrupts an in-flight request: every hammered response is
   complete and byte-identical to the canonical answer, before, during and
   after the flip from the served index to a format-v5 snapshot of the same
   state; stale snapshots fail
   probe verification and the old index keeps serving.
"""

from __future__ import annotations

import dataclasses
import json
import threading
import time
import urllib.request

import numpy as np
import pytest

from repro import (
    CapacityModel,
    FairNN,
    FairNNClient,
    FairNNServer,
    TokenBucket,
)
from repro.engine.requests import QueryRequest
from repro.exceptions import (
    CapacityExceededError,
    InvalidParameterError,
    NotFittedError,
    QuotaExceededError,
)
from repro.server import ServingHandle, SnapshotSwapper, SwapInProgressError
from repro.server.app import decode_point, encode_point, point_kind
from repro.server.client import ServerHTTPError

from test_spec_api import CANONICAL_SPECS

SEED = 7
#: Twin facades must be seeded identically to be byte-comparable.
PERMUTATION_SPEC = dataclasses.replace(CANONICAL_SPECS["permutation"][0], seed=SEED)


class FakeClock:
    """A manually advanced monotonic clock for deterministic quota tests."""

    def __init__(self):
        self.now = 1000.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _flavour_data(name, small_set_dataset, planted_unit_vectors):
    spec, flavour = CANONICAL_SPECS[name]
    spec = dataclasses.replace(spec, seed=SEED)
    if flavour == "sets":
        dataset = list(small_set_dataset)
        queries = dataset[:4] + [frozenset(set(dataset[0]) | {99991})]
    else:
        dataset = planted_unit_vectors["points"]
        queries = [dataset[i] for i in range(4)] + [planted_unit_vectors["query"]]
    return spec, dataset, queries


@pytest.fixture
def serving_server(small_set_dataset, tmp_path):
    """A serving permutation facade behind HTTP, plus a client."""
    nn = FairNN.from_spec(PERMUTATION_SPEC).serve(list(small_set_dataset))
    with FairNNServer(nn) as server:
        yield server, FairNNClient(server.url)


# ----------------------------------------------------------------------
# Wire codec
# ----------------------------------------------------------------------
class TestWireCodec:
    def test_set_point_round_trip(self):
        point = frozenset({3, 1, 41, 5926})
        assert decode_point(encode_point(point), "set") == point

    def test_dense_point_round_trip_is_exact(self, rng):
        point = rng.standard_normal(17)
        restored = decode_point(json.loads(json.dumps(encode_point(point))), "dense")
        assert restored.dtype == np.float64
        assert np.array_equal(restored, point)  # bitwise: JSON floats are exact

    def test_invalid_points_are_rejected(self):
        with pytest.raises(InvalidParameterError):
            decode_point("not-a-list", "set")
        with pytest.raises(InvalidParameterError):
            decode_point([1, "x"], "set")
        with pytest.raises(InvalidParameterError):
            decode_point(["x"], "dense")

    def test_point_kind_detection(self, small_set_dataset, planted_unit_vectors):
        sets = FairNN.from_spec(PERMUTATION_SPEC).fit(list(small_set_dataset))
        assert point_kind(sets) == "set"
        vectors = FairNN.from_spec(CANONICAL_SPECS["filter"][0]).fit(
            planted_unit_vectors["points"]
        )
        assert point_kind(vectors) == "dense"


# ----------------------------------------------------------------------
# 1. Wire fidelity: HTTP == direct, every sampler
# ----------------------------------------------------------------------
class TestByteIdenticalServing:
    @pytest.mark.parametrize("name", sorted(CANONICAL_SPECS))
    def test_http_batch_matches_direct_run(
        self, name, small_set_dataset, planted_unit_vectors
    ):
        spec, dataset, queries = _flavour_data(
            name, small_set_dataset, planted_unit_vectors
        )
        served = FairNN.from_spec(spec).fit(dataset)
        direct = FairNN.from_spec(spec).fit(dataset)
        requests = [QueryRequest(query=q, k=2, replacement=True) for q in queries]
        with FairNNServer(served) as server:
            client = FairNNClient(server.url)
            over_http = client.sample_batch(queries, k=2, replacement=True)
        expected = direct.run(requests)
        assert over_http["count"] == len(expected)
        for wire, response in zip(over_http["results"], expected):
            assert wire["indices"] == response.indices
            assert wire["value"] == response.value
            assert wire["found"] == response.found
            assert wire["stats"] == response.stats.to_dict()

    def test_http_k_draws_match_direct_run(self, small_set_dataset):
        """Multi-draw answers served over HTTP equal a direct run's."""
        dataset = list(small_set_dataset)
        queries = dataset[:6]
        served = FairNN.from_spec(PERMUTATION_SPEC).serve(dataset)
        direct = FairNN.from_spec(PERMUTATION_SPEC).serve(dataset)
        with FairNNServer(served) as server:
            client = FairNNClient(server.url)
            over_http = client.sample_batch(queries, k=3, replacement=False)
        expected = direct.run(
            [QueryRequest(query=q, k=3, replacement=False) for q in queries]
        )
        for wire, response in zip(over_http["results"], expected):
            assert wire["indices"] == response.indices
            assert wire["value"] == response.value

    def test_single_sample_and_exclude_index(self, serving_server, small_set_dataset):
        _, client = serving_server
        query = list(small_set_dataset)[0]
        answer = client.sample(query)
        assert answer["found"] and isinstance(answer["index"], int)
        excluded = client.sample(query, exclude_index=answer["index"])
        assert excluded["index"] != answer["index"]

    def test_sampler_routing(self, small_set_dataset):
        from repro.spec import EngineSpec

        spec = EngineSpec(
            samplers={
                "fair": CANONICAL_SPECS["permutation"][0],
                "biased": CANONICAL_SPECS["standard_lsh"][0],
            },
            primary="fair",
        )
        nn = FairNN.from_spec(spec).fit(list(small_set_dataset))
        with FairNNServer(nn) as server:
            client = FairNNClient(server.url)
            health = client.healthz()
            assert sorted(health["samplers"]) == ["biased", "fair"]
            assert health["primary"] == "fair"
            routed = client.sample(list(small_set_dataset)[0], sampler="biased")
            assert routed["sampler"] == "biased"
            default = client.sample(list(small_set_dataset)[0])
            assert default["sampler"] == "fair"


# ----------------------------------------------------------------------
# 2. Capacity accounting
# ----------------------------------------------------------------------
class TestCapacityAccounting:
    def test_capacity_tracks_mutations(self, small_set_dataset):
        dataset = list(small_set_dataset)
        nn = FairNN.from_spec(PERMUTATION_SPEC).serve(dataset)
        capacity = CapacityModel(slot_capacity=len(dataset), over_commit_ratio=1.5)
        with FairNNServer(nn, capacity=capacity) as server:
            client = FairNNClient(server.url)
            before = client.capacity()
            assert before["used"]["points"] == len(dataset)
            assert before["total"]["points"] == int(len(dataset) * 1.5)

            inserted = client.insert([frozenset({90001, 90002}), frozenset({90003})])
            after_insert = client.capacity()
            assert after_insert["used"]["points"] == len(dataset) + 2
            assert (
                after_insert["available"]["points"]
                == after_insert["total"]["points"] - after_insert["used"]["points"]
            )

            client.delete(inserted["indices"][0])
            after_delete = client.capacity()
            # a delete tombstones its slot: the slot stays *used* until
            # compaction reclaims it, but live_points drops immediately
            assert after_delete["used"]["points"] == len(dataset) + 2
            assert after_delete["live_points"] == len(dataset) + 1
            assert after_delete["pending_tombstones"] == 1
            assert after_delete["used"]["memory_bytes"] > 0

    def test_insert_beyond_over_commit_is_rejected(self, small_set_dataset):
        dataset = list(small_set_dataset)[:10]
        nn = FairNN.from_spec(PERMUTATION_SPEC).serve(dataset)
        capacity = CapacityModel(slot_capacity=10, over_commit_ratio=1.2)  # 12 slots
        with FairNNServer(nn, capacity=capacity) as server:
            client = FairNNClient(server.url)
            client.insert([frozenset({90000 + i}) for i in range(2)])  # to the brim
            with pytest.raises(ServerHTTPError) as excinfo:
                client.insert([frozenset({91000})])
            assert excinfo.value.status == 429
            assert excinfo.value.retry_after >= 1
            # the rejected insert must not have leaked into the index
            assert client.capacity()["used"]["points"] == 12
            # tombstoned slots still count against the budget (reclaimed by
            # compaction, not by delete), so a delete does not re-admit
            client.delete(0)
            with pytest.raises(ServerHTTPError) as excinfo:
                client.insert([frozenset({91000})])
            assert excinfo.value.status == 429

    def test_unlimited_model_reports_nulls(self, serving_server):
        _, client = serving_server
        snapshot = client.capacity()
        assert snapshot["total"]["points"] is None
        assert snapshot["available"]["points"] is None
        assert snapshot["used"]["points"] > 0


# ----------------------------------------------------------------------
# 3. Backpressure: quotas and the bounded queue
# ----------------------------------------------------------------------
class TestBackpressure:
    def test_token_bucket_refills_on_injected_clock(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=4.0, clock=clock)
        assert all(bucket.try_acquire(1.0) is None for _ in range(4))
        retry = bucket.try_acquire(1.0)
        assert retry == pytest.approx(0.5)  # 1 token at 2/s
        clock.advance(0.5)
        assert bucket.try_acquire(1.0) is None

    def test_quota_exhaustion_returns_429_with_retry_after(self, small_set_dataset):
        dataset = list(small_set_dataset)
        clock = FakeClock()
        nn = FairNN.from_spec(PERMUTATION_SPEC).serve(dataset)
        capacity = CapacityModel(default_quota=(1.0, 2.0), clock=clock)
        with FairNNServer(nn, capacity=capacity) as server:
            client = FairNNClient(server.url)
            client.sample(dataset[0])
            client.sample(dataset[0])
            with pytest.raises(ServerHTTPError) as excinfo:
                client.sample(dataset[0])
            assert excinfo.value.status == 429
            assert excinfo.value.retry_after >= 1
            clock.advance(2.0)  # refill
            assert client.sample(dataset[0])["found"] is not None

    def test_batch_charged_per_query(self, small_set_dataset):
        dataset = list(small_set_dataset)
        nn = FairNN.from_spec(PERMUTATION_SPEC).serve(dataset)
        capacity = CapacityModel(quotas={"default": (1.0, 4.0)}, clock=FakeClock())
        with FairNNServer(nn, capacity=capacity) as server:
            client = FairNNClient(server.url)
            with pytest.raises(ServerHTTPError) as excinfo:
                client.sample_batch(dataset[:5])  # 5 queries > burst of 4
            assert excinfo.value.status == 429
            client.sample_batch(dataset[:4])  # nothing was charged by the reject

    def test_full_queue_returns_429(self, small_set_dataset):
        dataset = list(small_set_dataset)
        nn = FairNN.from_spec(PERMUTATION_SPEC).serve(dataset)
        capacity = CapacityModel(max_inflight=0, retry_after=3.0)
        with FairNNServer(nn, capacity=capacity) as server:
            client = FairNNClient(server.url)
            with pytest.raises(ServerHTTPError) as excinfo:
                client.sample(dataset[0])
            assert excinfo.value.status == 429
            assert excinfo.value.retry_after == 3
            # read-only endpoints stay reachable under saturation
            assert client.healthz()["status"] == "ok"
            assert client.capacity()["queue"]["max_inflight"] == 0

    def test_admission_errors_are_typed(self):
        model = CapacityModel(default_quota=(1.0, 1.0))
        with pytest.raises(QuotaExceededError):
            model.admit_queries("default", 2)
        limited = CapacityModel(slot_capacity=1, over_commit_ratio=1.0)
        with pytest.raises(CapacityExceededError):
            limited.admit_insert(2, {"total_slots": 0, "memory_bytes": 0})


# ----------------------------------------------------------------------
# Error mapping
# ----------------------------------------------------------------------
class TestErrorMapping:
    def test_mutation_errors_map_to_http_statuses(self, serving_server):
        _, client = serving_server
        with pytest.raises(ServerHTTPError) as excinfo:
            client.delete(10**6)
        assert excinfo.value.status == 404
        client.delete(0)
        with pytest.raises(ServerHTTPError) as excinfo:
            client.delete(0)  # tombstoned
        assert excinfo.value.status == 410

    def test_validation_errors_are_400(self, serving_server, small_set_dataset):
        _, client = serving_server
        for call in (
            lambda: client.sample(list(small_set_dataset)[0], sampler="nope"),
            lambda: client._request("POST", "/v1/sample", {}),
            lambda: client._request("POST", "/v1/sample_batch", {"queries": []}),
            lambda: client._request("POST", "/v1/mutate", {"op": "compact"}),
            lambda: client._request("POST", "/v1/mutate", {"op": "delete", "index": "x"}),
            lambda: client._request(
                "POST", "/v1/sample", {"query": [1, 2], "k": "three"}
            ),
        ):
            with pytest.raises(ServerHTTPError) as excinfo:
                call()
            assert excinfo.value.status == 400

    def test_unknown_route_and_method_are_404(self, serving_server):
        _, client = serving_server
        with pytest.raises(ServerHTTPError) as excinfo:
            client._request("GET", "/v1/nope")
        assert excinfo.value.status == 404
        with pytest.raises(ServerHTTPError) as excinfo:
            client._request("GET", "/v1/sample")  # POST-only route
        assert excinfo.value.status == 404

    def test_malformed_json_is_400(self, serving_server):
        server, _ = serving_server
        request = urllib.request.Request(
            f"{server.url}/v1/sample",
            data=b"{not json",
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400

    def test_unbuilt_facade_is_rejected(self):
        with pytest.raises(NotFittedError):
            FairNNServer(FairNN.from_spec(PERMUTATION_SPEC))


# ----------------------------------------------------------------------
# Stats endpoint
# ----------------------------------------------------------------------
class TestStatsEndpoint:
    def test_stats_counters_advance(self, serving_server, small_set_dataset):
        server, client = serving_server
        dataset = list(small_set_dataset)
        client.sample_batch(dataset[:3])
        stats = client.stats()
        assert stats["generation"] == 1
        entry = stats["samplers"]["default"]
        assert entry["sampler"] == "default"
        assert entry["is_dynamic"] is True
        assert entry["live_points"] == len(dataset)
        assert entry["counters"]["queries_served"] >= 3
        assert entry["counters"]["batches_served"] >= 1
        # the same dict shape FairNN exposes in-process
        assert entry == server.nn.engine("default").stats_dict()


# ----------------------------------------------------------------------
# 4. Hot snapshot swap
# ----------------------------------------------------------------------
class TestGenerationSemantics:
    class _FakeEngine:
        def __init__(self):
            self.closed = False

        def close(self):
            self.closed = True

    class _FakeNN:
        def __init__(self):
            self.engines = {"default": TestGenerationSemantics._FakeEngine()}

    def test_old_generation_drains_before_close(self):
        first, second = self._FakeNN(), self._FakeNN()
        handle = ServingHandle(first)
        context = handle.acquire()  # a request in flight on generation 1
        old = handle.flip(second)
        assert old.retired and old.in_flight == 1
        assert not first.engines["default"].closed  # still serving the request
        context.__exit__(None, None, None)
        assert first.engines["default"].closed  # drained -> closed
        assert not handle.generation.try_enter() is False  # new gen admits

    def test_retired_generation_refuses_entry(self):
        handle = ServingHandle(self._FakeNN())
        old = handle.generation
        handle.flip(self._FakeNN())
        assert old.try_enter() is False
        assert handle.generation.number == 2

    def test_concurrent_swap_is_rejected(self, monkeypatch):
        handle = ServingHandle(self._FakeNN())
        swapper = SnapshotSwapper(handle)
        release = threading.Event()

        def slow_load(directory):
            release.wait(timeout=10)
            raise RuntimeError("load aborted by test")

        swapper._load = slow_load
        swapper.swap("somewhere", wait=False)
        with pytest.raises(SwapInProgressError):
            swapper.swap("elsewhere")
        release.set()


class TestHotSwap:
    def test_swap_to_current_snapshot_completes(self, small_set_dataset, tmp_path):
        dataset = list(small_set_dataset)
        nn = FairNN.from_spec(PERMUTATION_SPEC).serve(dataset)
        nn.save(tmp_path / "snap")
        direct = FairNN.from_spec(PERMUTATION_SPEC).serve(dataset)
        with FairNNServer(nn) as server:
            client = FairNNClient(server.url)
            report = client.swap(str(tmp_path / "snap"))
            assert report["status"] == "completed"
            assert report["generation"] == 2
            assert report["compared_identical"] > 0
            assert client.healthz()["generation"] == 2
            # answers after the flip are byte-identical to an untouched twin
            queries = dataset[:5]
            over_http = client.sample_batch(queries, k=2)
            expected = direct.run([QueryRequest(query=q, k=2) for q in queries])
            for wire, response in zip(over_http["results"], expected):
                assert wire["indices"] == response.indices
                assert wire["value"] == response.value
            assert client.swap_status()["status"] == "completed"

    def test_stale_snapshot_fails_verification(self, small_set_dataset, tmp_path):
        dataset = list(small_set_dataset)
        nn = FairNN.from_spec(PERMUTATION_SPEC).serve(dataset)
        nn.save(tmp_path / "stale")
        novel = frozenset(range(70001, 70011))  # disjoint from every dataset set
        with FairNNServer(nn) as server:
            client = FairNNClient(server.url)
            client.insert([novel])  # the snapshot no longer matches served state
            # probing with the novel point: the serving index finds it, the
            # stale snapshot cannot -> probe verification must veto the flip
            with pytest.raises(ServerHTTPError) as excinfo:
                client.swap(str(tmp_path / "stale"), probes=[novel])
            assert excinfo.value.status == 409
            assert excinfo.value.payload["status"] == "failed"
            assert "SwapVerificationError" in excinfo.value.payload["error"]
            health = client.healthz()  # old index kept serving, mutation intact
            assert health["generation"] == 1
            assert health["live_points"] == len(dataset) + 1
            assert client.sample(novel)["index"] == len(dataset)

    def test_snapshot_root_fences_admin_surface(self, small_set_dataset, tmp_path):
        dataset = list(small_set_dataset)
        nn = FairNN.from_spec(PERMUTATION_SPEC).serve(dataset)
        nn.save(tmp_path / "outside")
        with FairNNServer(nn, snapshot_root=tmp_path / "allowed") as server:
            client = FairNNClient(server.url)
            with pytest.raises(ServerHTTPError) as excinfo:
                client.swap(str(tmp_path / "outside"))
            assert excinfo.value.status == 400

    def test_swap_under_concurrent_traffic(self, small_set_dataset, tmp_path):
        """The tentpole guarantee: a snapshot flip under load is invisible.

        Four hammer threads stream ``/v1/sample_batch`` while the main
        thread swaps the serving index for a format-v5 snapshot of the same
        state.  The sampler is query-deterministic, so *every* response —
        before, during, after the flip — must equal the canonical answer;
        anything dropped, torn, or answered by a half-closed engine would
        show up as a mismatch or an error.
        """
        dataset = list(small_set_dataset)
        nn = FairNN.from_spec(PERMUTATION_SPEC).serve(dataset)
        twin = FairNN.from_spec(PERMUTATION_SPEC).serve(dataset)
        twin.save(tmp_path / "v5")
        queries = dataset[:8]
        canonical = FairNN.from_spec(PERMUTATION_SPEC).serve(dataset).run(
            [QueryRequest(query=q, k=2, replacement=False) for q in queries]
        )
        expected = [(r.indices, r.value) for r in canonical]

        with FairNNServer(nn) as server:
            client = FairNNClient(server.url)
            errors, mismatches, completed = [], [], []
            stop = threading.Event()

            def hammer():
                worker = FairNNClient(server.url)
                while not stop.is_set():
                    try:
                        reply = worker.sample_batch(queries, k=2, replacement=False)
                    except Exception as exc:  # noqa: BLE001 - recorded for assertion
                        errors.append(exc)
                        return
                    got = [(r["indices"], r["value"]) for r in reply["results"]]
                    if got != expected:
                        mismatches.append(got)
                        return
                    completed.append(1)

            threads = [threading.Thread(target=hammer) for _ in range(4)]
            for thread in threads:
                thread.start()
            try:
                while len(completed) < 4 and not errors and not mismatches:
                    time.sleep(0.005)  # until traffic is demonstrably flowing
                report = client.swap(str(tmp_path / "v5"))
                assert report["status"] == "completed", report
                # let traffic run on the new generation before stopping
                flipped_floor = len(completed) + 8
                while len(completed) < flipped_floor and not errors and not mismatches:
                    time.sleep(0.005)
            finally:
                stop.set()
                for thread in threads:
                    thread.join(timeout=30)

            assert not errors, errors
            assert not mismatches, mismatches[:1]
            health = client.healthz()
            assert health["generation"] == 2
            # post-flip: still byte-identical, now answered by the snapshot
            final = client.sample_batch(queries, k=2, replacement=False)
            assert [(r["indices"], r["value"]) for r in final["results"]] == expected
