"""HTTP/JSON serving surface over the :class:`~repro.api.FairNN` facade.

A stdlib-only front-end (``http.server.ThreadingHTTPServer``; no new
dependencies): each request runs on its own handler thread, enters the
current serving generation through an RCU handle (so hot snapshot swaps
never invalidate an in-flight request), passes the capacity model's
admission control, and is answered through the facade's batched engines.

Endpoints
---------
``GET /healthz``
    Liveness: serving generation, live points, wire point kind, samplers.
``GET /v1/stats``
    Per-sampler :meth:`~repro.engine.batch.BatchQueryEngine.stats_dict`.
``GET /v1/capacity``
    The MAAS-pods-style ``total/used/available`` capacity rendering.
``POST /v1/sample``
    One sampling request: ``{"query": ..., "sampler"?, "k"?,
    "replacement"?, "exclude_index"?}``.
``POST /v1/sample_batch``
    ``{"queries": [...], ...}`` — answered as **one** engine batch, so the
    coalescing/vectorized-hashing amortizations apply exactly as for an
    in-process ``FairNN.run``.
``POST /v1/mutate``
    ``{"op": "insert", "points": [...]}`` or ``{"op": "delete", "index": i}``.
``POST /v1/mutate`` also accepts an ``"idempotency_key"`` string: a retried
mutation carrying the same key returns the original result instead of
applying twice (the key is journaled, so the dedup window survives a crash
and recovery).

``POST /v1/admin/swap`` / ``GET /v1/admin/swap``
    Trigger / observe an atomic hot snapshot swap (see
    :mod:`repro.server.swap`).  Trusted-operator surface: it loads a
    snapshot directory (which unpickles hash functions and samplers), so
    deployments expose it only inside the trust boundary — optionally
    fenced to a configured ``snapshot_root``.
``POST /v1/admin/checkpoint``
    Write a durable checkpoint of the serving facade and truncate the
    journaled WAL prefix (requires a facade served with a ``data_dir``).

Error mapping: the typed mutation errors surface as 4xx —
:class:`~repro.exceptions.SlotOutOfRangeError` → 404,
:class:`~repro.exceptions.AlreadyDeletedError` → 410,
:class:`~repro.exceptions.InvalidParameterError` → 400 — admission
failures (:class:`~repro.exceptions.CapacityExceededError` /
:class:`~repro.exceptions.QuotaExceededError`) → 429 with a ``Retry-After``
header, and a failed WAL append
(:class:`~repro.exceptions.WALWriteError`; the mutation was **not**
applied) → 507 Insufficient Storage.

Wire format for points: JSON arrays.  Set-valued datasets decode arrays as
``frozenset`` of ints; dense datasets as float64 vectors (JSON floats
round-trip float64 exactly, so served answers are byte-identical to
in-process calls).
"""

from __future__ import annotations

import json
import pathlib
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.api import FairNN
from repro.engine.requests import QueryRequest
from repro.exceptions import (
    AlreadyDeletedError,
    CapacityExceededError,
    InvalidParameterError,
    NotFittedError,
    QuotaExceededError,
    ReproError,
    SlotOutOfRangeError,
    WALWriteError,
)
from repro.server.capacity import CapacityModel
from repro.server.swap import ServingHandle, SnapshotSwapper, SwapInProgressError
from repro.types import Point

__all__ = ["FairNNServer", "decode_point", "encode_point"]

#: Largest accepted request body; protects the JSON parser from abuse.
MAX_BODY_BYTES = 64 * 1024 * 1024


# ----------------------------------------------------------------------
# Wire encoding of points
# ----------------------------------------------------------------------
def point_kind(nn: FairNN) -> str:
    """The wire kind of the facade's points: ``"set"`` or ``"dense"``."""
    dataset = getattr(nn.tables, "dataset", None)
    if dataset is None:
        dataset = nn._dataset
    if dataset is None:
        dataset = []
    for point in dataset:
        if point is None:
            continue
        return "set" if isinstance(point, (set, frozenset)) else "dense"
    return "dense"


def decode_point(value, kind: str) -> Point:
    """Decode one JSON array into a dataset-compatible point."""
    if not isinstance(value, (list, tuple)):
        raise InvalidParameterError(
            f"a point must be a JSON array, got {type(value).__name__}"
        )
    if kind == "set":
        try:
            return frozenset(int(item) for item in value)
        except (TypeError, ValueError):
            raise InvalidParameterError("set points must be arrays of integers") from None
    try:
        return np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError):
        raise InvalidParameterError("dense points must be arrays of numbers") from None


def encode_point(point: Point) -> List:
    """Encode one point as a JSON array (inverse of :func:`decode_point`)."""
    if isinstance(point, (set, frozenset)):
        return sorted(int(item) for item in point)
    return np.asarray(point, dtype=np.float64).tolist()


# ----------------------------------------------------------------------
# HTTP plumbing
# ----------------------------------------------------------------------
class _HTTPError(Exception):
    """Internal: carries a status + JSON payload up to the handler."""

    def __init__(self, status: int, message: str, retry_after: Optional[float] = None):
        super().__init__(message)
        self.status = status
        self.retry_after = retry_after


def _map_exception(exc: Exception) -> _HTTPError:
    """Translate library exceptions into HTTP statuses."""
    if isinstance(exc, (QuotaExceededError, CapacityExceededError)):
        return _HTTPError(429, str(exc), retry_after=exc.retry_after)
    if isinstance(exc, SlotOutOfRangeError):
        return _HTTPError(404, str(exc))
    if isinstance(exc, AlreadyDeletedError):
        return _HTTPError(410, str(exc))
    if isinstance(exc, SwapInProgressError):
        return _HTTPError(409, str(exc))
    if isinstance(exc, NotFittedError):
        return _HTTPError(503, str(exc))
    if isinstance(exc, WALWriteError):
        # The journal append failed (disk full, I/O error); the mutation was
        # NOT applied.  507 Insufficient Storage: retry after the operator
        # frees space — not a client error and not an engine crash.
        return _HTTPError(507, str(exc))
    if isinstance(exc, InvalidParameterError):
        return _HTTPError(400, str(exc))
    if isinstance(exc, ReproError):
        return _HTTPError(500, f"{type(exc).__name__}: {exc}")
    return _HTTPError(500, f"internal error: {type(exc).__name__}: {exc}")


class _ServerCore(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying a reference to the owning front-end."""

    daemon_threads = True
    allow_reuse_address = True
    app: "FairNNServer"


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server: _ServerCore

    # Quiet by default; FairNNServer(verbose=True) restores stderr logging.
    def log_message(self, format, *args):  # noqa: A002 - BaseHTTPRequestHandler API
        if self.server.app.verbose:
            super().log_message(format, *args)

    # ------------------------------------------------------------------
    def _reply(self, status: int, payload: Dict, retry_after: Optional[float] = None):
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if retry_after is not None:
            # Retry-After is delta-seconds; round up so clients never retry
            # before the hinted instant.
            self.send_header("Retry-After", str(max(1, int(np.ceil(retry_after)))))
        self.end_headers()
        self.wfile.write(body)

    def _read_json(self) -> Dict:
        length = self.headers.get("Content-Length")
        if length is None:
            raise _HTTPError(411, "Content-Length required")
        try:
            length = int(length)
        except ValueError:
            raise _HTTPError(400, "invalid Content-Length") from None
        if length > MAX_BODY_BYTES:
            raise _HTTPError(413, f"request body exceeds {MAX_BODY_BYTES} bytes")
        raw = self.rfile.read(length)
        try:
            body = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise _HTTPError(400, f"invalid JSON body: {exc}") from None
        if not isinstance(body, dict):
            raise _HTTPError(400, "request body must be a JSON object")
        return body

    def _dispatch(self, method: str) -> None:
        app = self.server.app
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        try:
            route = app.routes.get((method, path))
            if route is None:
                raise _HTTPError(404, f"no such endpoint: {method} {path}")
            body = self._read_json() if method == "POST" else {}
            status, payload = route(body)
            self._reply(status, payload)
        except _HTTPError as exc:
            self._reply(
                exc.status, {"error": str(exc), "status": exc.status}, exc.retry_after
            )
        except Exception as exc:  # noqa: BLE001 - mapped to an HTTP status
            mapped = _map_exception(exc)
            self._reply(
                mapped.status,
                {"error": str(mapped), "status": mapped.status},
                mapped.retry_after,
            )

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        self._dispatch("POST")


# ----------------------------------------------------------------------
# The serving front-end
# ----------------------------------------------------------------------
class FairNNServer:
    """HTTP/JSON front-end serving one :class:`~repro.api.FairNN` facade.

    Parameters
    ----------
    nn:
        A built facade (``fit`` or ``serve`` already called).  Serving
        facades support the mutation endpoint; static ones answer queries
        only.
    host, port:
        Bind address; ``port=0`` (the default) picks an ephemeral port,
        exposed afterwards as :attr:`port` / :attr:`url`.
    capacity:
        The :class:`~repro.server.capacity.CapacityModel` guarding
        admission.  Defaults to an unlimited model (observability without
        enforcement).
    probe_count:
        Probe-batch size for swap verification.
    snapshot_root:
        When set, ``POST /v1/admin/swap`` only accepts snapshot directories
        inside this root (the admin surface unpickles snapshot files, so
        deployments pin where those may come from).
    verbose:
        Re-enable the default ``http.server`` request logging.

    Usage::

        nn = FairNN.from_spec(spec).serve(dataset)
        with FairNNServer(nn, capacity=CapacityModel(slot_capacity=10_000)) as server:
            print(server.url)      # e.g. http://127.0.0.1:43215
            server.serve_forever() # or .start() for a background thread
    """

    def __init__(
        self,
        nn: FairNN,
        host: str = "127.0.0.1",
        port: int = 0,
        capacity: Optional[CapacityModel] = None,
        probe_count: int = 8,
        snapshot_root: Optional[str] = None,
        verbose: bool = False,
    ):
        if not nn.engines:
            raise NotFittedError("FairNNServer requires a built facade (fit/serve first)")
        self.handle = ServingHandle(nn)
        self.capacity = capacity if capacity is not None else CapacityModel()
        self.swapper = SnapshotSwapper(self.handle, probe_count=probe_count)
        self.snapshot_root = (
            None if snapshot_root is None else pathlib.Path(snapshot_root).resolve()
        )
        self.verbose = bool(verbose)
        self.routes = {
            ("GET", "/healthz"): self._handle_healthz,
            ("GET", "/v1/stats"): self._handle_stats,
            ("GET", "/v1/capacity"): self._handle_capacity,
            ("GET", "/v1/admin/swap"): self._handle_swap_status,
            ("POST", "/v1/sample"): self._handle_sample,
            ("POST", "/v1/sample_batch"): self._handle_sample_batch,
            ("POST", "/v1/mutate"): self._handle_mutate,
            ("POST", "/v1/admin/swap"): self._handle_swap,
            ("POST", "/v1/admin/checkpoint"): self._handle_checkpoint,
        }
        self._httpd = _ServerCore((host, port), _Handler)
        self._httpd.app = self
        self._thread: Optional[threading.Thread] = None

    @classmethod
    def from_data_dir(
        cls, data_dir, fsync: Optional[str] = None, **kwargs
    ) -> "FairNNServer":
        """Boot a server by recovering the facade from a durable data directory.

        ``FairNN.recover(data_dir)`` rebuilds the exact pre-crash engine
        (newest valid checkpoint + WAL-suffix replay — including the
        idempotency dedup window), then the server fronts it as usual.
        Remaining keyword arguments go to the constructor.
        """
        return cls(FairNN.recover(data_dir, fsync=fsync), **kwargs)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        """The bound port (resolved after construction for ``port=0``)."""
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def nn(self) -> FairNN:
        """The currently serving facade (changes across swaps)."""
        return self.handle.nn

    def start(self) -> "FairNNServer":
        """Serve on a background thread; returns immediately."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._httpd.serve_forever,
                name="repro-http-server",
                daemon=True,
            )
            self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`stop` (or interrupt)."""
        self._httpd.serve_forever()

    def stop(self) -> None:
        """Stop accepting requests and release the listening socket."""
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "FairNNServer":
        return self.start()

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Read-only endpoints (never queued: health checks and operators must
    # see the server even when the work queue is saturated)
    # ------------------------------------------------------------------
    def _handle_healthz(self, body: Dict) -> Tuple[int, Dict]:
        with self.handle.acquire() as nn:
            import repro

            return 200, {
                "status": "ok",
                "serving": nn.is_serving,
                "generation": self.handle.generation.number,
                "live_points": int(nn.num_live_points),
                "point_kind": point_kind(nn),
                "samplers": nn.sampler_names,
                "primary": nn.primary,
                "durable": nn.wal is not None,
                "version": repro.__version__,
            }

    def _handle_stats(self, body: Dict) -> Tuple[int, Dict]:
        with self.handle.acquire() as nn:
            return 200, {
                "generation": self.handle.generation.number,
                "samplers": {
                    name: engine.stats_dict() for name, engine in nn.engines.items()
                },
            }

    def _handle_capacity(self, body: Dict) -> Tuple[int, Dict]:
        with self.handle.acquire() as nn:
            return 200, self.capacity.snapshot(nn.capacity())

    def _handle_swap_status(self, body: Dict) -> Tuple[int, Dict]:
        report = self.swapper.last_report
        if report is None:
            return 200, {"status": "idle"}
        return 200, report

    # ------------------------------------------------------------------
    # Work endpoints (queued, quota'd)
    # ------------------------------------------------------------------
    def _requests_from(self, body: Dict, queries: List, kind: str) -> List[QueryRequest]:
        k = body.get("k", 1)
        replacement = body.get("replacement", True)
        exclude = body.get("exclude_index")
        if not isinstance(k, int) or isinstance(k, bool):
            raise InvalidParameterError(f"k must be an integer, got {k!r}")
        return [
            QueryRequest(
                query=decode_point(query, kind),
                k=k,
                replacement=bool(replacement),
                exclude_index=None if exclude is None else int(exclude),
            )
            for query in queries
        ]

    def _handle_sample(self, body: Dict) -> Tuple[int, Dict]:
        if "query" not in body:
            raise InvalidParameterError('POST /v1/sample requires a "query" field')
        self.capacity.enter_request()
        try:
            with self.handle.acquire() as nn:
                sampler = self._resolve_sampler(nn, body)
                self.capacity.admit_queries(sampler, 1)
                kind = point_kind(nn)
                requests = self._requests_from(body, [body["query"]], kind)
                response = nn.run(requests, sampler=sampler)[0]
                return 200, response.to_dict()
        finally:
            self.capacity.exit_request()

    def _handle_sample_batch(self, body: Dict) -> Tuple[int, Dict]:
        queries = body.get("queries")
        if not isinstance(queries, list) or not queries:
            raise InvalidParameterError(
                'POST /v1/sample_batch requires a non-empty "queries" array'
            )
        self.capacity.enter_request()
        try:
            with self.handle.acquire() as nn:
                sampler = self._resolve_sampler(nn, body)
                self.capacity.admit_queries(sampler, len(queries))
                kind = point_kind(nn)
                requests = self._requests_from(body, queries, kind)
                responses = nn.run(requests, sampler=sampler)
                return 200, {
                    "sampler": sampler,
                    "count": len(responses),
                    "results": [response.to_dict() for response in responses],
                }
        finally:
            self.capacity.exit_request()

    def _handle_mutate(self, body: Dict) -> Tuple[int, Dict]:
        op = body.get("op")
        if op not in ("insert", "delete"):
            raise InvalidParameterError(
                f'POST /v1/mutate requires "op" of "insert" or "delete", got {op!r}'
            )
        idempotency_key = body.get("idempotency_key")
        if idempotency_key is not None and (
            not isinstance(idempotency_key, str) or not idempotency_key
        ):
            raise InvalidParameterError(
                '"idempotency_key" must be a non-empty string when present'
            )
        self.capacity.enter_request()
        try:
            with self.handle.acquire() as nn:
                if op == "insert":
                    points = body.get("points")
                    if not isinstance(points, list) or not points:
                        raise InvalidParameterError(
                            'insert requires a non-empty "points" array'
                        )
                    self.capacity.admit_insert(len(points), nn.capacity())
                    kind = point_kind(nn)
                    decoded = [decode_point(point, kind) for point in points]
                    indices = nn.insert_many(decoded, idempotency_key=idempotency_key)
                    return 200, {
                        "op": "insert",
                        "indices": [int(i) for i in indices],
                        "live_points": int(nn.num_live_points),
                    }
                index = body.get("index")
                if not isinstance(index, int) or isinstance(index, bool):
                    raise InvalidParameterError('delete requires an integer "index"')
                nn.delete(index, idempotency_key=idempotency_key)
                return 200, {
                    "op": "delete",
                    "index": index,
                    "live_points": int(nn.num_live_points),
                }
        finally:
            self.capacity.exit_request()

    # ------------------------------------------------------------------
    # Admin
    # ------------------------------------------------------------------
    def _handle_swap(self, body: Dict) -> Tuple[int, Dict]:
        snapshot = body.get("snapshot")
        if not isinstance(snapshot, str) or not snapshot:
            raise InvalidParameterError(
                'POST /v1/admin/swap requires a "snapshot" directory path'
            )
        directory = pathlib.Path(snapshot).resolve()
        if self.snapshot_root is not None and not directory.is_relative_to(
            self.snapshot_root
        ):
            raise InvalidParameterError(
                f"snapshot path must live under {self.snapshot_root}"
            )
        probes = body.get("probes")
        if probes is not None:
            with self.handle.acquire() as nn:
                kind = point_kind(nn)
            probes = [decode_point(point, kind) for point in probes]
        verify = bool(body.get("verify", True))
        wait = bool(body.get("wait", True))
        report = self.swapper.swap(directory, probes=probes, verify=verify, wait=wait)
        if not wait:
            return 202, report
        if report["status"] != "completed":
            return 409, report
        return 200, report

    def _handle_checkpoint(self, body: Dict) -> Tuple[int, Dict]:
        """Write a durable checkpoint (trusted-operator surface, like swap).

        Requires the serving facade to be durable (booted via
        ``serve(data_dir=...)`` or :meth:`from_data_dir`); 400 otherwise.
        """
        with self.handle.acquire() as nn:
            path = nn.checkpoint()
            return 200, {
                "status": "completed",
                "checkpoint": str(path),
                "durability": nn.durability(),
            }

    # ------------------------------------------------------------------
    def _resolve_sampler(self, nn: FairNN, body: Dict) -> str:
        sampler = body.get("sampler")
        if sampler is None:
            return nn.primary
        if sampler not in nn.sampler_names:
            raise InvalidParameterError(
                f"unknown sampler {sampler!r}; available: {sorted(nn.sampler_names)}"
            )
        return str(sampler)
