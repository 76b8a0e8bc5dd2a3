"""Atomic hot snapshot swap: build offline, ship, verify, flip under load.

Production indexes are rebuilt offline (re-parameterized, compacted)
and shipped to servers as snapshot directories
(:mod:`repro.engine.snapshot`).  This module rolls such a snapshot into a
live server without dropping a request:

1. **Load off the serving path.**  The replacement
   :class:`~repro.api.FairNN` is reconstructed from the snapshot in a
   background thread; serving threads never wait on deserialization.
2. **Verify before flip.**  A probe batch is answered by both the serving
   facade and the loaded one.  For query-deterministic samplers the answers
   must be *byte-identical* (indices and measure values); samplers with
   query-time randomness cannot be compared draw-for-draw, so each probe
   answer of the replacement is instead checked for validity — the returned
   index must lie in the replacement's exact neighborhood of the probe.
   Any mismatch aborts the swap and the old index keeps serving.
3. **RCU flip + drain.**  The serving reference is swapped atomically (one
   attribute write): requests that already entered the old generation finish
   on it untouched, the next request acquires the new one.  The retired
   generation is drained — once its in-flight count reaches zero its
   engines are closed deterministically.

Verification presumes the snapshot describes the *currently served* index
state (the build-offline/ship/flip workflow).  Swapping to a snapshot taken
before subsequent online mutations will fail verification for deterministic
samplers — exactly the guard an operator wants — and ``verify=False``
exists for deliberate index replacement.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.api import FairNN
from repro.exceptions import InvalidParameterError, ReproError
from repro.types import Point

__all__ = [
    "Generation",
    "ServingHandle",
    "SnapshotSwapper",
    "SwapInProgressError",
    "SwapReport",
    "SwapVerificationError",
]


class SwapInProgressError(ReproError):
    """Raised when a swap is requested while another one is still running."""


class SwapVerificationError(ReproError):
    """Raised when the probe batch disagrees between old and new indexes."""


class Generation:
    """One serving generation: a facade plus its in-flight request count.

    Request threads enter through :meth:`try_enter` / :meth:`leave` (the
    :class:`ServingHandle` wraps this in a context manager).  After
    :meth:`retire`, no new request may enter and the generation's engines
    are closed as soon as the last in-flight request leaves — the drain step
    of the swap protocol.
    """

    __slots__ = ("nn", "number", "_inflight", "_retired", "_closed", "_lock")

    def __init__(self, nn: FairNN, number: int):
        self.nn = nn
        self.number = number
        self._inflight = 0
        self._retired = False
        self._closed = False
        self._lock = threading.Lock()

    def try_enter(self) -> bool:
        """Register one in-flight request; refused once retired."""
        with self._lock:
            if self._retired:
                return False
            self._inflight += 1
            return True

    def leave(self) -> None:
        """Unregister one in-flight request; closes a drained retiree."""
        with self._lock:
            self._inflight -= 1
            close = self._retired and self._inflight == 0 and not self._closed
            if close:
                self._closed = True
        if close:
            self._close_engines()

    def retire(self) -> None:
        """Stop admitting requests; close engines once drained."""
        with self._lock:
            if self._retired:
                return
            self._retired = True
            close = self._inflight == 0 and not self._closed
            if close:
                self._closed = True
        if close:
            self._close_engines()

    @property
    def in_flight(self) -> int:
        with self._lock:
            return self._inflight

    @property
    def retired(self) -> bool:
        with self._lock:
            return self._retired

    def _close_engines(self) -> None:
        # Duck-typed on purpose: generations also wrap facade test doubles
        # that expose only ``engines``, and only engines that hold resources
        # define ``close``.
        for engine in self.nn.engines.values():
            close = getattr(engine, "close", None)
            if close is not None:
                close()


class _GenerationContext:
    """``with handle.acquire() as nn:`` — enter/leave bracketing."""

    __slots__ = ("generation",)

    def __init__(self, generation: Generation):
        self.generation = generation

    def __enter__(self) -> FairNN:
        return self.generation.nn

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.generation.leave()


class ServingHandle:
    """RCU-style reference to the live serving generation.

    Readers call :meth:`acquire` (a context manager yielding the facade);
    the swapper calls :meth:`flip` with a replacement facade.  A reader that
    races a flip simply retries on the new generation — entry into a retired
    generation is refused, so a generation's engines are only ever closed
    after its last reader left.
    """

    def __init__(self, nn: FairNN):
        self._generation = Generation(nn, 1)
        self._flip_lock = threading.Lock()

    @property
    def generation(self) -> Generation:
        """The current generation (snapshot read; may retire at any time)."""
        return self._generation

    @property
    def nn(self) -> FairNN:
        """The currently serving facade (for non-bracketed, read-only peeks)."""
        return self._generation.nn

    def acquire(self) -> _GenerationContext:
        """Enter the live generation; guaranteed not to close mid-request."""
        while True:
            generation = self._generation
            if generation.try_enter():
                return _GenerationContext(generation)

    def flip(self, nn: FairNN) -> Generation:
        """Atomically make *nn* the serving facade; retire the old generation."""
        with self._flip_lock:
            old = self._generation
            self._generation = Generation(nn, old.number + 1)
        old.retire()
        return old


@dataclass
class SwapReport:
    """Outcome (or progress) of one snapshot swap."""

    snapshot: str
    status: str = "pending"  # pending -> loading -> verifying -> completed | failed
    generation: Optional[int] = None
    load_seconds: Optional[float] = None
    verify_seconds: Optional[float] = None
    probes: int = 0
    compared_identical: int = 0
    checked_validity: int = 0
    old_live_points: Optional[int] = None
    new_live_points: Optional[int] = None
    error: Optional[str] = None
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def to_dict(self) -> Dict:
        with self._lock:
            return {
                "snapshot": self.snapshot,
                "status": self.status,
                "generation": self.generation,
                "load_seconds": self.load_seconds,
                "verify_seconds": self.verify_seconds,
                "probes": self.probes,
                "compared_identical": self.compared_identical,
                "checked_validity": self.checked_validity,
                "old_live_points": self.old_live_points,
                "new_live_points": self.new_live_points,
                "error": self.error,
            }


class SnapshotSwapper:
    """Coordinates hot snapshot swaps over one :class:`ServingHandle`.

    At most one swap runs at a time (:class:`SwapInProgressError` otherwise).
    The load/verify/flip pipeline always runs on a dedicated thread;
    :meth:`swap` with ``wait=True`` (the default) joins it and returns the
    final :class:`SwapReport`, ``wait=False`` returns the in-progress report
    immediately (poll :attr:`last_report`).
    """

    def __init__(self, handle: ServingHandle, probe_count: int = 8):
        if probe_count < 1:
            raise InvalidParameterError(f"probe_count must be >= 1, got {probe_count}")
        self.handle = handle
        self.probe_count = int(probe_count)
        self._busy = threading.Lock()
        self._report: Optional[SwapReport] = None
        self._load = FairNN.load  # injectable for tests

    @property
    def last_report(self) -> Optional[Dict]:
        """The most recent (possibly in-progress) swap report, as a dict."""
        report = self._report
        return None if report is None else report.to_dict()

    # ------------------------------------------------------------------
    def swap(
        self,
        directory,
        probes: Optional[Sequence[Point]] = None,
        verify: bool = True,
        wait: bool = True,
    ) -> Dict:
        """Roll the snapshot at *directory* into service.

        Raises :class:`SwapInProgressError` when another swap is running.
        With ``wait=True`` the returned report is final; a ``failed`` status
        means the old index kept serving (the error field says why).
        """
        if not self._busy.acquire(blocking=False):
            raise SwapInProgressError(
                "a snapshot swap is already in progress; retry after it completes"
            )
        report = SwapReport(snapshot=str(directory))
        self._report = report
        worker = threading.Thread(
            target=self._run,
            args=(directory, report, None if probes is None else list(probes), verify),
            name="repro-snapshot-swap",
            daemon=True,
        )
        worker.start()
        if wait:
            worker.join()
        return report.to_dict()

    # ------------------------------------------------------------------
    def _run(
        self,
        directory,
        report: SwapReport,
        probes: Optional[List[Point]],
        verify: bool,
    ) -> None:
        try:
            with report._lock:
                report.status = "loading"
            started = time.perf_counter()
            replacement = self._load(directory)
            load_seconds = time.perf_counter() - started
            with report._lock:
                report.load_seconds = round(load_seconds, 6)
                report.status = "verifying"

            current = self.handle.nn
            with report._lock:
                report.old_live_points = current.num_live_points
                report.new_live_points = replacement.num_live_points
            if verify:
                started = time.perf_counter()
                compared, checked, used = self._verify(current, replacement, probes)
                with report._lock:
                    report.verify_seconds = round(time.perf_counter() - started, 6)
                    report.probes = used
                    report.compared_identical = compared
                    report.checked_validity = checked

            old = self.handle.flip(replacement)
            with report._lock:
                report.generation = old.number + 1
                report.status = "completed"
        except Exception as exc:  # noqa: BLE001 - reported, not swallowed
            with report._lock:
                report.status = "failed"
                report.error = f"{type(exc).__name__}: {exc}"
        finally:
            self._busy.release()

    # ------------------------------------------------------------------
    def _default_probes(self, nn: FairNN) -> List[Point]:
        """Up to ``probe_count`` live points of the serving index."""
        tables = nn.tables
        dataset = getattr(tables, "dataset", None)
        alive = getattr(tables, "alive", None)
        if dataset is None:
            dataset = nn._dataset or []
        probes: List[Point] = []
        for slot, point in enumerate(dataset):
            if point is None:
                continue
            if alive is not None and not alive[slot]:
                continue
            probes.append(point)
            if len(probes) >= self.probe_count:
                break
        return probes

    def _verify(
        self,
        current: FairNN,
        replacement: FairNN,
        probes: Optional[List[Point]],
    ):
        """Probe-batch equivalence check; raises on any disagreement."""
        if probes is None:
            probes = self._default_probes(current)
        if not probes:
            raise SwapVerificationError("no probe points available to verify the swap")
        shared = [
            name for name in current.sampler_names if name in replacement.sampler_names
        ]
        if not shared:
            raise SwapVerificationError(
                "old and new indexes share no sampler names; refusing to flip"
            )
        compared = 0
        checked = 0
        for name in shared:
            deterministic = getattr(
                replacement.samplers[name], "deterministic_queries", False
            )
            new_responses = replacement.run(list(probes), sampler=name)
            if deterministic:
                old_responses = current.run(list(probes), sampler=name)
                for position, (old, new) in enumerate(zip(old_responses, new_responses)):
                    if old.indices != new.indices or old.value != new.value:
                        raise SwapVerificationError(
                            f"probe {position} disagrees for sampler {name!r}: "
                            f"serving={old.indices}/{old.value} "
                            f"snapshot={new.indices}/{new.value}"
                        )
                    compared += 1
            else:
                for position, (probe, new) in enumerate(zip(probes, new_responses)):
                    if new.index is not None:
                        neighborhood = set(
                            int(i) for i in replacement.neighborhood(probe, sampler=name)
                        )
                        if int(new.index) not in neighborhood:
                            raise SwapVerificationError(
                                f"probe {position} invalid for sampler {name!r}: "
                                f"index {new.index} is outside the exact neighborhood"
                            )
                    checked += 1
        return compared, checked, len(probes)
