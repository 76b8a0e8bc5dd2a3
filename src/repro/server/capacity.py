"""Capacity accounting and admission control for the HTTP serving surface.

The serving front-end treats the index like a resource pod: a budget of
point *slots* and *memory*, an over-commit ratio that stretches the nominal
budget (indexes tolerate controlled oversubscription the way hypervisor
pods oversubscribe cores), per-sampler token-bucket query quotas, and a
bounded in-flight request queue.  :class:`CapacityModel` owns all four and
renders them in the ``total/used/available`` shape of the MAAS pods API, so
operators read one familiar schema::

    {
      "total":     {"points": 1500, "memory_bytes": ...},
      "used":      {"points": 1212, "memory_bytes": ...},
      "available": {"points": 288,  "memory_bytes": ...},
      "over_commit_ratio": 1.5,
      ...
    }

Admission failures raise :class:`~repro.exceptions.CapacityExceededError`
(or its subclass :class:`~repro.exceptions.QuotaExceededError`), carrying a
``retry_after`` hint the HTTP layer turns into ``429`` + ``Retry-After``.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, Optional

from repro.exceptions import (
    CapacityExceededError,
    InvalidParameterError,
    QuotaExceededError,
)

__all__ = ["TokenBucket", "CapacityModel"]


class TokenBucket:
    """A thread-safe token bucket: ``burst`` capacity refilled at ``rate``/s.

    Every admitted query costs one token (a batch of ``m`` queries costs
    ``m``).  When the bucket cannot cover a request,
    :meth:`try_acquire` reports the seconds until enough tokens will have
    accumulated — the ``Retry-After`` the HTTP layer surfaces.

    Parameters
    ----------
    rate:
        Refill rate in tokens per second (> 0).
    burst:
        Bucket capacity — the largest instantaneous spend (>= 1).  A request
        costing more than *burst* can still be admitted eventually: tokens
        are allowed to accumulate beyond *burst* only transiently during the
        computation of its retry hint, so such requests are rejected with a
        finite ``retry_after`` of ``(cost - tokens) / rate`` and callers are
        expected to split the batch.
    clock:
        Monotonic time source (injectable for tests).
    """

    def __init__(
        self,
        rate: float,
        burst: float,
        clock: Callable[[], float] = time.monotonic,
    ):
        if not rate > 0:
            raise InvalidParameterError(f"quota rate must be > 0 tokens/s, got {rate!r}")
        if not burst >= 1:
            raise InvalidParameterError(f"quota burst must be >= 1 token, got {burst!r}")
        self.rate = float(rate)
        self.burst = float(burst)
        self._clock = clock
        self._tokens = float(burst)
        self._stamp = clock()
        self._lock = threading.Lock()

    def _refill(self) -> None:
        now = self._clock()
        elapsed = max(0.0, now - self._stamp)
        self._stamp = now
        self._tokens = min(self.burst, self._tokens + elapsed * self.rate)

    @property
    def tokens(self) -> float:
        """Tokens currently available (refilled to now)."""
        with self._lock:
            self._refill()
            return self._tokens

    def try_acquire(self, cost: float = 1.0) -> Optional[float]:
        """Spend *cost* tokens; returns ``None`` on success.

        On failure returns the suggested back-off in seconds — the time
        until the bucket will hold *cost* tokens at the current rate.
        """
        if cost <= 0:
            return None
        with self._lock:
            self._refill()
            if self._tokens >= cost:
                self._tokens -= cost
                return None
            return (cost - self._tokens) / self.rate

    def to_dict(self) -> Dict:
        """The bucket's configuration and live level, JSON-serializable."""
        return {
            "rate_per_s": self.rate,
            "burst": self.burst,
            "tokens": round(self.tokens, 3),
        }


class CapacityModel:
    """Slot/memory budget, over-commit, per-sampler quotas, bounded queue.

    One instance guards one serving facade.  All limits are optional: the
    default model is unlimited (every admission succeeds) but still reports
    live occupancy, so a server is observable before it is constrained.

    Parameters
    ----------
    slot_capacity:
        Nominal point-slot budget, before over-commit.  ``None`` = unlimited.
    memory_capacity_bytes:
        Nominal index-memory budget, before over-commit.  ``None`` =
        unlimited.  Only enforced when the index reports its memory
        (:meth:`FairNN.capacity <repro.api.FairNN.capacity>` returns
        ``memory_bytes``); an index without a columnar store is admitted on
        slots alone.
    over_commit_ratio:
        Multiplier (>= 1) applied to both nominal budgets, in the spirit of
        pod ``cpu_over_commit_ratio`` / ``memory_over_commit_ratio``: the
        *effective* total is ``floor(nominal * ratio)``.
    default_quota:
        ``(rate_per_s, burst)`` token-bucket parameters applied to any
        sampler without an explicit entry in *quotas*.  ``None`` = no
        default quota.
    quotas:
        Mapping of sampler name to ``(rate_per_s, burst)``.
    max_inflight:
        Bound on concurrently executing work requests (the request queue).
        ``None`` = unbounded.
    retry_after:
        Back-off hint (seconds) for slot/memory/queue rejections, where no
        refill schedule exists to compute one from.
    clock:
        Monotonic time source shared by all quota buckets (injectable).
    """

    def __init__(
        self,
        slot_capacity: Optional[int] = None,
        memory_capacity_bytes: Optional[int] = None,
        over_commit_ratio: float = 1.0,
        default_quota: Optional[tuple] = None,
        quotas: Optional[Dict[str, tuple]] = None,
        max_inflight: Optional[int] = None,
        retry_after: float = 1.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        if slot_capacity is not None and slot_capacity < 1:
            raise InvalidParameterError(
                f"slot_capacity must be >= 1 (or None for unlimited), got {slot_capacity!r}"
            )
        if memory_capacity_bytes is not None and memory_capacity_bytes < 1:
            raise InvalidParameterError(
                "memory_capacity_bytes must be >= 1 (or None for unlimited), "
                f"got {memory_capacity_bytes!r}"
            )
        if not over_commit_ratio >= 1.0:
            raise InvalidParameterError(
                f"over_commit_ratio must be >= 1.0, got {over_commit_ratio!r}"
            )
        if max_inflight is not None and max_inflight < 0:
            raise InvalidParameterError(
                f"max_inflight must be >= 0 (or None for unbounded), got {max_inflight!r}"
            )
        if not retry_after > 0:
            raise InvalidParameterError(f"retry_after must be > 0, got {retry_after!r}")
        self.slot_capacity = None if slot_capacity is None else int(slot_capacity)
        self.memory_capacity_bytes = (
            None if memory_capacity_bytes is None else int(memory_capacity_bytes)
        )
        self.over_commit_ratio = float(over_commit_ratio)
        self.retry_after = float(retry_after)
        self.max_inflight = None if max_inflight is None else int(max_inflight)
        self._clock = clock
        self._default_quota = default_quota
        self._quota_params = dict(quotas or {})
        self._buckets: Dict[str, TokenBucket] = {}
        self._buckets_lock = threading.Lock()
        self._inflight = 0
        self._inflight_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Effective budgets
    # ------------------------------------------------------------------
    @property
    def total_slots(self) -> Optional[int]:
        """Effective slot budget after over-commit (``None`` = unlimited)."""
        if self.slot_capacity is None:
            return None
        return int(self.slot_capacity * self.over_commit_ratio)

    @property
    def total_memory_bytes(self) -> Optional[int]:
        """Effective memory budget after over-commit (``None`` = unlimited)."""
        if self.memory_capacity_bytes is None:
            return None
        return int(self.memory_capacity_bytes * self.over_commit_ratio)

    # ------------------------------------------------------------------
    # Quotas
    # ------------------------------------------------------------------
    def bucket_for(self, sampler: str) -> Optional[TokenBucket]:
        """The sampler's quota bucket (created on first use), or ``None``."""
        params = self._quota_params.get(sampler, self._default_quota)
        if params is None:
            return None
        with self._buckets_lock:
            bucket = self._buckets.get(sampler)
            if bucket is None:
                rate, burst = params
                bucket = TokenBucket(rate, burst, clock=self._clock)
                self._buckets[sampler] = bucket
            return bucket

    def admit_queries(self, sampler: str, count: int) -> None:
        """Charge *count* queries against the sampler's quota.

        Raises :class:`~repro.exceptions.QuotaExceededError` (with the
        bucket's refill time as ``retry_after``) when the quota is
        exhausted.  Samplers without a quota are always admitted.
        """
        bucket = self.bucket_for(sampler)
        if bucket is None:
            return
        retry_after = bucket.try_acquire(float(count))
        if retry_after is not None:
            raise QuotaExceededError(
                f"quota exhausted for sampler {sampler!r} "
                f"({count} queries over a {bucket.rate}/s budget)",
                retry_after=max(retry_after, 0.001),
            )

    # ------------------------------------------------------------------
    # Slot / memory admission
    # ------------------------------------------------------------------
    def admit_insert(self, count: int, occupancy: Dict) -> None:
        """Admit an insert batch of *count* points against the budgets.

        *occupancy* is :meth:`FairNN.capacity <repro.api.FairNN.capacity>`'s
        dict.  Slots are charged against **allocated** slots (live plus
        not-yet-compacted tombstones — what the index actually holds);
        memory is charged per-point pro-rata from the reported resident
        bytes.  Raises :class:`~repro.exceptions.CapacityExceededError` when
        either effective budget would be exceeded.
        """
        total_slots = self.total_slots
        used_slots = int(occupancy.get("total_slots") or 0)
        if total_slots is not None and used_slots + count > total_slots:
            raise CapacityExceededError(
                f"insert of {count} points would exceed the slot budget "
                f"({used_slots} used of {total_slots} total after "
                f"{self.over_commit_ratio}x over-commit)",
                retry_after=self.retry_after,
            )
        total_memory = self.total_memory_bytes
        memory_bytes = occupancy.get("memory_bytes")
        if total_memory is not None and memory_bytes is not None and used_slots > 0:
            projected = memory_bytes * (used_slots + count) / used_slots
            if projected > total_memory:
                raise CapacityExceededError(
                    f"insert of {count} points would exceed the memory budget "
                    f"(~{int(projected)} of {total_memory} bytes after "
                    f"{self.over_commit_ratio}x over-commit)",
                    retry_after=self.retry_after,
                )

    # ------------------------------------------------------------------
    # Bounded request queue
    # ------------------------------------------------------------------
    def enter_request(self) -> None:
        """Admit one work request into the bounded in-flight queue.

        Raises :class:`~repro.exceptions.CapacityExceededError` when
        ``max_inflight`` requests are already executing.  Every successful
        call must be paired with :meth:`exit_request`.
        """
        with self._inflight_lock:
            if self.max_inflight is not None and self._inflight >= self.max_inflight:
                raise CapacityExceededError(
                    f"request queue full ({self._inflight} in flight, "
                    f"max_inflight={self.max_inflight})",
                    retry_after=self.retry_after,
                )
            self._inflight += 1

    def exit_request(self) -> None:
        """Release one slot of the bounded in-flight queue."""
        with self._inflight_lock:
            self._inflight = max(0, self._inflight - 1)

    @property
    def in_flight(self) -> int:
        """Work requests currently executing."""
        with self._inflight_lock:
            return self._inflight

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def snapshot(self, occupancy: Dict) -> Dict:
        """The MAAS-pods-style capacity rendering of ``GET /v1/capacity``.

        *occupancy* is :meth:`FairNN.capacity <repro.api.FairNN.capacity>`'s
        dict for the currently served index.  ``total`` and ``available``
        fields are ``None`` for unlimited budgets; ``available`` never
        reports below zero (over-budget states are visible as
        ``used > total``).
        """
        used_points = int(occupancy.get("total_slots") or 0)
        used_memory = occupancy.get("memory_bytes")
        total_points = self.total_slots
        total_memory = self.total_memory_bytes
        available_points = (
            None if total_points is None else max(0, total_points - used_points)
        )
        if total_memory is None or used_memory is None:
            available_memory = None
        else:
            available_memory = max(0, total_memory - int(used_memory))
        with self._buckets_lock:
            quota_names = set(self._buckets) | set(self._quota_params)
        return {
            "total": {"points": total_points, "memory_bytes": total_memory},
            "used": {"points": used_points, "memory_bytes": used_memory},
            "available": {"points": available_points, "memory_bytes": available_memory},
            "over_commit_ratio": self.over_commit_ratio,
            "live_points": int(occupancy.get("live_points") or 0),
            "pending_tombstones": int(occupancy.get("pending_tombstones") or 0),
            "quotas": {
                name: bucket.to_dict()
                for name in sorted(quota_names)
                if (bucket := self.bucket_for(name)) is not None
            },
            "queue": {
                "max_inflight": self.max_inflight,
                "in_flight": self.in_flight,
            },
        }
