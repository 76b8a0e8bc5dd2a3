"""Exception hierarchy for the :mod:`repro` library.

All exceptions raised by the library derive from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
letting genuine programming errors (``TypeError`` and friends) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class NotFittedError(ReproError):
    """Raised when a query is issued against an index that was never built.

    Every sampler and index in :mod:`repro.core` must be constructed from a
    dataset via ``fit`` (or by passing the dataset to the constructor) before
    queries are allowed.
    """


class EmptyDatasetError(ReproError):
    """Raised when an index is built over an empty dataset."""


class DimensionMismatchError(ReproError):
    """Raised when a query point does not match the dataset dimensionality."""


class InvalidParameterError(ReproError):
    """Raised when a user-facing parameter is outside its valid range."""


class UnsupportedDataTypeError(ReproError):
    """Raised when a measure or hash family receives data it cannot handle.

    For example, feeding dense vectors to a MinHash family (which operates on
    sets) raises this error rather than producing silently wrong hashes.
    """


class CapacityExceededError(ReproError):
    """Raised when an operation would exceed a configured capacity limit.

    The serving layer's admission control
    (:class:`~repro.server.capacity.CapacityModel`) raises this when an
    insert batch would push the index past its slot or memory budget (after
    over-commit), or when the bounded request queue is full.  Carries
    ``retry_after`` — the suggested back-off in seconds, surfaced by the HTTP
    layer as a ``429`` response with a ``Retry-After`` header.
    """

    def __init__(self, message: str, retry_after: float = 1.0):
        super().__init__(message)
        self.retry_after = float(retry_after)


class QuotaExceededError(CapacityExceededError):
    """Raised when a per-sampler token-bucket quota is exhausted.

    ``retry_after`` is the time until the bucket has refilled enough tokens
    to admit the rejected request.
    """


class SlotOutOfRangeError(InvalidParameterError, IndexError):
    """Raised when a mutation names a dataset slot outside ``[0, n)``.

    Subclasses both :class:`InvalidParameterError` (so library-wide handlers
    keep working) and :class:`IndexError` (the natural Python category for an
    out-of-range index).  Raised *before* any state is touched: a failed
    delete never lands in a :class:`~repro.engine.dynamic.MutationDelta`,
    never moves the tombstone fraction and never bumps engine counters.
    """


class WALError(ReproError):
    """Base class for write-ahead-log failures (:mod:`repro.engine.wal`)."""


class WALCorruptError(WALError):
    """Raised when the WAL contains damage that replay cannot repair.

    A *torn tail* — a partially written final record, the normal residue of
    a crash mid-append — is **not** corruption: the scanner detects it via
    the length prefix / CRC, truncates it, and recovery proceeds.  This
    error marks the other cases: a damaged record *followed by* valid data
    (bit rot, concurrent writers, manual edits), a bad segment header, or a
    gap in the sequence numbering.  Replaying past such damage could apply
    a divergent mutation history, so recovery refuses instead.

    Attributes
    ----------
    path:
        Segment file containing the damage (``None`` for cross-segment
        problems such as sequence gaps).
    offset:
        Byte offset of the damaged record within ``path``, when known.
    """

    def __init__(self, message: str, path=None, offset=None):
        super().__init__(message)
        self.path = None if path is None else str(path)
        self.offset = offset


class WALWriteError(WALError):
    """Raised when appending to the WAL fails (disk full, I/O error).

    The durability contract is *log before apply*: when the append fails
    the mutation is **not** applied, so the in-memory engine and the log
    never diverge.  The HTTP layer surfaces this as ``507 Insufficient
    Storage`` — the request may be retried after the operator frees space
    or rotates the data directory.
    """


class SnapshotCorruptError(ReproError):
    """Raised when an engine snapshot directory cannot be loaded.

    Wraps the underlying failure (missing files, truncated arrays, invalid
    JSON, pickle damage) in one typed error so operators and the recovery
    path can treat "this checkpoint is bad, try the previous one" as a
    single condition instead of catching raw ``numpy``/``pickle``/``json``
    exceptions.  The original exception is preserved as ``__cause__``.

    Attributes
    ----------
    path:
        The damaged file inside the snapshot directory, when the failure
        could be pinned to one (a missing or truncated per-array ``.npy``
        in the v5 layout, the ``arrays.npz`` of older formats); ``None``
        for directory-level damage.
    """

    def __init__(self, message: str, path=None):
        super().__init__(message)
        self.path = None if path is None else str(path)


class BlockFetchError(ReproError):
    """Raised when a remote vector-block fetch fails or returns torn data.

    The remote dataset store (:class:`repro.store.RemoteDenseStore` /
    :class:`repro.store.RemoteSetStore`) fetches vector blocks over the
    narrow :class:`repro.store.BlockClient` protocol; a block server that is
    unreachable, answers with an HTTP error, or returns fewer bytes than the
    block geometry requires surfaces as this one typed error instead of raw
    ``urllib``/``socket`` exceptions.

    Attributes
    ----------
    name:
        The logical array whose blocks were requested, when known.
    """

    def __init__(self, message: str, name=None):
        super().__init__(message)
        self.name = name


class ServerTimeoutError(ReproError, TimeoutError):
    """Raised when an HTTP client call exceeds its socket timeout/deadline.

    Subclasses :class:`TimeoutError` so generic timeout handlers work, and
    :class:`ReproError` so library-wide handlers keep working.  Raised by
    :class:`~repro.server.client.FairNNClient` when a request (including
    all retries) does not complete within the configured deadline.
    """


class AlreadyDeletedError(InvalidParameterError, KeyError):
    """Raised when deleting a dataset slot that is already tombstoned.

    Subclasses both :class:`InvalidParameterError` and :class:`KeyError` (a
    double-delete is a missing-key condition, not a range error).  Like
    :class:`SlotOutOfRangeError` it is raised before any bookkeeping, so a
    double-delete is never double-counted in the
    :class:`~repro.engine.dynamic.MutationDelta`, the pending-tombstone set
    or any engine statistics.
    """

    # KeyError.__str__ repr()s the message (it normally carries a key);
    # restore plain rendering so logs don't grow spurious quotes.
    __str__ = Exception.__str__
