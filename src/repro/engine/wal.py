"""Append-only, checksummed write-ahead log for engine mutations.

The durability contract of the serving stack is *log before apply*: every
insert/delete batch is appended to the :class:`WriteAheadLog` — and flushed
according to the fsync policy — **before** the in-memory tables are touched.
Recovery is then ``newest valid snapshot + WAL-suffix replay``: because the
snapshot persists the mutation RNG stream, replaying the *logical* ops after
the checkpoint reproduces the exact ranks the live engine drew, so the
recovered engine is byte-identical to one that never crashed.

On-disk format
--------------
A WAL is a directory of segment files named ``segment-<first_seq>.wal``
(zero-padded so lexicographic order equals numeric order).  Each segment
starts with the 6-byte magic ``b"RWAL1\\n"`` followed by records::

    +--------+--------+--------+------------------+
    |  seq   | length |  crc32 |     payload      |
    | uint64 | uint32 | uint32 | ``length`` bytes |
    +--------+--------+--------+------------------+

``seq`` is a monotone record sequence number (global across segments),
``crc32`` covers the payload bytes, and the payload is a pickled plain-dict
mutation op (``{"op": "insert", "points": [...]}`` etc.).  All integers are
big-endian.

Torn tails vs corruption
------------------------
A crash mid-append leaves a *torn tail*: a final record whose header or
payload is incomplete, or whose CRC does not match.  The scanner detects
this, reports it, and :meth:`WriteAheadLog.open` truncates it — a torn tail
is the expected residue of a crash, not an error.  Damage *before* valid
data (a bad CRC followed by a good record, a bad segment header, a sequence
gap) is different: replaying past it could apply a divergent history, so it
raises :class:`~repro.exceptions.WALCorruptError` instead.

Fsync policies
--------------
``always``
    ``fsync`` after every append.  Survives power loss; slowest.
``interval``
    ``flush`` after every append (data reaches the OS page cache, so a
    process crash — even ``kill -9`` — loses nothing), plus an
    opportunistic ``fsync`` at most every ``fsync_interval`` seconds to
    bound power-loss exposure.  The default.
``off``
    ``flush`` only.  Still survives process crash; power loss may lose the
    un-synced suffix.
"""

from __future__ import annotations

import io
import os
import pickle
import re
import struct
import threading
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.exceptions import InvalidParameterError, WALCorruptError, WALWriteError

__all__ = [
    "FSYNC_POLICIES",
    "WALRecord",
    "WALScanReport",
    "WriteAheadLog",
]

#: Valid fsync policies, weakest-durability last.
FSYNC_POLICIES = ("always", "interval", "off")

#: Segment file magic — identifies the format and its version.
_MAGIC = b"RWAL1\n"

#: Record header: sequence (uint64), payload length (uint32), crc32 (uint32).
_HEADER = struct.Struct(">QII")

_SEGMENT_RE = re.compile(r"^segment-(\d{20})\.wal$")

#: Refuse absurd lengths up front so a corrupted length prefix cannot make
#: the scanner attempt a multi-gigabyte read.
_MAX_RECORD_BYTES = 1 << 30


def _segment_name(first_seq: int) -> str:
    return f"segment-{first_seq:020d}.wal"


@dataclass(frozen=True)
class WALRecord:
    """One decoded WAL record: a sequence number plus its mutation op."""

    seq: int
    payload: Dict[str, Any]


@dataclass
class WALScanReport:
    """What a directory scan found — exposed for tests and operator tooling.

    Attributes
    ----------
    records:
        Number of valid records across all segments.
    last_seq:
        Sequence number of the last valid record (``-1`` when empty).
    torn_tail:
        ``(path, offset)`` of a detected torn tail, or ``None``.  The open
        path truncates the file at ``offset``.
    segments:
        Segment paths in replay order.
    """

    records: int = 0
    last_seq: int = -1
    torn_tail: Optional[Tuple[str, int]] = None
    segments: List[str] = field(default_factory=list)


class WriteAheadLog:
    """An append-only mutation journal with segment rotation.

    Parameters
    ----------
    directory:
        Directory holding the segment files; created if missing.
    fsync:
        One of :data:`FSYNC_POLICIES` (see the module docstring).
    fsync_interval:
        Maximum seconds between opportunistic fsyncs under the
        ``"interval"`` policy.
    segment_max_bytes:
        Rotate to a new segment once the current one exceeds this size.
    fault_injector:
        Optional :class:`repro.testing.faults.FaultInjector`; when set,
        the sites ``"wal.append"``, ``"wal.flush"`` and ``"wal.fsync"``
        fire inside the corresponding operations so chaos tests can
        simulate torn writes and full disks.

    Thread safety: appends are serialized by an internal lock; the facade
    additionally holds its mutation lock across log-then-apply so the log
    order always equals the apply order.
    """

    def __init__(
        self,
        directory,
        fsync: str = "interval",
        fsync_interval: float = 1.0,
        segment_max_bytes: int = 16 * 1024 * 1024,
        fault_injector=None,
        _clock: Callable[[], float] = time.monotonic,
    ):
        if fsync not in FSYNC_POLICIES:
            raise InvalidParameterError(
                f"fsync must be one of {FSYNC_POLICIES}, got {fsync!r}"
            )
        if not float(fsync_interval) > 0.0:
            raise InvalidParameterError("fsync_interval must be positive")
        if not int(segment_max_bytes) > len(_MAGIC):
            raise InvalidParameterError("segment_max_bytes too small to hold a segment header")
        self.directory = Path(directory)
        self.fsync = fsync
        self.fsync_interval = float(fsync_interval)
        self.segment_max_bytes = int(segment_max_bytes)
        self.fault_injector = fault_injector
        self._clock = _clock
        self._lock = threading.Lock()
        self._file: Optional[io.BufferedWriter] = None
        self._file_path: Optional[Path] = None
        self._next_seq = 0
        self._last_fsync = _clock()
        self._appended_records = 0
        self._appended_bytes = 0
        self._closed = False
        self._dirty_tail = False
        #: Offset the active segment must be truncated to before the next
        #: append, when a failed append left bytes behind (``None`` = the
        #: repair has to rediscover the boundary by scanning).
        self._dirty_offset: Optional[int] = None

    # ------------------------------------------------------------------
    # Opening and scanning
    # ------------------------------------------------------------------
    @classmethod
    def open(cls, directory, **kwargs) -> "WriteAheadLog":
        """Open (creating if needed) the WAL in ``directory``.

        Scans existing segments, truncates a torn tail if one is present,
        and positions the log to append after the last valid record.
        Raises :class:`~repro.exceptions.WALCorruptError` on mid-log
        damage.
        """
        wal = cls(directory, **kwargs)
        wal.directory.mkdir(parents=True, exist_ok=True)
        report = wal.scan()
        if report.torn_tail is not None:
            path, offset = report.torn_tail
            with open(path, "r+b") as handle:
                handle.truncate(offset)
                handle.flush()
                os.fsync(handle.fileno())
        wal._next_seq = report.last_seq + 1
        return wal

    def _segment_paths(self) -> List[Path]:
        if not self.directory.is_dir():
            return []
        paths = [p for p in self.directory.iterdir() if _SEGMENT_RE.match(p.name)]
        return sorted(paths, key=lambda p: p.name)

    def scan(self) -> WALScanReport:
        """Validate every segment and report what replay would see.

        Read-only: detected torn tails are *reported*, not repaired (the
        :meth:`open` path repairs them).
        """
        report = WALScanReport()
        paths = self._segment_paths()
        expected_seq: Optional[int] = None
        for position, path in enumerate(paths):
            is_last_segment = position == len(paths) - 1
            first_seq = int(_SEGMENT_RE.match(path.name).group(1))
            if expected_seq is not None and first_seq != expected_seq:
                raise WALCorruptError(
                    f"segment {path.name} starts at seq {first_seq}, expected {expected_seq} "
                    "(missing or renamed segment)",
                    path=path,
                )
            report.segments.append(str(path))
            last_seq_in_file, torn_offset = self._scan_segment(
                path, first_seq, allow_torn_tail=is_last_segment
            )
            if torn_offset is not None:
                report.torn_tail = (str(path), torn_offset)
            if last_seq_in_file >= 0:
                report.last_seq = last_seq_in_file
                report.records += last_seq_in_file - first_seq + 1
                expected_seq = last_seq_in_file + 1
            else:
                # Segment holds no valid records (header only, or torn
                # first record): the next segment must continue from the
                # same sequence number.
                expected_seq = first_seq
        return report

    def _scan_segment(
        self, path: Path, first_seq: int, allow_torn_tail: bool
    ) -> Tuple[int, Optional[int]]:
        """Walk one segment; return (last valid seq or -1, torn-tail offset)."""
        with open(path, "rb") as handle:
            magic = handle.read(len(_MAGIC))
            if magic != _MAGIC:
                raise WALCorruptError(
                    f"bad segment magic in {path.name}: {magic!r}", path=path, offset=0
                )
            expected = first_seq
            last_valid = -1
            while True:
                record_offset = handle.tell()
                header = handle.read(_HEADER.size)
                if not header:
                    return last_valid, None
                damage = None
                payload = b""
                if len(header) < _HEADER.size:
                    damage = "truncated record header"
                else:
                    seq, length, crc = _HEADER.unpack(header)
                    if seq != expected:
                        damage = f"sequence jump (got {seq}, expected {expected})"
                    elif length > _MAX_RECORD_BYTES:
                        damage = f"implausible record length {length}"
                    else:
                        payload = handle.read(length)
                        if len(payload) < length:
                            damage = "truncated record payload"
                        elif zlib.crc32(payload) != crc:
                            damage = "payload checksum mismatch"
                if damage is None:
                    last_valid = expected
                    expected += 1
                    continue
                # Damaged record: a torn tail only if nothing follows it in
                # this segment AND this is the final segment.
                trailing = handle.read(1)
                if allow_torn_tail and not trailing:
                    return last_valid, record_offset
                raise WALCorruptError(
                    f"corrupt record in {path.name} at offset {record_offset}: {damage} "
                    "(followed by more data — not a torn tail)",
                    path=path,
                    offset=record_offset,
                )

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------
    @property
    def next_seq(self) -> int:
        """Sequence number the next append will receive."""
        return self._next_seq

    @property
    def last_seq(self) -> int:
        """Sequence number of the last appended record (``-1`` when empty)."""
        return self._next_seq - 1

    @property
    def appended_records(self) -> int:
        """Records appended through this handle (not counting replayed ones)."""
        return self._appended_records

    @property
    def appended_bytes(self) -> int:
        """Payload + header bytes appended through this handle."""
        return self._appended_bytes

    def _fire(self, site: str) -> None:
        if self.fault_injector is not None:
            self.fault_injector.fire(site)

    def _open_segment_for_append(self) -> None:
        """Position ``self._file`` on the segment the next record belongs in."""
        paths = self._segment_paths()
        if paths and self._dirty_tail:
            # A previous append failed mid-write; truncate the bytes it left
            # behind so the next record does not land after garbage.  The
            # leftovers can even be a *complete* record (closing the failed
            # handle flushes its buffer), so prefer the recorded pre-append
            # offset over rescanning — the failed append consumed no
            # sequence number, and its bytes must not survive either.
            last = paths[-1]
            truncate_at = self._dirty_offset
            if truncate_at is None:
                first_seq = int(_SEGMENT_RE.match(last.name).group(1))
                _, truncate_at = self._scan_segment(
                    last, first_seq, allow_torn_tail=True
                )
            if truncate_at is not None and truncate_at < last.stat().st_size:
                with open(last, "r+b") as handle:
                    handle.truncate(truncate_at)
                    handle.flush()
                    os.fsync(handle.fileno())
            self._dirty_tail = False
            self._dirty_offset = None
        if paths:
            last = paths[-1]
            if last.stat().st_size < self.segment_max_bytes:
                self._file = open(last, "ab")
                self._file_path = last
                return
        self._rotate()

    def _rotate(self) -> None:
        if self._file is not None:
            self._sync_file(self._file)
            self._file.close()
        path = self.directory / _segment_name(self._next_seq)
        self._file = open(path, "ab")
        self._file_path = path
        if self._file.tell() == 0:
            self._file.write(_MAGIC)
            self._file.flush()
            os.fsync(self._file.fileno())

    def _sync_file(self, handle) -> None:
        self._fire("wal.fsync")
        handle.flush()
        os.fsync(handle.fileno())
        self._last_fsync = self._clock()

    def append(self, payload: Dict[str, Any]) -> int:
        """Durably append one mutation op; return its sequence number.

        Raises :class:`~repro.exceptions.WALWriteError` when the write
        fails (disk full, I/O error) — in that case nothing was logically
        appended: the sequence number is not consumed and a torn partial
        write left behind by the failure is truncated on the next open.
        """
        if self._closed:
            raise WALWriteError("append on a closed WAL")
        with self._lock:
            start_offset: Optional[int] = None
            try:
                self._fire("wal.append")
                if self._file is None:
                    self._open_segment_for_append()
                elif self._file.tell() >= self.segment_max_bytes:
                    self._rotate()
                start_offset = self._file.tell()
                blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
                header = _HEADER.pack(self._next_seq, len(blob), zlib.crc32(blob))
                self._file.write(header)
                self._file.write(blob)
                self._fire("wal.flush")
                if self.fsync == "always":
                    self._sync_file(self._file)
                else:
                    self._file.flush()
                    if (
                        self.fsync == "interval"
                        and self._clock() - self._last_fsync >= self.fsync_interval
                    ):
                        self._sync_file(self._file)
            except OSError as error:
                # The mutation was NOT applied; invalidate the handle and
                # mark the tail dirty so the partial write is truncated
                # before anything else is appended.
                if self._file is not None:
                    try:
                        self._file.close()
                    except OSError:
                        pass
                    self._file = None
                self._dirty_tail = True
                self._dirty_offset = start_offset
                raise WALWriteError(f"WAL append failed: {error}") from error
            seq = self._next_seq
            self._next_seq += 1
            self._appended_records += 1
            self._appended_bytes += _HEADER.size + len(blob)
            return seq

    def sync(self) -> None:
        """Force an fsync of the active segment (no-op when nothing is open)."""
        with self._lock:
            if self._file is not None:
                self._sync_file(self._file)

    # ------------------------------------------------------------------
    # Replay and truncation
    # ------------------------------------------------------------------
    def replay(self, after_seq: int = -1) -> Iterator[WALRecord]:
        """Yield every valid record with ``seq > after_seq`` in order.

        Tolerates a torn tail on the final segment (stops before it);
        raises :class:`~repro.exceptions.WALCorruptError` on mid-log
        damage, same as :meth:`scan`.
        """
        paths = self._segment_paths()
        for position, path in enumerate(paths):
            is_last_segment = position == len(paths) - 1
            first_seq = int(_SEGMENT_RE.match(path.name).group(1))
            with open(path, "rb") as handle:
                magic = handle.read(len(_MAGIC))
                if magic != _MAGIC:
                    raise WALCorruptError(
                        f"bad segment magic in {path.name}: {magic!r}", path=path, offset=0
                    )
                expected = first_seq
                while True:
                    record_offset = handle.tell()
                    header = handle.read(_HEADER.size)
                    if not header:
                        break
                    torn = None
                    if len(header) < _HEADER.size:
                        torn = "truncated record header"
                        payload = b""
                    else:
                        seq, length, crc = _HEADER.unpack(header)
                        if seq != expected:
                            torn = f"sequence jump (got {seq}, expected {expected})"
                            payload = b""
                        elif length > _MAX_RECORD_BYTES:
                            torn = f"implausible record length {length}"
                            payload = b""
                        else:
                            payload = handle.read(length)
                            if len(payload) < length:
                                torn = "truncated record payload"
                            elif zlib.crc32(payload) != crc:
                                torn = "payload checksum mismatch"
                    if torn is not None:
                        if is_last_segment and not handle.read(1):
                            return
                        raise WALCorruptError(
                            f"corrupt record in {path.name} at offset {record_offset}: {torn}",
                            path=path,
                            offset=record_offset,
                        )
                    if expected > after_seq:
                        yield WALRecord(seq=expected, payload=pickle.loads(payload))
                    expected += 1

    def advance_to(self, seq: int) -> None:
        """Number the next record *seq* or later.

        A checkpoint covering every record before *seq* may have removed
        every segment (:meth:`truncate_through` keeps only the active
        file, and a log reopened by a recovery has none until its first
        append).  Reopened, such a log would number its next record 0, and
        a recovery from that checkpoint would skip it.
        """
        with self._lock:
            self._next_seq = max(self._next_seq, int(seq))

    def truncate_through(self, seq: int) -> int:
        """Delete whole segments whose records are all ``<= seq``.

        Called after a snapshot checkpoint covering everything through
        ``seq`` — the deleted prefix is no longer needed for recovery.
        Only removes *entire* segments (a segment straddling ``seq`` is
        kept; replay skips its already-checkpointed prefix via
        ``after_seq``).  Returns the number of segments removed.
        """
        removed = 0
        with self._lock:
            paths = self._segment_paths()
            for position, path in enumerate(paths):
                next_first = (
                    int(_SEGMENT_RE.match(paths[position + 1].name).group(1))
                    if position + 1 < len(paths)
                    else self._next_seq
                )
                # Segment covers [first_seq, next_first); removable when the
                # whole range is checkpointed and it is not the active file.
                if next_first - 1 <= seq and path != self._file_path:
                    path.unlink()
                    removed += 1
                else:
                    break
        return removed

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Flush, fsync and close the active segment."""
        with self._lock:
            if self._file is not None:
                try:
                    self._sync_file(self._file)
                finally:
                    self._file.close()
                    self._file = None
            self._closed = True

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
