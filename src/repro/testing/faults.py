"""Chaos-injection primitives for the serving stack.

:class:`FaultInjector`
    Imperative, site-based fault firing for *in-process* code paths.
    Components expose named sites (the WAL fires ``"wal.append"``,
    ``"wal.flush"`` and ``"wal.fsync"``); tests arm an action — raise
    disk-full, crash the process, sleep past a timeout — to run on the
    K-th pass through a site.  This turns "crash exactly between the WAL
    flush and the table apply" from a race into a deterministic test.

Plus file-corruption helpers (:func:`tear_tail`, :func:`flip_byte`) for
manufacturing torn and bit-rotted WAL segments / snapshot files on disk.

Everything here is import-safe in production code: an unarmed injector is
a no-op, and the helpers touch nothing until called.
"""

from __future__ import annotations

import errno
import os
import signal
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Optional

from repro.exceptions import InvalidParameterError

__all__ = [
    "FaultInjector",
    "crash_process",
    "flip_byte",
    "raise_disk_full",
    "sleep_for",
    "tear_tail",
]


@dataclass
class _ArmedFault:
    action: Callable[[], None]
    after: int
    remaining: Optional[int]
    passes: int = 0
    triggered: int = 0


class FaultInjector:
    """Fires armed actions at named sites inside instrumented components.

    >>> injector = FaultInjector()
    >>> injector.arm("wal.append", raise_disk_full, after=3)
    >>> wal = WriteAheadLog.open(path, fault_injector=injector)
    >>> # the 4th append raises WALWriteError(ENOSPC); earlier ones succeed

    ``after`` counts passes through the site before the action first runs
    (``after=0`` → the very next pass).  ``times`` bounds how many passes
    trigger the action (default 1; ``None`` → every subsequent pass).
    Unarmed sites cost one dict lookup — safe to leave instrumented in
    production code paths.
    """

    def __init__(self):
        self._armed: Dict[str, _ArmedFault] = {}
        self._lock = threading.Lock()

    def arm(
        self,
        site: str,
        action: Callable[[], None],
        after: int = 0,
        times: Optional[int] = 1,
    ) -> None:
        """Arm ``action`` to run on passes through ``site``."""
        if not callable(action):
            raise InvalidParameterError("FaultInjector action must be callable")
        if int(after) < 0:
            raise InvalidParameterError("FaultInjector after must be >= 0")
        if times is not None and int(times) < 1:
            raise InvalidParameterError("FaultInjector times must be >= 1 or None")
        with self._lock:
            self._armed[site] = _ArmedFault(
                action=action,
                after=int(after),
                remaining=None if times is None else int(times),
            )

    def disarm(self, site: str) -> None:
        """Remove whatever is armed at ``site`` (no-op when nothing is)."""
        with self._lock:
            self._armed.pop(site, None)

    def fired(self, site: str) -> int:
        """How many times the armed action at ``site`` has actually run."""
        with self._lock:
            fault = self._armed.get(site)
            return 0 if fault is None else fault.triggered

    def fire(self, site: str) -> None:
        """Called by instrumented components on every pass through ``site``.

        Runs the armed action when its trigger window is reached; whatever
        the action raises propagates into the component, exactly as a real
        fault at that site would.
        """
        with self._lock:
            fault = self._armed.get(site)
            if fault is None:
                return
            fault.passes += 1
            due = fault.passes > fault.after and (
                fault.remaining is None or fault.remaining > 0
            )
            if due:
                if fault.remaining is not None:
                    fault.remaining -= 1
                fault.triggered += 1
        if due:
            fault.action()


# ----------------------------------------------------------------------
# Actions
# ----------------------------------------------------------------------
def raise_disk_full() -> None:
    """Action: fail like a full disk (``OSError(ENOSPC)``).

    Armed on ``"wal.append"``/``"wal.fsync"`` this surfaces to callers as
    :class:`~repro.exceptions.WALWriteError` and over HTTP as ``507``.
    """
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def crash_process(mode: str = "kill") -> None:
    """Action: die the way a real crash does — no cleanup, no handlers.

    ``"kill"`` SIGKILLs the current process (nothing runs afterwards —
    the honest simulation of ``kill -9`` / OOM-kill); ``"exit"`` uses
    ``os._exit(1)`` (skips ``atexit``/finally but flushes nothing).
    Only meaningful in a sacrificial subprocess.
    """
    if mode == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
    elif mode == "exit":
        os._exit(1)
    else:  # pragma: no cover - guarded by callers
        raise InvalidParameterError(f"crash_process mode must be 'kill' or 'exit', got {mode!r}")


def sleep_for(seconds: float) -> Callable[[], None]:
    """Action factory: stall a site (e.g. delay a WAL flush past a timeout)."""

    def action() -> None:
        time.sleep(seconds)

    return action


# ----------------------------------------------------------------------
# On-disk corruption helpers
# ----------------------------------------------------------------------
def tear_tail(path, drop_bytes: int) -> int:
    """Truncate the last ``drop_bytes`` bytes of ``path`` — a torn write.

    Manufactures the residue of a crash mid-append: the file ends inside a
    record header or payload.  Returns the new file size.
    """
    path = Path(path)
    size = path.stat().st_size
    if not 0 < int(drop_bytes) <= size:
        raise InvalidParameterError(
            f"drop_bytes must be in (0, {size}], got {drop_bytes!r}"
        )
    new_size = size - int(drop_bytes)
    with open(path, "r+b") as handle:
        handle.truncate(new_size)
    return new_size


def flip_byte(path, offset: int) -> None:
    """XOR one byte of ``path`` with 0xFF — simulated bit rot.

    Negative offsets index from the end, like Python slicing.
    """
    path = Path(path)
    size = path.stat().st_size
    if offset < 0:
        offset += size
    if not 0 <= offset < size:
        raise InvalidParameterError(f"offset {offset!r} outside file of {size} bytes")
    with open(path, "r+b") as handle:
        handle.seek(offset)
        byte = handle.read(1)
        handle.seek(offset)
        handle.write(bytes([byte[0] ^ 0xFF]))
