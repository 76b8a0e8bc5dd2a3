"""The reference job that reads the machine's speed, run in a helper process.

Timing metrics are put at nominal machine speed by dividing by how long a
fixed job takes at the same moment (see README.md, "Noise").  The job runs
in a child process of its own, started by :func:`start`, so nothing the
library does to the benchmark's process — its heap, allocator state,
garbage-collector generations or threads — can change the job's time.
Only the machine can.

The parent asks for one sample at a time (:func:`ms`) and waits for the
answer, so the job never runs beside a timed call.  Run as a script, this
file is the helper: it answers each line on standard input with the time of
one job in ms, and exits at end of input.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from typing import List, Optional

#: Time of one reference job at nominal machine speed (ms).
REF_NOMINAL_MS = 7.0

_helper: Optional[subprocess.Popen] = None


def _job_inputs():
    import numpy as np

    keys = np.random.default_rng(0).integers(0, 1 << 40, size=8192)
    table = np.arange(1 << 21, dtype=np.float64)
    picks = np.random.default_rng(1).integers(0, 1 << 21, size=100_000)
    return np, keys, np.sort(keys), table, picks


def _job(np, keys, sorted_keys, table, picks) -> float:
    """Interpreted loops and dict stores, many small numpy calls, one medium
    sort and a random gather from a 16 MB table — the mix a query batch is
    made of, cache misses included."""
    total = 0
    scratch = {}
    for i in range(2000):
        scratch[i & 255] = total
        total += i * i
    for i in range(200):
        lo = int(np.searchsorted(sorted_keys, i << 30)) & 4095
        np.unique(keys[lo : lo + 16])
    np.unique(keys)
    return float(table[picks].sum()) + total


def _serve() -> None:
    inputs = _job_inputs()
    _job(*inputs)  # fault the table in before the first sample
    for _ in sys.stdin.buffer:
        start = time.perf_counter()
        _job(*inputs)
        sys.stdout.write(f"{(time.perf_counter() - start) * 1000.0!r}\n")
        sys.stdout.flush()


def start() -> None:
    """Start the helper process (once per run)."""
    global _helper
    _helper = subprocess.Popen(
        [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE, bufsize=0
    )


def ms() -> float:
    """Time of one reference job, run in the helper while this process waits."""
    _helper.stdin.write(b"\n")
    line = _helper.stdout.readline()
    if not line:
        raise RuntimeError(f"reference helper exited with code {_helper.wait()}")
    return float(line)


def stop() -> None:
    """End the helper and wait until it has exited."""
    global _helper
    helper, _helper = _helper, None
    if helper is None:
        return
    helper.stdin.close()
    try:
        helper.wait(timeout=10)
    except subprocess.TimeoutExpired:
        helper.kill()
        helper.wait()
    helper.stdout.close()


def slowness(samples: List[float]) -> float:
    """Median reference time over the nominal one (> 1: slower than nominal)."""
    return statistics.median(samples) / REF_NOMINAL_MS


def local_slowness(samples: List[float], half: int = 4) -> List[float]:
    """Per round, the slowness over the rounds within *half* of it.

    Slow and fast phases last seconds, so a call is scaled by the speed of
    its own stretch of the loop, not by the loop's average.
    """
    return [slowness(samples[max(0, i - half) : i + half + 1]) for i in range(len(samples))]


if __name__ == "__main__":
    _serve()
