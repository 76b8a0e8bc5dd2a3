"""Spans around calls into the library's layers, taken from outside it.

:class:`Tracer` replaces public methods of the layers' classes with timing
wrappers for the duration of a traced run and restores them afterwards.
Nothing inside ``src/`` is edited: a span starts when the benchmark (or a
layer above) calls into a layer and ends when that call returns.

Each thread keeps its own span stack.  A span's *self* time is its duration
minus the time of the spans nested inside it on the same thread, so the
self times of one thread's spans add up to the duration of its top-level
spans.  A call that re-enters the layer already on top of the stack (for
example ``sample_detailed`` delegating to ``sample_detailed_from_candidates``)
is folded into the running span instead of opening a second one.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

_now = time.perf_counter_ns


class Tracer:
    """Per-layer span accumulators, thread-safe."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: List[tuple] = []
        self.reset()

    def reset(self) -> None:
        """Forget every recorded span (patches stay in place)."""
        #: layer -> summed self time (ns)
        self.self_ns: Dict[str, int] = defaultdict(int)
        #: layer -> summed inclusive time (ns)
        self.total_ns: Dict[str, int] = defaultdict(int)
        #: layer -> number of spans
        self.calls: Dict[str, int] = defaultdict(int)
        #: layer -> inclusive duration of every span (ns), for percentiles
        self.durations: Dict[str, List[int]] = defaultdict(list)
        #: free-form counters fed by ``on_result`` hooks
        self.counts: Dict[str, float] = defaultdict(float)
        #: (parent layer, layer) -> summed inclusive time (ns)
        self.edge_ns: Dict[tuple, int] = defaultdict(int)
        self.spans = 0

    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, layer: str, fn: Callable, *args, on_result=None, **kwargs):
        """Call ``fn(*args, **kwargs)`` inside a span named *layer*."""
        stack = self._stack()
        if stack and stack[-1][0] == layer:
            return fn(*args, **kwargs)
        frame = [layer, 0]
        stack.append(frame)
        start = _now()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = _now() - start
            stack.pop()
            parent = stack[-1] if stack else None
            if parent is not None:
                parent[1] += elapsed
            self._record(layer, elapsed, elapsed - frame[1], parent)
        if on_result is not None:
            with self._lock:
                on_result(self.counts, args, result)
        return result

    def _record(self, layer: str, elapsed: int, self_time: int, parent: Optional[list]) -> None:
        with self._lock:
            self.self_ns[layer] += self_time
            self.total_ns[layer] += elapsed
            self.calls[layer] += 1
            self.durations[layer].append(elapsed)
            self.spans += 1
            if parent is not None:
                self.edge_ns[(parent[0], layer)] += elapsed

    def inclusive_ns(self, layer: str) -> int:
        with self._lock:
            return self.total_ns[layer]

    # ------------------------------------------------------------------
    def patch(self, owner, attr: str, layer: str, on_result=None) -> None:
        """Wrap ``owner.attr`` (a plain function on a class or module) in spans."""
        original = owner.__dict__[attr]
        tracer = self

        def wrapped(*args, **kwargs):
            return tracer.span(layer, original, *args, on_result=on_result, **kwargs)

        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def patch_generator(self, owner, attr: str, layer: str) -> None:
        """Wrap a generator method: the span runs from the first item to exhaustion.

        The consumer's work between items happens inside the span, so a
        replay loop's applies count as children of the replay.
        """
        original = owner.__dict__[attr]
        tracer = self

        def wrapped(*args, **kwargs):
            return _SpanIterator(tracer, layer, iter(original(*args, **kwargs)))

        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def per_call_overhead_ns(self, repeats: int = 20000) -> float:
        """Measured cost of one span around a no-op, in ns (median of 5)."""

        def noop():
            return None

        samples = []
        for _ in range(5):
            start = _now()
            for _ in range(repeats):
                noop()
            bare = _now() - start
            probe = Tracer()
            start = _now()
            for _ in range(repeats):
                probe.span("probe", noop)
            samples.append(max(0, (_now() - start) - bare) / repeats)
        samples.sort()
        return samples[len(samples) // 2]


class _SpanIterator:
    """Iterator that keeps a span open on its thread until it is exhausted."""

    def __init__(self, tracer: Tracer, layer: str, inner) -> None:
        self._tracer = tracer
        self._layer = layer
        self._inner = inner
        self._frame: Optional[list] = None
        self._start = 0

    def __iter__(self):
        return self

    def __next__(self):
        if self._frame is None:
            self._frame = [self._layer, 0]
            self._tracer._stack().append(self._frame)
            self._start = _now()
        try:
            return next(self._inner)
        except BaseException:
            self._close()
            raise

    def _close(self) -> None:
        frame, self._frame = self._frame, None
        if frame is None:
            return
        elapsed = _now() - self._start
        stack = self._tracer._stack()
        if stack and stack[-1] is frame:
            stack.pop()
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[1] += elapsed
        self._tracer._record(self._layer, elapsed, elapsed - frame[1], parent)
