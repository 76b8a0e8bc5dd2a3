"""Per-query memoized candidate evaluation over the columnar dataset stores.

:class:`CandidateEvaluator` is the seam between the samplers' query
procedures and the distance layer.  Each query builds one evaluator; every
candidate array the query wants scored goes through :meth:`values`, which

* memoizes results in a flat ``float64`` array indexed by dataset slot,
  with a ``bool`` mask of the slots already evaluated, replacing the
  per-``int`` dict caches the scalar loops used — re-examining a candidate in
  a later rejection round is an array gather, not a Python dict probe per
  index.  Neither array is filled at construction (an all-``False`` mask is
  zeroed memory), so a query that scores a few dozen candidates does not pay
  for writing one value per dataset slot;
* evaluates all not-yet-seen candidates with **one**
  :meth:`~repro.distances.base.Measure.values_at` kernel call, so a
  rejection round costs one kernel invocation instead of one Python-level
  ``Measure.value`` call per candidate;
* counts fresh pair evaluations (``fresh_evaluations``, feeding
  ``QueryStats.distance_evaluations``) and kernel invocations
  (``kernel_calls``), the counters the perf-guard CI job asserts on.

When the dataset has no columnar store (exotic representations) — or when
the :func:`scalar_kernels` override is active — the evaluator scores
candidates through the scalar ``Measure.value`` loop instead.  The two modes
are *exactly* equivalent: the scalar measure implementations share the batch
kernels' arithmetic recipes, so seeded sampler outputs are byte-identical
either way (property-tested in ``tests/test_vectorized_equivalence.py``).

Every pair is evaluated and counted at most once per query, whatever its
value — a ``NaN`` measure value (NaN-poisoned input data) is memoized like
any other.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from repro.distances.base import Measure

#: Process-wide switch for the vectorized kernels.  Tests and benchmarks
#: flip it through :func:`scalar_kernels` to pin the scalar reference path.
_VECTORIZE = True


@contextmanager
def scalar_kernels():
    """Force the scalar per-pair fallback while the context is active.

    Used by the equivalence tests (scalar vs vectorized byte-identical
    outputs) and by the benchmarks to measure the pipeline's speedup against
    the pre-vectorization evaluation cost.
    """
    global _VECTORIZE
    previous = _VECTORIZE
    _VECTORIZE = False
    try:
        yield
    finally:
        _VECTORIZE = previous


def vectorized_kernels_enabled() -> bool:
    """Whether evaluators built now will use the batch kernels."""
    return _VECTORIZE


class CandidateEvaluator:
    """Memoized measure evaluation between one query and dataset slots.

    Parameters
    ----------
    measure:
        The measure to evaluate.
    query:
        The query point (fixed for the evaluator's lifetime).
    store:
        Columnar :class:`~repro.store.base.DatasetStore` over the dataset, or
        ``None`` to force the scalar fallback.
    dataset:
        The raw dataset container (indexed by slot) for the scalar fallback.
    size:
        Number of dataset slots; bounds the memo array.
    """

    __slots__ = (
        "_measure",
        "_query",
        "_store",
        "_dataset",
        "_memo",
        "_seen",
        "fresh_evaluations",
        "kernel_calls",
    )

    def __init__(
        self,
        measure: Measure,
        query,
        store=None,
        dataset=None,
        size: int = 0,
    ):
        self._measure = measure
        self._query = query
        self._store = store if (_VECTORIZE and store is not None) else None
        self._dataset = dataset
        self._memo = np.empty(size, dtype=np.float64)
        self._seen = np.zeros(size, dtype=bool)
        #: Pair evaluations actually performed (memo misses).
        self.fresh_evaluations = 0
        #: Batch evaluations dispatched (one per round with any memo miss).
        self.kernel_calls = 0

    # ------------------------------------------------------------------
    def values(self, indices: np.ndarray) -> np.ndarray:
        """Measure values for the (distinct) dataset slots *indices*.

        Slots seen in an earlier call are served from the memo; the rest are
        scored with a single kernel call.  *indices* should not contain
        duplicates — duplicate misses would be evaluated (and counted) twice.
        """
        if indices.size == 0:
            return np.empty(0, dtype=np.float64)
        memo = self._memo
        values = memo[indices]
        miss_mask = ~self._seen[indices]
        if miss_mask.any():
            missing = indices[miss_mask]
            fresh = self._evaluate(missing)
            memo[missing] = fresh
            self._seen[missing] = True
            values[miss_mask] = fresh
            self.fresh_evaluations += int(missing.size)
            self.kernel_calls += 1
        return values

    def value(self, index: int) -> float:
        """Memoized scalar lookup (one slot)."""
        if self._seen[index]:
            return float(self._memo[index])
        return float(self.values(np.asarray([index], dtype=np.intp))[0])

    # ------------------------------------------------------------------
    def _evaluate(self, indices: np.ndarray) -> np.ndarray:
        if self._store is not None:
            return np.asarray(
                self._measure.values_at(self._store, indices, self._query), dtype=np.float64
            )
        dataset = self._dataset
        measure = self._measure
        query = self._query
        return np.asarray(
            [measure.value(dataset[int(i)], query) for i in indices], dtype=np.float64
        )
