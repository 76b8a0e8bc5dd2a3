"""The bounded rank-prefix gather behind every prefix-capable query.

:class:`~repro.engine.batch.BatchQueryEngine` answers prefix-capable
queries from two primitives, defined here:

* :func:`bounded_prefix` — a table set's bottom-``B``-by-rank slice of its
  colliding multiset, computed in O(tables × B) by exploiting the
  :class:`~repro.lsh.tables.Bucket` invariant that ranked buckets are stored
  sorted ascending by rank (each bucket's bottom-``B`` is a plain slice, and
  the final ``argpartition`` runs over at most ``l × B`` pre-cut entries
  instead of the full multiset).  The slice is cut strictly below its
  truncation boundary, so every reference ranked lower is provably present
  and the result is a **true rank prefix** of the full colliding view.  The
  returned :class:`PrefixView` carries the completeness flag the samplers
  use to decide whether their answer is provable from the prefix alone.
  :meth:`LSHTables.colliding_view <repro.lsh.tables.LSHTables.
  colliding_view>` is this one call; with no limit it is the full view.
* :class:`PrefixBudgetController` — the self-tuning gather budget: batches
  open at the smallest limit that certified ~7/8 of the previous batch
  (outliers escalate in cheap shared rounds instead of inflating every
  gather), a whole batch certifying in round one probes one step down
  immediately, and every fourth tuned batch probes down regardless so
  long-running serving tracks workload drift back *down* as well as up.
  Every move is a deterministic, order-insensitive function of the per-round
  certification counts, so the same batch stream always produces the
  **same budget sequence**.

Only samplers whose answer is a rank-ordered scan without query-time
randomness take this path (Section 3's
:class:`~repro.core.fair_nns.PermutationFairSampler`); every other sampler
answers from the full colliding view.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import InvalidParameterError

__all__ = [
    "PrefixBudgetController",
    "PrefixView",
    "bounded_prefix",
]


class PrefixView(tuple):
    """A rank-sorted candidate prefix, unpackable as ``(ranks, indices)``.

    Subclasses :class:`tuple` so every consumer of the bare ``(ranks,
    indices)`` view shape works unchanged; the completeness flag rides along
    as an attribute:

    Attributes
    ----------
    ranks, indices:
        The rank-sorted (ascending) candidate multiset — a true rank prefix
        of the full colliding view.
    complete:
        Whether nothing was truncated, i.e. the view *is* the full
        colliding view.
    """

    ranks: np.ndarray
    indices: np.ndarray
    complete: bool

    def __new__(
        cls, ranks: np.ndarray, indices: np.ndarray, complete: bool = True
    ) -> "PrefixView":
        view = super().__new__(cls, (ranks, indices))
        view.ranks = ranks
        view.indices = indices
        view.complete = complete
        return view


def bounded_prefix(tables, keys, limit: Optional[int]) -> PrefixView:
    """The bottom-*limit* rank prefix of a table set's colliding multiset.

    *tables* is any rank-built :class:`~repro.lsh.tables.LSHTables` and
    *keys* its per-table bucket keys for one query.  Returns the
    liveness-filtered colliding references in ascending rank order; with a
    *limit*, only a true rank prefix of them, flagged ``complete=False``
    when anything was cut (``limit=None`` keeps the whole multiset).

    The bounded cost comes from the :class:`~repro.lsh.tables.Bucket`
    invariant that ranked buckets are stored sorted ascending by rank:

    * each bucket's bottom-``limit`` is a plain O(1) slice, so dropping a
      bucket's tail can never drop a bottom-``limit`` member of the union
      (anything past a bucket's ``limit``-th member has ``limit`` smaller
      ranks ahead of it in that bucket alone);
    * the ``argpartition`` then runs over at most ``l * limit`` pre-cut
      entries instead of the full colliding multiset.

    References at the truncation boundary rank itself may have been cut,
    so a truncated slice is cut again strictly below that boundary, after
    which every surviving reference is provably present; a stable sort
    restores ascending rank order.
    """
    alive = tables._alive if getattr(tables, "_pending", None) else None
    rank_parts: List[np.ndarray] = []
    index_parts: List[np.ndarray] = []
    truncated = False
    for table, key in zip(tables._tables, keys):
        bucket = table.get(key)
        if bucket is None or not len(bucket):
            continue
        ranks = bucket.ranks
        indices = bucket.indices
        if alive is not None:
            keep = alive[indices]
            if not keep.all():
                ranks = ranks[keep]
                indices = indices[keep]
                if not ranks.size:
                    continue
        if limit is not None and ranks.size > limit:
            truncated = True
            ranks = ranks[:limit]
            indices = indices[:limit]
        rank_parts.append(ranks)
        index_parts.append(indices)
    if not rank_parts:
        return PrefixView(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.intp))
    ranks = np.concatenate(rank_parts) if len(rank_parts) > 1 else rank_parts[0]
    indices = np.concatenate(index_parts) if len(index_parts) > 1 else index_parts[0]
    if limit is not None and ranks.size > limit:
        keep = np.argpartition(ranks, limit - 1)[:limit]
        ranks = ranks[keep]
        indices = indices[keep]
        truncated = True
    if truncated:
        # Every bucket tail dropped above had >= limit smaller ranks ahead
        # of it, so the union is an exact prefix up to its largest rank;
        # cut strictly below that boundary rank.
        keep = ranks < ranks.max()
        ranks = ranks[keep]
        indices = indices[keep]
    order = np.argsort(ranks, kind="stable")
    return PrefixView(ranks[order], indices[order], complete=not truncated)


class PrefixBudgetController:
    """Self-tuning opening budget for the rank-prefix gather.

    Tracks the workload's *certifying depth*, not its deepest straggler: the
    next batch opens at the smallest budget that certified ~7/8 of the
    previous batch's queries — outliers escalate in cheap shared widened
    rounds instead of inflating every future gather.  The quantile follows
    the cost model: a query that fails round one wastes one bounded certify
    scan and joins a shared widened round, while a budget one step too deep
    doubles every query's gather and merge work — so paying escalations for
    up to ~12% of queries is cheaper than over-gathering for all of them.

    Certification alone can never reveal a *smaller* sufficient budget
    (rounds only ever observe limits at or above the opening one), so any
    budget clearing the quantile in round one is a fixed point — including
    ones a full step too deep.  Two decay paths fix that: when a whole batch
    certified in round one, probe one step down immediately; and on every
    *probe_every*-th tuned batch, probe one step down regardless, so
    long-running serving tracks workload drift back down as well as up.  A
    probe that undershoots costs one batch a cheap escalation round, and the
    quantile pick recovers the depth next batch.  The opening budget never
    leaves ``[floor, cap]``.

    Every move is a deterministic function of per-round ``(limit,
    certified_count)`` pairs — counts, not orderings — so the same batch
    stream always produces the same budget sequence, whatever order its
    queries were answered in.  The state is injectable (*start*) and
    observable (:meth:`state_dict`) for the equivalence tests.
    """

    def __init__(
        self,
        floor: int = 128,
        cap: int = 4096,
        probe_every: int = 4,
        start: Optional[int] = None,
    ):
        if floor < 1:
            raise InvalidParameterError(f"floor must be >= 1, got {floor}")
        if cap < floor:
            raise InvalidParameterError(
                f"cap must be >= floor, got cap={cap} floor={floor}"
            )
        if probe_every < 1:
            raise InvalidParameterError(f"probe_every must be >= 1, got {probe_every}")
        self.floor = int(floor)
        self.cap = int(cap)
        self.probe_every = int(probe_every)
        #: The opening budget of the next batch's gather round.
        self.limit = self._clamp(self.floor if start is None else int(start))
        #: Batches that certified at least one query (the probe-down clock).
        self.batches_tuned = 0

    def _clamp(self, value: int) -> int:
        return min(max(int(value), self.floor), self.cap)

    def observe_batch(
        self, certified_per_round: Sequence[Tuple[int, int]], opening: int
    ) -> None:
        """Retune from one batch's ``(limit, certified_count)`` rounds.

        *opening* is the budget the batch's first round ran at (normally
        :attr:`limit` as it stood when the batch started).  Batches that
        certified nothing leave the budget untouched — they carry no depth
        signal.
        """
        total = sum(count for _, count in certified_per_round)
        if not total:
            return
        self.batches_tuned += 1
        if len(certified_per_round) == 1:
            # The whole batch certified at the opening budget: probe down.
            tuned = max(int(opening) // 2, self.floor)
        else:
            cumulative = 0
            tuned = certified_per_round[-1][0]
            for round_limit, count in certified_per_round:
                cumulative += count
                if cumulative * 8 >= total * 7:
                    tuned = round_limit
                    break
            if self.batches_tuned % self.probe_every == 0:
                tuned = max(tuned // 2, self.floor)
        self.limit = self._clamp(tuned)

    def state_dict(self) -> dict:
        """The controller's full state (test/diagnostic surface)."""
        return {
            "limit": self.limit,
            "batches_tuned": self.batches_tuned,
            "floor": self.floor,
            "cap": self.cap,
            "probe_every": self.probe_every,
        }
