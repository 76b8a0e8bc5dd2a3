"""Serving-engine benchmarks: batched execution and online index mutation.

Two claims of the engine layer are quantified here and persisted to
``benchmarks/results/``:

* **Batched beats the per-query loop.**  ``BatchQueryEngine.run`` on a
  1000+ query workload must be at least 3x faster than calling
  ``sampler.sample`` in a Python loop.  The win comes from hashing the
  batch's distinct queries against all ``L`` tables in one vectorized pass,
  gathering candidates with array operations, and coalescing duplicate
  requests (exact for the query-deterministic Section 3 sampler).  Serving
  traffic is heavy-tailed, so the headline workload draws queries
  Zipf-distributed over the user base; the uniform-cycle and all-distinct
  workloads are reported alongside for honesty about where the win comes
  from.
* **Online mutation beats refitting.**  Applying a 30% churn (deletes +
  inserts) through ``DynamicLSHTables`` must be faster than even the
  laziest offline alternative — one full ``fit`` over the final dataset.
"""

from __future__ import annotations

import time

import numpy as np

from benchmarks.conftest import write_result, write_result_json
from repro.core import PermutationFairSampler
from repro.engine import BatchQueryEngine
from repro.lsh import LSHTables, MinHashFamily

RADIUS = 0.2
FAR = 0.1


def _timed(callable_):
    start = time.perf_counter()
    value = callable_()
    return value, time.perf_counter() - start


def _fresh_engine(dataset, seed=7):
    sampler = PermutationFairSampler(
        MinHashFamily(), radius=RADIUS, far_radius=FAR, recall=0.95, seed=seed
    )
    return BatchQueryEngine.build(sampler, dataset, seed=seed)


def test_batched_vs_per_query_throughput(small_lastfm):
    engine = _fresh_engine(small_lastfm)
    sampler = engine.sampler
    rng = np.random.default_rng(3)
    n = len(small_lastfm)

    zipf_ids = rng.zipf(1.3, size=1500) % n
    workloads = [
        ("zipf-hot (1500 queries)", [small_lastfm[i] for i in zipf_ids]),
        ("uniform cycle (1000 queries)", [small_lastfm[i % n] for i in range(1000)]),
        ("all distinct (300 queries)", list(small_lastfm)),
    ]

    lines = ["workload                        batched      loop    speedup"]
    speedups = {}
    payload = {"workloads": {}}
    for label, queries in workloads:
        engine.sample_batch(queries[:50])  # warm both paths
        batched_answers, batched_time = _timed(lambda: engine.sample_batch(queries))
        loop_answers, loop_time = _timed(lambda: [sampler.sample(q) for q in queries])
        assert batched_answers == loop_answers  # the fast path may not change answers
        speedups[label] = loop_time / batched_time
        payload["workloads"][label] = {
            "wall_ms_batched": round(batched_time * 1000, 3),
            "wall_ms_loop": round(loop_time * 1000, 3),
            "speedup": round(speedups[label], 2),
            "queries": len(queries),
        }
        lines.append(
            f"{label:<30}  {batched_time * 1000:7.1f}ms {loop_time * 1000:7.1f}ms  {speedups[label]:6.2f}x"
        )

    lines.append("")
    lines.append(f"engine stats: {engine.stats.to_dict()}")
    write_result("engine_batched_throughput", "\n".join(lines))
    payload["engine_stats"] = engine.stats.to_dict()
    write_result_json("engine_batched_throughput", payload)

    # Acceptance: >= 3x on the serving-shaped (>= 1k queries) workloads.
    assert speedups["zipf-hot (1500 queries)"] >= 3.0
    assert speedups["uniform cycle (1000 queries)"] >= 3.0


def test_dynamic_churn_vs_full_refit(small_lastfm):
    rng = np.random.default_rng(4)
    engine = _fresh_engine(small_lastfm)
    n = len(small_lastfm)
    churn = int(0.3 * n)
    doomed = rng.choice(n, size=churn, replace=False)
    replacements = [
        frozenset(int(x) for x in rng.choice(5000, size=rng.integers(5, 40)))
        for _ in range(churn)
    ]

    def apply_churn():
        for index in doomed:
            engine.delete(int(index))
        return engine.insert_many(replacements)

    _, dynamic_time = _timed(apply_churn)

    # The lazy offline alternative: one full rebuild over the final dataset.
    doomed_set = {int(d) for d in doomed}
    final_dataset = [
        point for i, point in enumerate(small_lastfm) if i not in doomed_set
    ] + replacements
    tables = engine.tables
    _, refit_time = _timed(
        lambda: LSHTables(tables.family, tables.num_tables, seed=5).fit(final_dataset)
    )

    advantage = refit_time / dynamic_time
    write_result(
        "engine_dynamic_churn",
        "\n".join(
            [
                f"dataset size: {n}, churn: {churn} deletes + {churn} inserts",
                f"dynamic insert/delete: {dynamic_time * 1000:.1f}ms "
                f"(compactions: {engine.tables.rebuilds_triggered})",
                f"full refit of final dataset: {refit_time * 1000:.1f}ms",
                f"advantage: {advantage:.2f}x",
            ]
        ),
    )
    write_result_json(
        "engine_dynamic_churn",
        {
            "dataset_size": n,
            "churn_deletes": int(churn),
            "churn_inserts": int(churn),
            "wall_ms_dynamic": round(dynamic_time * 1000, 3),
            "wall_ms_refit": round(refit_time * 1000, 3),
            "advantage": round(advantage, 2),
            "compactions": engine.tables.rebuilds_triggered,
        },
    )
    assert dynamic_time < refit_time

    # The mutated engine still serves: every answer must be a live point.
    responses = engine.run(list(small_lastfm[:20]))
    alive = engine.tables.alive
    for response in responses:
        if response.found:
            assert alive[response.index]
