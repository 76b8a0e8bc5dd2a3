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
* **Incremental sketch maintenance beats the full rebuild.**  For the
  Section 4 sampler, folding an insert-only mutation batch into the
  affected bucket sketches (``O(batch x L)`` via the ``MutationDelta``)
  must be at least 5x faster than rebuilding every bucket sketch
  (``O(total bucket refs)``) at 100k indexed points and a 1% batch.
"""

from __future__ import annotations

import time

import numpy as np

from benchmarks.conftest import write_result, write_result_json
from repro.core import IndependentFairSampler, PermutationFairSampler
from repro.engine import BatchQueryEngine
from repro.lsh import LSHTables, MinHashFamily, OneBitMinHashFamily

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


def test_incremental_sketch_maintenance_vs_full_rebuild():
    """Tentpole acceptance (PR 2): on an insert-only mutation batch over a
    100k-point index, the Section 4 sampler's incremental ``_after_update``
    (merge the batch into the ``L`` affected bucket sketches, driven by the
    ``MutationDelta``) must be at least 5x faster than the pre-incremental
    behaviour of rebuilding every bucket sketch from scratch.

    1-bit MinHash with K=8 keeps the per-table key space at 256, so the
    index stores large, all-sketched buckets — the regime where sketch
    upkeep dominates and the full rebuild's O(total bucket refs) hurts.
    """
    rng = np.random.default_rng(42)
    n, batch = 100_000, 1_000
    items = rng.integers(0, 50_000, size=(n + batch, 8))
    dataset = [frozenset(int(x) for x in row) for row in items[:n]]
    batch_points = [frozenset(int(x) for x in row) for row in items[n:]]

    sampler = IndependentFairSampler(
        OneBitMinHashFamily(),
        radius=0.2,
        far_radius=0.05,
        num_hashes=8,
        num_tables=10,
        seed=5,
    )
    engine = BatchQueryEngine.build(sampler, dataset, seed=5)
    stored_refs = engine.tables.total_stored_references()
    sketched = sum(len(s) for s in sampler._bucket_sketches)

    probe = dataset[0]
    estimate_before = sampler.estimate_colliding_count(probe)

    engine.insert_many(batch_points)
    # Incremental path: drain the MutationDelta, merge the batch into the
    # affected sketches (O(batch x L)).
    _, incremental_time = _timed(sampler.notify_update)
    engine._tables_dirty = False
    estimate_incremental = sampler.estimate_colliding_count(probe)

    # The pre-incremental path: compact and re-sketch every bucket
    # (O(total bucket refs)) over exactly the same final tables.
    _, rebuild_time = _timed(lambda: sampler._after_update(None))
    estimate_rebuilt = sampler.estimate_colliding_count(probe)

    speedup = rebuild_time / incremental_time
    write_result(
        "engine_incremental_sketches",
        "\n".join(
            [
                f"index: {n} points, {engine.tables.num_tables} tables, "
                f"{stored_refs} stored refs, {sketched} sketched buckets",
                f"insert-only mutation batch: {batch} points (1%)",
                f"incremental _after_update (delta merge): {incremental_time * 1000:8.1f}ms",
                f"full sketch rebuild (pre-incremental):   {rebuild_time * 1000:8.1f}ms",
                f"speedup: {speedup:.1f}x",
                f"colliding-count estimate for a fixed probe: "
                f"{estimate_before:.0f} before batch, "
                f"{estimate_incremental:.0f} incremental, "
                f"{estimate_rebuilt:.0f} rebuilt",
            ]
        ),
    )
    write_result_json(
        "engine_incremental_sketches",
        {
            "index_points": n,
            "mutation_batch": batch,
            "tables": engine.tables.num_tables,
            "stored_references": int(stored_refs),
            "sketched_buckets": int(sketched),
            "wall_ms_incremental": round(incremental_time * 1000, 3),
            "wall_ms_full_rebuild": round(rebuild_time * 1000, 3),
            "speedup": round(speedup, 2),
            "estimate_before": round(estimate_before, 1),
            "estimate_incremental": round(estimate_incremental, 1),
            "estimate_rebuilt": round(estimate_rebuilt, 1),
        },
    )
    assert speedup >= 5.0
    # The incremental estimate must agree with the rebuilt one (different
    # hash draws, same data): generous 30% envelope on a ~4000-point count.
    assert abs(estimate_incremental - estimate_rebuilt) <= 0.3 * estimate_rebuilt
