"""Batched serving throughput on a 100k-point clustered workload.

Single-draw batch latency of ``BatchQueryEngine`` on one 100k-point
euclidean serving workload, persisted to
``benchmarks/results/engine_sharded_throughput.json``.  The repository
benchmark (``perfbench/``) derives its embedding workload from
``_workload`` and ``_sampler`` here, so this file keeps its name.

* **Permutation single draws** (Section 3) ride the bounded rank-prefix
  gather: each query collects only its bottom-``B`` colliding references
  by rank and certifies its answer from that prefix.
* **Standard-LSH single draws** take the full-view fallback: the
  classical scan is bucket by bucket, not in rank order, so a rank prefix
  cannot decide it.  The sampler is query-deterministic, so the fallback
  answers run in parallel chunks on the shared thread pool; the row is
  measured with that pool on and off,
  one engine per arm.  Answers and counters must be byte-identical either
  way, and on multicore hosts the parallel run must not be slower than
  the serial one by more than 10%.

Every row is the median of ``REPEATS`` interleaved timed runs (runs of the
two standard-LSH arms alternate, so both see the same stretch of host
noise), with the minimum and maximum recorded beside it.  The numbers are
from whatever host runs the benchmark.

The workload is clustered (serving traffic queries near existing data):
100k points in 400 Gaussian clusters, queries landing near cluster centers,
radius covering the local cluster — dense neighborhoods, large buckets,
early hits.  Mutation-inclusive equivalence is covered by the tier-1 suite
(``tests/test_gather_equivalence.py``); this file is about throughput.
"""

from __future__ import annotations

import gc
import os
import statistics
import time

import numpy as np

import repro.engine.batch as engine_batch
from benchmarks.conftest import write_result, write_result_json
from repro.core import PermutationFairSampler, StandardLSHSampler
from repro.engine import BatchQueryEngine
from repro.engine.requests import QueryRequest
from repro.lsh import PStableFamily

N_POINTS = 100_000
DIM = 24
N_CLUSTERS = 400
N_QUERIES = 300
RADIUS = 2.8
FAR_RADIUS = 6.0
REPEATS = 5


def _timed(callable_):
    start = time.perf_counter()
    value = callable_()
    return value, time.perf_counter() - start


def _timed_interleaved(*callables, repeats=REPEATS):
    """``(value, [seconds per run])`` of each callable over *repeats* rounds.

    Calls alternate within every round, so each callable sees the same
    stretch of host noise; every run must return the first run's value.
    """
    values = [None] * len(callables)
    seconds = [[] for _ in callables]
    for round_index in range(repeats):
        for slot, callable_ in enumerate(callables):
            value, elapsed = _timed(callable_)
            if round_index == 0:
                values[slot] = value
            assert value == values[slot]
            seconds[slot].append(elapsed)
    return list(zip(values, seconds))


def _summary(seconds):
    """Median and spread of a row's runs, in milliseconds."""
    return {
        "wall_ms_batch_median": round(statistics.median(seconds) * 1000, 1),
        "wall_ms_batch_min": round(min(seconds) * 1000, 1),
        "wall_ms_batch_max": round(max(seconds) * 1000, 1),
        "runs": len(seconds),
    }


def _workload():
    rng = np.random.default_rng(2024)
    centers = rng.normal(size=(N_CLUSTERS, DIM)) * 2.0
    assignment = rng.integers(0, N_CLUSTERS, size=N_POINTS)
    points = centers[assignment] + rng.normal(size=(N_POINTS, DIM)) * 0.35
    dataset = [points[i] for i in range(N_POINTS)]
    queries = [
        centers[c] + rng.normal(size=DIM) * 0.3
        for c in rng.integers(0, N_CLUSTERS, size=N_QUERIES)
    ]
    return dataset, queries


def _sampler(seed=17):
    return PermutationFairSampler(
        PStableFamily(dim=DIM, width=8.0),
        radius=RADIUS,
        far_radius=FAR_RADIUS,
        num_hashes=2,
        num_tables=10,
        seed=seed,
    )


def _standard_lsh_sampler(seed=17):
    return StandardLSHSampler(
        PStableFamily(dim=DIM, width=8.0),
        radius=RADIUS,
        far_radius=FAR_RADIUS,
        num_hashes=2,
        num_tables=10,
        seed=seed,
        use_ranks=True,
    )


def _with_workers(workers, callable_):
    """Run *callable_* with the fallback pool sized *workers* (1: serial)."""

    def run():
        saved = engine_batch._ANSWER_WORKERS
        engine_batch._ANSWER_WORKERS = workers
        try:
            return callable_()
        finally:
            engine_batch._ANSWER_WORKERS = saved

    return run


def test_sharded_batched_throughput():
    """Permutation and standard-LSH single-draw batches; the parallel
    fallback answers standard LSH byte-identically to the serial one."""
    dataset, queries = _workload()
    workers = engine_batch._ANSWER_WORKERS

    permutation, build_seconds = _timed(lambda: BatchQueryEngine.build(_sampler(), dataset))
    permutation.sample_batch(queries[:20])  # warm caches and the columnar store
    ((answers, permutation_seconds),) = _timed_interleaved(
        lambda: permutation.sample_batch(queries)
    )
    found = sum(answer is not None for answer in answers)
    permutation_stats = permutation.stats.to_dict()
    del permutation
    gc.collect()

    # One engine per arm, so each arm's counters can be compared whole.
    parallel_engine = BatchQueryEngine.build(_standard_lsh_sampler(), dataset)
    serial_engine = BatchQueryEngine.build(_standard_lsh_sampler(), dataset)
    _with_workers(workers, lambda: parallel_engine.sample_batch(queries[:20]))()
    _with_workers(1, lambda: serial_engine.sample_batch(queries[:20]))()
    (parallel_answers, parallel_seconds), (serial_answers, serial_seconds) = (
        _timed_interleaved(
            _with_workers(workers, lambda: parallel_engine.sample_batch(queries)),
            _with_workers(1, lambda: serial_engine.sample_batch(queries)),
        )
    )
    # Answering the fallback in parallel changes no answer and no counter.
    assert parallel_answers == serial_answers
    standard_stats = parallel_engine.stats.to_dict()
    assert standard_stats == serial_engine.stats.to_dict()
    del parallel_engine, serial_engine
    gc.collect()

    rows = {
        "permutation_single": _summary(permutation_seconds),
        "standard_lsh_single_parallel": _summary(parallel_seconds),
        "standard_lsh_single_serial": _summary(serial_seconds),
    }
    lines = [
        f"workload: {N_POINTS} points, dim {DIM}, {N_CLUSTERS} clusters, "
        f"{N_QUERIES} queries, radius {RADIUS} (answers found: {found}/{N_QUERIES})",
        f"host: {os.cpu_count()} CPUs, fallback pool of {workers} threads",
        f"permutation build: {build_seconds:8.2f}s",
        "",
        f"mode                            median (min-max over {REPEATS} runs)",
    ]
    for mode, row in rows.items():
        lines.append(
            f"{mode:<31} {row['wall_ms_batch_median']:7.1f}ms "
            f"({row['wall_ms_batch_min']:.1f}-{row['wall_ms_batch_max']:.1f})"
        )
    lines.append(
        f"\npermutation: {permutation_stats['prefix_scans']} prefix scans, "
        f"{permutation_stats['prefix_escalations']} escalations; standard LSH: "
        f"{standard_stats['prefix_scans']} prefix scans"
    )
    write_result("engine_sharded_throughput", "\n".join(lines))
    write_result_json(
        "engine_sharded_throughput",
        {
            "workload": {
                "points": N_POINTS,
                "dim": DIM,
                "clusters": N_CLUSTERS,
                "queries": N_QUERIES,
                "radius": RADIUS,
                "answers_found": int(found),
            },
            "host_cpus": os.cpu_count(),
            "fallback_workers": workers,
            "rows": rows,
        },
    )

    if workers > 1:
        # The pool may only help: it must not cost the fallback real time.
        parallel = statistics.median(parallel_seconds)
        serial = statistics.median(serial_seconds)
        assert parallel <= serial * 1.1, (
            f"parallel fallback {parallel * 1000:.1f}ms exceeds 1.1x "
            f"serial {serial * 1000:.1f}ms"
        )


def test_prefix_path_covers_sample_k_and_standard_lsh():
    """The prefix path carries ``sample_k``, and standard LSH stays off it.

    On the same 100k-point workload the throughput test measures,
    ``sample_k`` batches (Section 3.1 k-lowest-ranks draws) ride the
    bounded rank-prefix gather (``prefix_scans > 0``), while classical
    ``standard_lsh`` single-draw batches over rank-built tables answer from
    the full view (``prefix_scans == 0``).
    """
    dataset, queries = _workload()
    modes = {
        "permutation_sample_k3": (
            _sampler,
            [QueryRequest(q, k=3, replacement=False) for q in queries],
        ),
        "standard_lsh_single": (_standard_lsh_sampler, list(queries)),
    }

    lines = [
        f"workload: {N_POINTS} points, dim {DIM}, {N_CLUSTERS} clusters, "
        f"{N_QUERIES} queries, radius {RADIUS}",
        "",
        f"mode                      batch (median of {REPEATS})   prefix-scans   escalations",
    ]
    payload = {}
    for mode, (make_sampler, requests) in modes.items():
        engine = BatchQueryEngine.build(make_sampler(), dataset)
        engine.run(requests[:20])
        ((_, seconds),) = _timed_interleaved(lambda: engine.run(requests))
        stats = engine.stats
        if mode == "standard_lsh_single":
            assert stats.prefix_scans == 0, mode
        else:
            assert stats.prefix_scans > 0, mode
        payload[mode] = {
            **_summary(seconds),
            "prefix_scans": stats.prefix_scans,
            "prefix_escalations": stats.prefix_escalations,
            "prefix_budget": engine.stats_dict()["counters"]["prefix_budget"],
        }
        lines.append(
            f"{mode:<25} {statistics.median(seconds) * 1000:9.1f}ms "
            f"{stats.prefix_scans:>23} {stats.prefix_escalations:>13}"
        )
        del engine
        gc.collect()

    write_result("engine_gather_prefix", "\n".join(lines))
    write_result_json("engine_gather_prefix", payload)
