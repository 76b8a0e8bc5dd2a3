"""Sharded serving benchmark: batched throughput across index partitions.

Batched throughput of every engine on one 100k-point euclidean serving
workload, persisted to ``benchmarks/results/engine_sharded_throughput.json``:

* **One query path.**  The unsharded ``BatchQueryEngine`` runs the same
  bounded rank-prefix gather as the sharded engines — it is their one-shard
  case — so its 300-query batch must take at most **1.1x** the time of
  ``ShardedEngine`` at one shard, while every configuration returns
  byte-identical responses.

Where the speed comes from: a full-view Section 3 query materializes the
whole colliding multiset (tens of thousands of references on
candidate-heavy workloads), sorts it by rank and deduplicates it, even
though the answer — the minimum-rank near point — is almost always decided
within the first few hundred candidates.  The gather exploits the
exchangeable ``2^62`` rank domain instead: each table set (the whole index,
or each shard) surfaces only its bottom-``B`` colliding references by rank
in O(tables × B), per-shard prefixes merge into a provably complete global
rank prefix, and the sampler's early-exit scan runs on that — byte-identical
answers and work counters, at a fraction of the sort work.  On multicore
hosts the per-shard gathers and (for deterministic samplers) whole queries
additionally run on a thread pool; the numbers below are from whatever host
runs the benchmark.

The workload is clustered (serving traffic queries near existing data):
100k points in 400 Gaussian clusters, queries landing near cluster centers,
radius covering the local cluster — dense neighborhoods, large buckets,
early hits.  Mutation-inclusive equivalence is covered by the tier-1 suite
(``tests/test_sharded.py``); this file is about throughput.

The **process executor** (PR 7) is measured on the same workload:
``ProcessShardedEngine`` replicates each shard into a worker process
reading the dataset zero-copy through shared memory and gathers every
query's rank prefix in one batched frame round per shard.  Since PR 10
both executors run the *same* unified gather core and self-tuning
budget controller (``repro.engine.gather``), so the process fleet's
former algorithmic edge -- a narrower starting budget -- is now shared;
what remains process-specific is IPC framing cost versus true CPU
parallelism.  Acceptance: at the same shard count the worker-side
gather plus IPC batching must cost at most a bounded overhead over the
thread pool's in-process gathers (process @ 4 within 1.25x of thread
@ 4).  On a single-core container that overhead is all the process
fleet can show; on multicore hosts the GIL-free workers add real
parallelism on top and the ratio drops below 1.
"""

from __future__ import annotations

import gc
import time

import numpy as np

from benchmarks.conftest import write_result, write_result_json
from repro.core import PermutationFairSampler, StandardLSHSampler
from repro.engine import BatchQueryEngine, ProcessShardedEngine, ShardedEngine
from repro.engine.requests import QueryRequest
from repro.lsh import PStableFamily

N_POINTS = 100_000
DIM = 24
N_CLUSTERS = 400
N_QUERIES = 300
RADIUS = 2.8
FAR_RADIUS = 6.0
SHARD_COUNTS = (1, 2, 4)

# The thread@4 batched latency recorded in
# benchmarks/results/engine_sharded_throughput.txt before the unified
# gather layer (PR 10) replaced the static per-shard budget ladder with
# the shared self-tuning controller.  The port must pay for itself.
PRIOR_BEST_THREAD4_MS = 337.5
THREAD4_REQUIRED_IMPROVEMENT = 1.15


def _timed(callable_):
    start = time.perf_counter()
    value = callable_()
    return value, time.perf_counter() - start


def _timed_best(callable_, repeats=5):
    """Best-of-*repeats* wall time (same value every run: queries are
    deterministic).  Applied to every configuration identically, this
    filters scheduler noise on small hosts without biasing the comparison."""
    return _timed_interleaved(callable_, repeats=repeats)[0]


def _timed_interleaved(*callables, repeats=5):
    """Best-of-*repeats* ``(value, seconds)`` of each callable, calls
    alternating so that every callable sees the same stretch of host noise
    (the form a gate comparing two configurations needs)."""
    results = [_timed(callable_) for callable_ in callables]
    for _ in range(repeats - 1):
        for slot, callable_ in enumerate(callables):
            again, seconds = _timed(callable_)
            assert again == results[slot][0]
            results[slot] = (again, min(results[slot][1], seconds))
    return results


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


def test_sharded_batched_throughput():
    """The unsharded engine within 1.1x of sharded@1 on the 100k-point
    workload, byte-identical answers at every shard count."""
    dataset, queries = _workload()

    engine, build_seconds = _timed(lambda: BatchQueryEngine.build(_sampler(), dataset))
    one_shard, one_shard_build = _timed(
        lambda: ShardedEngine.build(_sampler(), dataset, n_shards=1)
    )
    engine.sample_batch(queries[:20])  # warm caches and the columnar store
    one_shard.sample_batch(queries[:20])
    # The gate compares these two, so they are timed in alternation.
    (reference, unsharded_seconds), one_shard_timing = _timed_interleaved(
        lambda: engine.sample_batch(queries), lambda: one_shard.sample_batch(queries)
    )
    found = sum(answer is not None for answer in reference)
    # The unsharded engine is only needed for its reference answers; drop it
    # so the memory it pins doesn't inflate allocator pressure (and worker
    # fork images) for every configuration measured after it.
    del engine
    gc.collect()

    lines = [
        f"workload: {N_POINTS} points, dim {DIM}, {N_CLUSTERS} clusters, "
        f"{N_QUERIES} queries, radius {RADIUS} (answers found: {found}/{N_QUERIES})",
        f"unsharded build: {build_seconds:8.2f}s",
        f"unsharded batch: {unsharded_seconds * 1000:8.1f}ms "
        f"({N_QUERIES / unsharded_seconds:7.0f} q/s)",
        "",
        "shards     batch      q/s   speedup   prefix-escalations   shard-merges",
    ]
    payload = {
        "workload": {
            "points": N_POINTS,
            "dim": DIM,
            "clusters": N_CLUSTERS,
            "queries": N_QUERIES,
            "radius": RADIUS,
            "answers_found": int(found),
        },
        "unsharded": {
            "wall_ms_build": round(build_seconds * 1000, 1),
            "wall_ms_batch": round(unsharded_seconds * 1000, 3),
            "queries_per_second": round(N_QUERIES / unsharded_seconds, 1),
        },
        "sharded": {},
    }

    speedups = {}
    thread_seconds = {}
    for n_shards in SHARD_COUNTS:
        if n_shards == 1:
            sharded, shard_build = one_shard, one_shard_build
            answers, sharded_seconds = one_shard_timing
        else:
            sharded, shard_build = _timed(
                lambda: ShardedEngine.build(_sampler(), dataset, n_shards=n_shards)
            )
            sharded.sample_batch(queries[:20])
            answers, sharded_seconds = _timed_best(lambda: sharded.sample_batch(queries))
        # The merge is exact: byte-identical answers at every shard count.
        assert answers == reference
        speedups[n_shards] = unsharded_seconds / sharded_seconds
        thread_seconds[n_shards] = sharded_seconds
        stats = sharded.stats
        lines.append(
            f"{n_shards:>6} {sharded_seconds * 1000:8.1f}ms {N_QUERIES / sharded_seconds:8.0f} "
            f"{speedups[n_shards]:8.2f}x {stats.prefix_escalations:>19} {stats.shard_merges:>14}"
        )
        payload["sharded"][str(n_shards)] = {
            "wall_ms_build": round(shard_build * 1000, 1),
            "wall_ms_batch": round(sharded_seconds * 1000, 3),
            "queries_per_second": round(N_QUERIES / sharded_seconds, 1),
            "speedup_vs_unsharded": round(speedups[n_shards], 2),
            "byte_identical": True,
            "prefix_scans": stats.prefix_scans,
            "prefix_escalations": stats.prefix_escalations,
            "shard_merges": stats.shard_merges,
        }
        sharded.close()
        gc.collect()

    lines += [
        "",
        "process executor (shard replicas in worker processes, shared-memory "
        "dataset):",
        "shards     batch      q/s   speedup   prefix-escalations   ipc-sent"
        "   ipc-recv",
    ]
    payload["process"] = {}
    process_seconds = {}
    for n_shards in SHARD_COUNTS:
        gc.collect()
        procs, proc_build = _timed(
            lambda: ProcessShardedEngine.build(_sampler(), dataset, n_shards=n_shards)
        )
        try:
            procs.sample_batch(queries[:20])
            answers, proc_seconds_ = _timed_best(lambda: procs.sample_batch(queries))
            # Still byte-identical: the worker gather is the same provably
            # complete rank prefix, just computed out-of-process.
            assert answers == reference
            process_seconds[n_shards] = proc_seconds_
            stats = procs.stats
            lines.append(
                f"{n_shards:>6} {proc_seconds_ * 1000:8.1f}ms "
                f"{N_QUERIES / proc_seconds_:8.0f} "
                f"{unsharded_seconds / proc_seconds_:8.2f}x "
                f"{stats.prefix_escalations:>19} "
                f"{stats.ipc_bytes_sent:>10} {stats.ipc_bytes_received:>10}"
            )
            payload["process"][str(n_shards)] = {
                "wall_ms_build": round(proc_build * 1000, 1),
                "wall_ms_batch": round(proc_seconds_ * 1000, 3),
                "queries_per_second": round(N_QUERIES / proc_seconds_, 1),
                "speedup_vs_unsharded": round(unsharded_seconds / proc_seconds_, 2),
                "byte_identical": True,
                "prefix_scans": stats.prefix_scans,
                "prefix_escalations": stats.prefix_escalations,
                "worker_restarts": stats.worker_restarts,
                "ipc_bytes_sent": stats.ipc_bytes_sent,
                "ipc_bytes_received": stats.ipc_bytes_received,
            }
        finally:
            procs.close()

    best_thread = min(thread_seconds.values())
    lines.append(
        f"\nprocess @ 4 shards vs best thread config: "
        f"{process_seconds[4] * 1000:.1f}ms vs {best_thread * 1000:.1f}ms "
        f"({best_thread / process_seconds[4]:.2f}x)"
    )
    write_result("engine_sharded_throughput", "\n".join(lines))
    write_result_json("engine_sharded_throughput", payload)

    # Acceptance: the unsharded engine is the one-shard case of the same
    # gather loop, so it keeps up with ShardedEngine at one shard.
    assert unsharded_seconds <= thread_seconds[1] * 1.1, (
        f"unsharded {unsharded_seconds * 1000:.1f}ms exceeds 1.1x "
        f"thread@1 {thread_seconds[1] * 1000:.1f}ms"
    )
    # Acceptance (PR 7, re-baselined by PR 10): with the gather core and
    # budget controller now shared, the process fleet's worker-side gather
    # plus IPC batching must stay within a bounded overhead of the thread
    # pool at the same shard count.  (Pre-unification this read "process
    # beats the best thread config outright" — an edge that was really the
    # thread engine's static over-wide budget ladder, which PR 10 deleted.)
    assert process_seconds[4] <= thread_seconds[4] * 1.25, (
        f"process@4 {process_seconds[4] * 1000:.1f}ms exceeds 1.25x "
        f"thread@4 {thread_seconds[4] * 1000:.1f}ms"
    )
    # Acceptance (PR 10): the unified gather's self-tuning budget must beat
    # the static-ladder thread@4 latency this file recorded before the port.
    assert thread_seconds[4] * 1000 * THREAD4_REQUIRED_IMPROVEMENT <= PRIOR_BEST_THREAD4_MS, (
        f"thread@4 {thread_seconds[4] * 1000:.1f}ms did not improve "
        f">= {THREAD4_REQUIRED_IMPROVEMENT}x on {PRIOR_BEST_THREAD4_MS}ms"
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


def test_prefix_path_covers_sample_k_and_standard_lsh():
    """PR 10 acceptance: the widened prefix contract carries the new modes.

    ``sample_k`` batches (Section 3.1 k-lowest-ranks draws) and classical
    ``standard_lsh`` single-draw batches must both ride the bounded
    rank-prefix gather (``prefix_scans > 0``) on the thread *and* process
    executors — byte-identical to the unsharded engine, on the same
    100k-point workload the throughput test measures.
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
        "mode                      executor     batch   prefix-scans   escalations",
    ]
    payload = {}
    for mode, (make_sampler, requests) in modes.items():
        engine = BatchQueryEngine.build(make_sampler(), dataset)
        engine.run(requests[:20])
        reference, unsharded_seconds = _timed_best(lambda: engine.run(requests))
        del engine
        gc.collect()
        payload[mode] = {
            "unsharded": {"wall_ms_batch": round(unsharded_seconds * 1000, 3)}
        }
        lines.append(
            f"{mode:<25} {'unsharded':<10} {unsharded_seconds * 1000:7.1f}ms "
            f"{'-':>12} {'-':>13}"
        )
        for label, engine_cls in (("thread", ShardedEngine), ("process", ProcessShardedEngine)):
            sharded = engine_cls.build(make_sampler(), dataset, n_shards=4)
            try:
                sharded.run(requests[:20])
                answers, seconds = _timed_best(lambda: sharded.run(requests))
                # Byte-identical: certification makes the prefix path exact.
                assert answers == reference
                stats = sharded.stats
                # The point of the port: the new modes actually take the
                # bounded gather, on both executors.
                assert stats.prefix_scans > 0, (mode, label)
                payload[mode][label] = {
                    "wall_ms_batch": round(seconds * 1000, 3),
                    "speedup_vs_unsharded": round(unsharded_seconds / seconds, 2),
                    "byte_identical": True,
                    "prefix_scans": stats.prefix_scans,
                    "prefix_escalations": stats.prefix_escalations,
                    "prefix_budget": stats.prefix_budget,
                }
                lines.append(
                    f"{mode:<25} {label + '@4':<10} {seconds * 1000:7.1f}ms "
                    f"{stats.prefix_scans:>12} {stats.prefix_escalations:>13}"
                )
            finally:
                sharded.close()
            gc.collect()

    write_result("engine_gather_prefix", "\n".join(lines))
    write_result_json("engine_gather_prefix", payload)
