"""Which library calls the traced run wraps, and the per-layer metrics.

Every span wraps a public method of one layer's class (or the snapshot
loader as the facade calls it); the span names follow the package's module
layout.  :func:`per_layer` turns the spans of one timed loop into the
``per_layer`` metrics listed in ``BENCHMARK.json``.  A layer a workload does
not exercise reports 0.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional

from tracer import Tracer

#: The facade spans whose time the layer spans below them must cover.
FACADE = ("api.run", "api.mutate")
#: Fewest share of the facade spans' time their child spans must cover; a
#: traced run below it fails, so a layer cannot silently drop out of the
#: breakdown.
COVERAGE_FLOOR = 0.9


def _count_view(counts, args, result) -> None:
    counts["lsh.view_refs"] += len(result[1])


def _count_core(counts, args, result) -> None:
    if result is None:  # a prefix scan that could not certify its answer
        return
    counts["core.rounds"] += result.stats.rounds
    counts["core.distance_evals"] += result.stats.distance_evaluations


def install(tracer: Tracer) -> None:
    """Wrap the layers' public entry points in spans (undo with ``restore``)."""
    import repro.api as api
    from repro.core.base import LSHNeighborSampler
    from repro.core.evaluator import CandidateEvaluator
    from repro.core.fair_nnis import IndependentFairSampler
    from repro.core.fair_nns import PermutationFairSampler
    from repro.engine.dynamic import DynamicLSHTables
    from repro.engine.wal import WriteAheadLog
    from repro.lsh.tables import LSHTables

    tracer.patch(api.FairNN, "run", "api.run")
    tracer.patch(api.FairNN, "insert_many", "api.mutate")
    tracer.patch(api.FairNN, "delete", "api.mutate")
    tracer.patch(api, "load_engine", "snapshot.load")
    tracer.patch(LSHNeighborSampler, "notify_update", "engine.batch.sync")
    tracer.patch(LSHTables, "query_keys_many", "lsh.hash")
    tracer.patch(LSHTables, "colliding_view", "lsh.colliding_view", on_result=_count_view)
    for sampler in (PermutationFairSampler, IndependentFairSampler):
        tracer.patch(sampler, "sample_detailed", "core.sample", on_result=_count_core)
        tracer.patch(
            sampler, "sample_detailed_from_candidates", "core.sample", on_result=_count_core
        )
    tracer.patch(
        PermutationFairSampler, "sample_detailed_from_prefix", "core.sample", on_result=_count_core
    )
    tracer.patch(CandidateEvaluator, "values", "evaluator.values")
    tracer.patch(DynamicLSHTables, "insert_many", "dynamic.insert")
    tracer.patch(DynamicLSHTables, "delete", "dynamic.delete")
    tracer.patch(DynamicLSHTables, "compact", "dynamic.compact")
    tracer.patch(WriteAheadLog, "append", "wal.append")
    tracer.patch_generator(WriteAheadLog, "replay", "wal.replay")


def _p50_ms(values_ns: List[float]) -> float:
    return statistics.median(values_ns) / 1e6 if values_ns else 0.0


def _mean_ms(total_ns: float, calls: int) -> float:
    return total_ns / calls / 1e6 if calls else 0.0


def _median_s(values_ns: Optional[List[int]]) -> float:
    return statistics.median(values_ns) / 1e9 if values_ns else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(
    tracer: Tracer,
    *,
    loop_wall_s: float,
    counters: Dict[str, int],
    server_self_ns: Dict[str, List[int]],
    setup_spans: Dict[str, List[int]],
    wal_bytes_per_record: float,
    span_cost_ns: float,
) -> Dict[str, float]:
    """Per-layer metrics of one timed loop (see README.md for each one).

    *loop_wall_s* excludes the reference jobs timed between rounds.
    """
    runs = tracer.calls["api.run"]
    durations = tracer.durations
    loop_ns = loop_wall_s * 1e9
    out = {
        "server.self_ms_p50": _p50_ms(server_self_ns.get("query", [])),
        "server.mutate_self_ms_p50": _p50_ms(server_self_ns.get("mutation", [])),
        "api.run_ms_p50": _p50_ms(durations["api.run"]),
        "api.mutate_ms_p50": _p50_ms(durations["api.mutate"]),
        "engine.batch.coalesced_ratio": _ratio(
            counters["coalesced_queries"], counters["queries_served"]
        ),
        "engine.batch.hash_ms": _mean_ms(tracer.edge_ns[("api.run", "lsh.hash")], runs),
        "engine.batch.sync_ms": _mean_ms(tracer.total_ns["engine.batch.sync"], runs),
        "lsh.colliding_view_ms": _mean_ms(tracer.total_ns["lsh.colliding_view"], runs),
        "lsh.candidates_per_query": _ratio(
            tracer.counts["lsh.view_refs"], tracer.calls["lsh.colliding_view"]
        ),
        "gather.prefix_scans": counters["prefix_scans"],
        "gather.prefix_escalations": counters["prefix_escalations"],
        "core.sample_ms": _mean_ms(tracer.total_ns["core.sample"], runs),
        "core.rounds_per_query": _ratio(tracer.counts["core.rounds"], tracer.calls["core.sample"]),
        "core.distance_evals_per_query": _ratio(
            tracer.counts["core.distance_evals"], tracer.calls["core.sample"]
        ),
        "evaluator.values_ms": _mean_ms(tracer.total_ns["evaluator.values"], runs),
        "evaluator.evals_per_kernel_call": _ratio(
            counters["distance_evaluations"], counters["distance_kernel_calls"]
        ),
        "dynamic.insert_ms": _mean_ms(
            tracer.total_ns["dynamic.insert"], tracer.calls["dynamic.insert"]
        ),
        "dynamic.delete_ms": _mean_ms(
            tracer.total_ns["dynamic.delete"], tracer.calls["dynamic.delete"]
        ),
        "dynamic.compactions": counters["rebuilds_triggered"],
        "dynamic.compact_ms": _mean_ms(
            tracer.total_ns["dynamic.compact"], counters["rebuilds_triggered"]
        ),
        "wal.append_ms_p50": _p50_ms(durations["wal.append"]),
        "wal.bytes_per_mutation": wal_bytes_per_record,
        "wal.replay_s": _median_s(setup_spans.get("wal.replay")),
        "snapshot.load_s": _median_s(setup_spans.get("snapshot.load")),
        "trace.coverage": 1.0 - _ratio(
            sum(tracer.self_ns[name] for name in FACADE),
            sum(tracer.total_ns[name] for name in FACADE),
        ),
        "trace.overhead_ratio": _ratio(tracer.spans * span_cost_ns, loop_ns),
    }
    return {name: float(value) for name, value in out.items()}
