"""Repository benchmark: one workload, one seed, one JSON line of metrics.

Run from the repository root::

    python3 perfbench/run.py --workload embed-read --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` wraps the library's layers in spans (see ``layers.py``) and
prints the per-layer metrics instead.  Every answer is checked against an
exact brute-force mirror; the last line of standard output is
``{"correct", "attempted", "failed", "metrics"}`` and the exit code is
non-zero when any answer is wrong (or, traced, when the spans cover too
little of the timed loop).  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import resource
import shutil
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parent
ROOT = pathlib.Path.cwd()


def _import_library() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    package = ROOT / "src" / "repro" / "__init__.py"
    if not package.is_file():
        sys.exit(f"perfbench: {package} not found; run from the repository root")
    sys.path.insert(0, str(ROOT / "src"))
    import repro

    if pathlib.Path(repro.__file__).resolve() != package.resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {package}")


def _git_sha() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _pin_to_one_cpu() -> str:
    """Run this process, its threads and its helper on one CPU (the last allowed).

    Called before numpy is imported, so its BLAS sees one CPU too.  A client
    call handed to the server thread then wakes it on the same CPU, and the
    reference job reads the speed of the CPU the library runs on.
    """
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError) as exc:  # no affinity API, or not allowed
        return f"not pinned ({exc.__class__.__name__})"
    return f"pinned to cpu {cpu}"


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    benchmark = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for key in ("end_to_end", "per_layer") for m in benchmark[key]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in benchmark["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pinning = _pin_to_one_cpu()
    _import_library()
    import numpy as np

    import layers
    import reference
    import workloads
    from tracer import Tracer

    print(f"# perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# machine: nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={np.__version__} platform={platform.platform()} {pinning}")
    print(f"# git sha: {_git_sha()}")

    tracer = None
    if args.trace:
        tracer = Tracer()
        span_cost_ns = tracer.per_call_overhead_ns()
        layers.install(tracer)
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    workdir = pathlib.Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".perfbench_work"))
    try:
        reference.start()
        outcome = workloads.WORKLOADS[args.workload](args.seed, args.seconds, tracer, workdir)
    finally:
        reference.stop()
        if tracer is not None:
            tracer.restore()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run is using it
            pass

    rec = outcome.recorder
    peak_rss_mb = _peak_rss_mb()
    metrics = workloads.end_to_end(outcome, peak_rss_mb)
    raw = workloads.end_to_end(outcome, peak_rss_mb, scaled=False)
    correct = metrics["answer_valid_ratio"] == 1.0 and outcome.consistent
    for note in outcome.notes:
        print(f"# {note}")
    print(f"# answers checked: {outcome.valid}/{outcome.answers} valid; "
          f"{outcome.answered_eligible}/{outcome.eligible} answered with a non-empty neighborhood")
    print(f"# calls: {rec.attempted} attempted, {rec.failed} failed; "
          f"loop {outcome.loop_wall_s:.2f}s; set-ups {[round(s, 3) for s in outcome.setup_s]}")
    print(f"# digest {args.workload} seed={args.seed} {rec.digest.hexdigest()}")
    print(f"# machine slowness (reference job / {reference.REF_NOMINAL_MS} ms): "
          f"loop {reference.slowness(rec.ref_ms):.3f}, "
          f"set-ups {reference.slowness(outcome.setup_ref_ms):.3f}")
    for name, value in raw.items():
        print(f"# unscaled {name} = {value:.6g} {units[name]}")
    exit_code = 0 if correct else 1
    if tracer is not None:
        report = layers.per_layer(
            tracer,
            loop_wall_s=outcome.loop_wall_s - sum(rec.ref_ms) / 1000.0,
            counters=outcome.counters,
            server_self_ns=rec.server_self_ns,
            setup_spans=outcome.setup_spans,
            wal_bytes_per_record=outcome.wal_bytes_per_record,
            span_cost_ns=span_cost_ns,
        )
        print("# self time by layer (ms, summed over the timed loop):")
        for layer, ns in sorted(tracer.self_ns.items(), key=lambda item: -item[1]):
            print(f"#   {layer:<22} {ns / 1e6:10.1f}  ({tracer.calls[layer]} spans)")
        if report["trace.coverage"] < layers.COVERAGE_FLOOR:
            print(f"perfbench: trace coverage {report['trace.coverage']:.3f} is below "
                  f"{layers.COVERAGE_FLOOR}", file=sys.stderr)
            exit_code = exit_code or 2
        for name, value in metrics.items():
            print(f"# e2e {name} = {value:.6g} {units[name]}")
        metrics = report
    for name, value in metrics.items():
        print(f"{name:<34} {value:14.6g} {units[name]}")
    if not correct:
        print("perfbench: an answer failed the exact check, or the live count drifted",
              file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
