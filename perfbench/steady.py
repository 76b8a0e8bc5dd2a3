"""Steadiness and determinism self-check for the benchmark.

Runs ``perfbench/run.py`` once per seed for each workload (one run at a
time), then prints each end-to-end metric's median, its spread between the
first and third quartile and between the extremes — both as a share of the
median — next to the metric's bound from ``BENCHMARK.json``.  A quartile
spread above the bound is flagged ``OVER``; above a third of it, ``wide``.

It also reruns the first seed untraced and traced and checks that all three
runs print the same answer digest.  Run from the repository root::

    python3 perfbench/steady.py --seeds 1,2,3,4,5 --workloads sets-churn

Exits non-zero when a run fails, a metric is ``OVER`` or a digest differs.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import re
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
DIGEST = re.compile(r"^# digest \S+ seed=\d+ ([0-9a-f]{64})$", re.MULTILINE)
SLOWNESS = re.compile(r"^# machine slowness .*: loop ([0-9.]+)", re.MULTILINE)
UNSCALED = re.compile(r"^# unscaled (\S+) = (\S+) ", re.MULTILINE)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(
            f"{workload} seed {seed} trace {trace} exited {done.returncode}:\n{done.stderr}"
        )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["digest"] = DIGEST.search(done.stdout).group(1)
    result["slowness"] = float(SLOWNESS.search(done.stdout).group(1))
    result["unscaled"] = {name: float(value) for name, value in UNSCALED.findall(done.stdout)}
    return result


def spread(values: list) -> tuple:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    if median == 0:
        return median, 0.0, 0.0
    return median, (q3 - q1) / abs(median), (max(values) - min(values)) / abs(median)


def main(argv=None) -> int:
    benchmark = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in benchmark["workloads"]))
    parser.add_argument("--seeds", default="1,2,3,4,5")
    parser.add_argument("--seconds", type=int, default=benchmark["run_seconds"])
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    problems = 0
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, args.seconds, 0) for seed in seeds]
        print(f"\n{workload}: {len(runs)} runs, seeds {seeds}")
        print("  machine slowness per run: " + " ".join(f"{r['slowness']:.3f}" for r in runs))
        print(f"  {'metric':<20} {'median':>12} {'IQR/med':>8} {'max-min':>8} {'bound':>6}"
              f"  unscaled IQR/med")
        for name, bound in bounds.items():
            values = [run["metrics"][name]["value"] for run in runs]
            median, iqr, extremes = spread(values)
            flag = ""
            if iqr > bound:
                flag = "OVER"
                problems += 1
            elif iqr > bound / 3:
                flag = "wide"
            raw_iqr = spread([run["unscaled"][name] for run in runs])[1]
            print(f"  {name:<20} {median:12.5g} {iqr:8.3f} {extremes:8.3f} {bound:6.2f}"
                  f"  {raw_iqr:8.3f} {flag}")
        again = run_once(workload, seeds[0], args.seconds, 0)
        traced = run_once(workload, seeds[0], args.seconds, 1)
        digests = {runs[0]["digest"], again["digest"], traced["digest"]}
        verdict = "same" if len(digests) == 1 else "DIFFERENT"
        problems += len(digests) != 1
        print(f"  digest of seed {seeds[0]} (run, rerun, traced): {verdict}")
        layer = traced["metrics"]
        print(f"  traced: coverage {layer['trace.coverage']['value']:.3f}, "
              f"estimated overhead {layer['trace.overhead_ratio']['value']:.4f}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
