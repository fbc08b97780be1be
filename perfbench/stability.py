"""Run-to-run stability of the benchmark: medians, quartiles and digests.

Run from the repository root::

    python3 perfbench/stability.py --runs 10 --out perfbench/out/stability.json

For each workload this runs ``perfbench/run.py`` on seeds 1..``--runs``,
one process at a time, for the ``run_seconds`` set in ``BENCHMARK.json``,
and then runs the same seeds again as a second set.  It prints each
end-to-end metric's median, quartiles and spread (the interquartile range
as a share of the median, computed as ``statistics.quantiles(values,
n=4)``) for each set next to the metric's bound, and how far the second
set's median moved from the first's.  It prints each protocol's share of
the workload's untraced CPU seconds, summed over the first set.  It then
repeats seed 1 untraced and traced: every run of one workload and seed
must print identical report digests.  The traced run's per-layer self
times and its overhead are printed as well.

Exits non-zero if a run fails, an operation fails, digests differ, or a
spread or median shift exceeds its bound.  ``--out`` keeps every raw value
as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Any, Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

#: Two sets of the same seeds, compared as two sets of runs of one commit.
SETS = 2


def run_once(workload: str, seed: int, seconds: int, trace: int) -> Dict[str, Any]:
    """One benchmark process; its result object, digests and other lines."""
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} seed {seed} trace {trace}: exit {proc.returncode}\n{proc.stderr}"
        )
    result = json.loads(lines[-1])
    # digest <workload>[i] <protocol> v=<speed> seed=<seed> cpu_s=<s> <hash>
    scenarios = [line.split() for line in lines if line.startswith("digest ")]
    result["digests"] = [fields[-1] for fields in scenarios]
    result["cpu_s"] = [(fields[2], fields[-2].partition("=")[2]) for fields in scenarios]
    # host speed factor <factor> from <n> probes; ...
    factors = [line.split()[3] for line in lines if line.startswith("host speed factor ")]
    result["speed_factor"] = float(factors[0]) if factors else None
    result["lines"] = [line for line in lines[:-1] if not line.startswith("digest ")]
    return result


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values),
    }


def load_spec() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def protocol_shares(runs: Sequence[Dict[str, Any]]) -> Dict[str, float]:
    """Each protocol's share of the untraced CPU seconds of ``runs``."""
    totals: Dict[str, float] = {}
    for run in runs:
        for protocol, cpu_s in run["cpu_s"]:
            if cpu_s != "-":
                totals[protocol] = totals.get(protocol, 0.0) + float(cpu_s)
    whole = sum(totals.values()) or 1.0
    return {protocol: value / whole for protocol, value in totals.items()}


def study(workload: str, seeds: List[int], seconds: int,
          bounds: Dict[str, float]) -> Dict[str, Any]:
    problems: List[str] = []
    runs: List[List[Dict[str, Any]]] = []
    for s in range(SETS):
        batch = []
        for seed in seeds:
            result = run_once(workload, seed, seconds, 0)
            batch.append(result)
            print(f"  set {s + 1} seed {seed}: "
                  + " ".join(f"{k}={v['value']:.4f}" for k, v in result["metrics"].items())
                  + f" speed_factor={result['speed_factor']:.4f}",
                  flush=True)
        runs.append(batch)
    shares = {r["failed"] / r["attempted"] for batch in runs for r in batch}
    if len(shares) != 1:
        problems.append(f"failed share differs between runs: {sorted(shares)}")
    if any(r["failed"] for batch in runs for r in batch):
        problems.append("some operations failed")
    if not all(r["correct"] for batch in runs for r in batch):
        problems.append("a run reported correct=false")

    stats: Dict[str, List[Dict[str, float]]] = {}
    for name, bound in bounds.items():
        per_set = [quartiles([r["metrics"][name]["value"] for r in batch]) for batch in runs]
        stats[name] = per_set
        for i, q in enumerate(per_set):
            ok = q["spread"] <= bound
            print(f"  {name:<12} set {i + 1}: median {q['median']:.4f} "
                  f"q1 {q['q1']:.4f} q3 {q['q3']:.4f} spread {q['spread']:.4f} "
                  f"(bound {bound}, third {bound / 3:.4f}){'' if ok else '  OVER BOUND'}")
            if not ok:
                problems.append(f"{name} spread {q['spread']:.4f} exceeds bound {bound}")
        for i in range(1, len(per_set)):
            shift = per_set[i]["median"] / per_set[0]["median"] - 1.0
            print(f"  {name:<12} set {i + 1} median vs set 1: {shift:+.4f}")
            if shift > bound:
                problems.append(f"{name} median of set {i + 1} worse by {shift:.4f} > {bound}")

    host_shares = protocol_shares(runs[0])
    for protocol, share in sorted(host_shares.items(), key=lambda kv: -kv[1]):
        print(f"  host share {protocol:<12} {100.0 * share:6.2f} %")

    first = runs[0][0]
    repeat = run_once(workload, seeds[0], seconds, 0)
    if repeat["digests"] != first["digests"]:
        problems.append(f"seed {seeds[0]}: digests differ between two untraced runs")
    trace_run = run_once(workload, seeds[0], seconds, 1)
    if trace_run["digests"] != first["digests"]:
        problems.append(f"seed {seeds[0]}: traced digests differ from untraced")
    if trace_run["failed"]:
        problems.append("traced run had failed operations")
    for line in trace_run["lines"]:
        if line.startswith(("share ", "tracing:")):
            print(f"  {line}")
    print(f"  digests of seed {seeds[0]} identical across runs: "
          f"{'yes' if not any('digests' in p for p in problems) else 'NO'}")
    return {
        "workload": workload,
        "seeds": seeds,
        "runs": [[{k: r[k] for k in ('correct', 'attempted', 'failed', 'metrics', 'digests', 'cpu_s', 'speed_factor')}
                  for r in batch] for batch in runs],
        "stats": stats,
        "host_shares": host_shares,
        "traced": {
            k: trace_run[k] for k in ("metrics", "digests", "lines", "attempted", "failed")
        },
        "problems": problems,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", choices=workloads, default=workloads)
    parser.add_argument("--runs", type=int, default=10, help="seeds 1..RUNS in each set")
    parser.add_argument("--out", help="write every raw value to this JSON file")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 for quartiles")

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = list(range(1, args.runs + 1))
    report = []
    for workload in args.workloads:
        print(f"{workload}: {SETS} x {len(seeds)} runs of {spec['run_seconds']} s, "
              f"seeds {seeds[0]}..{seeds[-1]}", flush=True)
        report.append(study(workload, seeds, spec["run_seconds"], bounds))
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
    problems = [f"{r['workload']}: {p}" for r in report for p in r["problems"]]
    for p in problems:
        print(f"PROBLEM {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
