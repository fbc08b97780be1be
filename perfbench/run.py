"""End-to-end benchmark of the RICA simulator.

Run from the repository root::

    python3 perfbench/run.py --workload paper_rica --seed 1 --seconds 30 --trace 0

One single-threaded process builds the workload's scenarios through
``build_scenario`` and runs them back to back with ``Scenario.run``.  One
operation is one scenario run; it fails if it raises or fails a check in
``perfbench/checks.py``.  The untraced mode (``--trace 0``) repeats whole
rounds of the workload while ``--seconds`` allows (at least one) and
prints the end-to-end metrics.  The traced mode (``--trace 1``) runs each
scenario untraced and then traced, checks that the two reports match, and
prints the per-layer metrics; its spans go to ``perfbench/out/traces``.

Times are the process's CPU time (``time.process_time``): the process
is single-threaded and does no I/O while it simulates, so on an idle host
CPU time equals wall time, and it leaves out the time a shared host runs
other tenants.  ``setup_s`` is the CPU time from the start of the process
to the first simulated event: the interpreter, importing ``repro`` and
every ``build_scenario`` of the workload.  The untraced mode also times a
fixed probe job before each scenario and after the last
(``perfbench/hostspeed.py``) and divides ``run_s`` and ``setup_s`` by the
host's speed factor, so they read as CPU seconds on the reference host.

Every run prints one ``digest`` line per scenario (its untraced CPU
seconds, then a hash of its ``MetricsReport``), the unscaled times and the
speed factor, and, last, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
from typing import Any, Dict, List, Optional, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
TRACE_DIR = os.path.join(ROOT, "perfbench", "out", "traces")

#: (name, unit, better) of the metrics printed with tracing off.
END_TO_END = (
    ("run_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: (name, unit, better) of the metrics printed by the traced run.
PER_LAYER = (
    ("sim.events", "count", "lower"),
    ("sim.self_s", "s", "lower"),
    ("mobility.position_calls", "count", "lower"),
    ("mobility.self_s", "s", "lower"),
    ("topology.snapshot_builds", "count", "lower"),
    ("topology.neighbor_queries", "count", "lower"),
    ("topology.builds_per_query", "ratio", "lower"),
    ("topology.point_queries", "count", "lower"),
    ("topology.self_s", "s", "lower"),
    ("channel.csi_pair_calls", "count", "lower"),
    ("channel.csi_set_calls", "count", "lower"),
    ("channel.rate_calls", "count", "lower"),
    ("channel.samples", "count", "lower"),
    ("channel.self_s", "s", "lower"),
    ("core.csi_checks", "count", "lower"),
    ("core.self_s", "s", "lower"),
    ("mac.transmissions", "count", "lower"),
    ("mac.carrier_sense_calls", "count", "lower"),
    ("mac.busy_ratio", "ratio", "lower"),
    ("mac.decode_ratio", "ratio", "higher"),
    ("mac.collided_transmissions", "count", "lower"),
    ("mac.self_s", "s", "lower"),
    ("net.reception_batches", "count", "lower"),
    ("net.control_receptions", "count", "lower"),
    ("net.data_transmissions", "count", "lower"),
    ("net.data_retries", "count", "lower"),
    ("net.self_s", "s", "lower"),
    ("routing.control_rx", "count", "lower"),
    ("routing.flood_new_ratio", "ratio", "higher"),
    ("routing.discoveries", "count", "lower"),
    ("routing.self_s", "s", "lower"),
    ("traffic.packets", "count", "higher"),
    ("metrics.record_calls", "count", "lower"),
    ("metrics.self_s", "s", "lower"),
    ("experiments.build_s", "s", "lower"),
    ("metrics.goodput_kbps", "kbps", "higher"),
    ("metrics.delay_ms", "ms", "lower"),
    ("metrics.overhead_kbps", "kbps", "lower"),
)

_TOPOLOGY_POINT_QUERIES = (
    "TopologyIndex.position",
    "TopologyIndex.positions_of",
    "TopologyIndex.distances_from",
    "TopologyIndex.any_within",
    "TopologyIndex.which_within",
)
_CHANNEL_SET_CALLS = (
    "ChannelModel.csi_hop_distances",
    "ChannelModel.csi_hop_map",
    "ChannelModel.states",
)


# ----------------------------------------------------------------------
# Untraced mode: end-to-end metrics
# ----------------------------------------------------------------------
class Operations:
    """Attempted/failed tally; failures are reported on stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def run(self, label: str, fn, *args):
        """``fn(*args)``, or None if it raised (counted as failed)."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:  # an operation failing is a result, not a crash
            self.failed += 1
            print(f"FAILED {label}", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            return None


def _label(workload: str, index: int, config: Any) -> str:
    return f"{workload}[{index}] {config.protocol} v={config.mean_speed_kmh:g} seed={config.seed}"


def _run_checked(scenario: Any) -> Tuple[Any, float]:
    """Run and check ``scenario``; its report and the run's CPU seconds."""
    from perfbench.checks import check_scenario

    t0 = time.process_time()
    report = scenario.run()
    elapsed = time.process_time() - t0
    check_scenario(scenario, report)
    return report, elapsed


def run_untraced(workload: str, configs: Sequence[Any], seconds: float) -> Dict[str, Any]:
    """Whole rounds of ``configs`` while ``seconds`` allows; end-to-end metrics."""
    from repro.experiments.scenario import build_scenario

    from perfbench.checks import digest
    from perfbench.hostspeed import HostSpeed

    ops = Operations()
    scenarios = [build_scenario(c) for c in configs]
    setup_cpu_s = time.process_time()  # since the process started: before the first event
    host = HostSpeed()
    round_run_s: List[float] = []
    scenario_s: List[List[float]] = [[] for _ in configs]
    digests: Optional[List[Optional[str]]] = None
    consistent = True
    begin = time.perf_counter()
    while True:
        round_begin = time.perf_counter()
        run_s = 0.0
        round_digests: List[Optional[str]] = []
        for i, config in enumerate(configs):
            host.sample()
            scenario, scenarios[i] = scenarios[i], None  # freed once it has run
            outcome = ops.run(_label(workload, i, config), _run_checked, scenario)
            del scenario
            if outcome is None:
                round_digests.append(None)
                continue
            report, elapsed = outcome
            run_s += elapsed
            scenario_s[i].append(elapsed)
            round_digests.append(digest(report))
        round_run_s.append(run_s)
        if digests is None:
            digests = round_digests
        elif round_digests != digests:
            consistent = False
        round_wall = time.perf_counter() - round_begin
        if time.perf_counter() - begin + round_wall > seconds:
            break
        scenarios = [build_scenario(c) for c in configs]
    host.sample()
    factor = host.speed_factor()
    run_cpu_s = statistics.median(round_run_s)
    return {
        "correct": consistent,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "digests": digests,
        "scenario_s": [statistics.median(t) if t else None for t in scenario_s],
        "rounds": len(round_run_s),
        "probes": len(host.samples),
        "speed_factor": factor,
        "run_cpu_s": run_cpu_s,
        "setup_cpu_s": setup_cpu_s,
        "metrics": {
            "run_s": run_cpu_s / factor,
            "setup_s": setup_cpu_s / factor,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
    }


# ----------------------------------------------------------------------
# Traced mode: per-layer metrics
# ----------------------------------------------------------------------
class LayerTotals:
    """Per-layer counters and self times summed over a round."""

    def __init__(self) -> None:
        self.counters: Dict[str, float] = {}
        self.self_s: Dict[str, float] = {}
        self.build_s = 0.0
        self.untraced_s = 0.0
        self.traced_s = 0.0
        self.spans = 0
        self.goodput_kbps: List[float] = []
        self.overhead_kbps: List[float] = []
        self.delay_weighted_ms = 0.0
        self.delivered = 0

    def add(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def absorb(self, config: Any, scenario: Any, report: Any, recorder: Any) -> None:
        network = scenario.network
        nodes = network.nodes()
        calls = recorder.counts()
        tallies = recorder.tallies
        for key, value in (
            ("sim.events", scenario.sim.events_processed),
            ("topology.snapshot_builds", network.topology.snapshots_built),
            ("channel.samples", network.channel.samples_taken),
            ("mac.transmissions", sum(node.mac.sent for node in nodes)),
            ("mac.collided_transmissions", network.medium.collided_transmissions),
            ("net.data_transmissions", sum(node.datalink.transmissions for node in nodes)),
            ("net.data_retries", report.events.get("datalink_retry", 0)),
            ("routing.discoveries", report.events.get("discovery_started", 0)),
            ("traffic.packets", report.generated),
            ("mobility.position_calls", calls.get("RandomWaypoint.position", 0)),
            ("topology.neighbor_queries", calls.get("TopologyIndex.neighbors", 0)),
            ("topology.point_queries", sum(calls.get(k, 0) for k in _TOPOLOGY_POINT_QUERIES)),
            ("channel.csi_pair_calls", calls.get("ChannelModel.csi_hop_distance", 0)),
            ("channel.csi_set_calls", sum(calls.get(k, 0) for k in _CHANNEL_SET_CALLS)),
            ("channel.rate_calls", calls.get("ChannelModel.throughput_bps", 0)),
            ("core.csi_checks", calls.get("RicaProtocol.on_csi_check", 0)),
            ("mac.carrier_sense_calls", calls.get("CommonChannelMedium.busy_for", 0)),
            ("mac.busy", tallies.get("mac.busy", 0)),
            ("mac.offered", tallies.get("mac.offered", 0)),
            ("mac.lost", tallies.get("mac.lost", 0)),
            ("net.reception_batches", calls.get("Network.deliver_control_batch", 0)),
            ("net.control_receptions", tallies.get("net.receivers", 0)),
            ("routing.control_rx", calls.get("Node.receive_control", 0)),
            ("routing.flood_checks", calls.get("FloodCache.check_and_add", 0)),
            ("routing.flood_new", tallies.get("routing.flood_new", 0)),
            (
                "metrics.record_calls",
                sum(n for k, n in calls.items() if k.startswith("MetricsCollector.record_")),
            ),
        ):
            self.add(key, value)
        for layer, value in recorder.self_times().items():
            self.self_s[layer] = self.self_s.get(layer, 0.0) + value
        self.spans += len(recorder)
        self.goodput_kbps.append(
            report.delivered * config.packet_bytes * 8 / report.duration / 1000.0
        )
        self.overhead_kbps.append(report.overhead_kbps)
        self.delay_weighted_ms += report.avg_delay_ms * report.delivered
        self.delivered += report.delivered

    def metrics(self) -> Dict[str, float]:
        c = self.counters

        def ratio(num: str, den: str) -> float:
            return c.get(num, 0) / c[den] if c.get(den) else 0.0

        out: Dict[str, float] = {}
        for name, _unit, _better in PER_LAYER:
            layer, _, field = name.partition(".")
            if field == "self_s":
                out[name] = self.self_s.get(layer, 0.0)
            elif name in c:
                out[name] = c[name]
        out["topology.builds_per_query"] = ratio("topology.snapshot_builds", "topology.neighbor_queries")
        out["mac.busy_ratio"] = ratio("mac.busy", "mac.carrier_sense_calls")
        out["mac.decode_ratio"] = 1.0 - ratio("mac.lost", "mac.offered") if c.get("mac.offered") else 0.0
        out["routing.flood_new_ratio"] = ratio("routing.flood_new", "routing.flood_checks")
        out["experiments.build_s"] = self.build_s
        out["metrics.goodput_kbps"] = statistics.fmean(self.goodput_kbps) if self.goodput_kbps else 0.0
        out["metrics.overhead_kbps"] = statistics.fmean(self.overhead_kbps) if self.overhead_kbps else 0.0
        out["metrics.delay_ms"] = self.delay_weighted_ms / self.delivered if self.delivered else 0.0
        return {name: out[name] for name, _unit, _better in PER_LAYER}


def run_traced(workload: str, configs: Sequence[Any], trace_dir: Optional[str] = TRACE_DIR) -> Dict[str, Any]:
    """Each scenario untraced, then traced; per-layer metrics of the round."""
    from repro.experiments.scenario import build_scenario

    from perfbench.checks import check_same_report, check_scenario, digest
    from perfbench.tracing import SpanRecorder, traced

    ops = Operations()
    totals = LayerTotals()
    digests: List[Optional[str]] = []
    scenario_s: List[Optional[float]] = [None] * len(configs)
    if trace_dir is not None:
        os.makedirs(trace_dir, exist_ok=True)

    def one(index: int, config: Any) -> Any:
        t0 = time.process_time()
        scenario = build_scenario(config)
        totals.build_s += time.process_time() - t0
        t0 = time.process_time()
        untraced_report = scenario.run()
        scenario_s[index] = time.process_time() - t0
        totals.untraced_s += scenario_s[index]
        check_scenario(scenario, untraced_report)
        recorder = SpanRecorder()
        with traced(recorder):
            scenario = build_scenario(config)
            t0 = time.process_time()
            report = recorder.call("Scenario.run", "experiments", scenario.run)
            totals.traced_s += time.process_time() - t0
        check_same_report(untraced_report, report)
        check_scenario(scenario, report)
        totals.absorb(config, scenario, report, recorder)
        if trace_dir is not None:
            recorder.save(os.path.join(trace_dir, f"{workload}-{index}.npz"))
        return report

    for i, config in enumerate(configs):
        report = ops.run(_label(workload, i, config), one, i, config)
        digests.append(None if report is None else digest(report))
    return {
        "correct": True,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "digests": digests,
        "scenario_s": scenario_s,
        "untraced_s": totals.untraced_s,
        "traced_s": totals.traced_s,
        "spans": totals.spans,
        "self_s": dict(totals.self_s),
        "metrics": totals.metrics(),
    }


# ----------------------------------------------------------------------
# Command line
# ----------------------------------------------------------------------
def _units() -> Dict[str, str]:
    return {name: unit for name, unit, _ in END_TO_END + PER_LAYER}


def emit(workload: str, configs: Sequence[Any], result: Dict[str, Any], trace: bool) -> None:
    """Human-readable lines, then the result object as the last line."""
    units = _units()
    for i, (config, d, cpu_s) in enumerate(zip(configs, result["digests"], result["scenario_s"])):
        seconds = "cpu_s=-" if cpu_s is None else f"cpu_s={cpu_s:.4f}"
        print(f"digest {_label(workload, i, config)} {seconds} {d or 'FAILED'}")
    if trace:
        total = sum(result["self_s"].values()) or 1.0
        for layer, value in sorted(result["self_s"].items(), key=lambda kv: -kv[1]):
            print(f"share {layer:<12} {value:9.3f} s {100.0 * value / total:6.2f} %")
        overhead = result["traced_s"] / result["untraced_s"] if result["untraced_s"] else 0.0
        print(
            f"tracing: {result['spans']} spans, traced {result['traced_s']:.3f} s vs "
            f"untraced {result['untraced_s']:.3f} s ({overhead:.2f}x)"
        )
    else:
        print(f"rounds {result['rounds']}")
        print(
            f"host speed factor {result['speed_factor']!r} from {result['probes']} probes; "
            f"unscaled run {result['run_cpu_s']!r} s, setup {result['setup_cpu_s']!r} s"
        )
    for name, value in result["metrics"].items():
        print(f"{name} = {value!r} {units[name]}")
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()
                },
            }
        )
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path[:0] = [SRC, ROOT]
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import repro from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"perfbench: repro resolved to {repro.__file__}, not under {SRC}", file=sys.stderr)
        return 2

    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    configs = workload.configs(args.seed)
    if args.trace:
        result = run_traced(workload.name, configs)
    else:
        result = run_untraced(workload.name, configs, args.seconds)
    emit(workload.name, configs, result, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
