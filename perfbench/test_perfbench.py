"""Fast tests of the benchmark itself: its checks can fail, tracing is
transparent, and BENCHMARK.json matches the code.  Scenarios here are a
few nodes for a simulated second or two, so the module runs in seconds."""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

from repro.experiments.scenario import ScenarioConfig, build_scenario
from repro.sim.engine import Simulator
from repro.sim.timers import PeriodicTimer

from perfbench import checks, hostspeed, tracing
from perfbench.run import END_TO_END, PER_LAYER, Operations, run_traced, run_untraced
from perfbench.workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Small and dense enough that routes form and data-link queues fill.
TINY = ScenarioConfig(
    protocol="aodv", n_nodes=12, field_size_m=400.0, n_flows=3, rate_pps=20.0,
    duration_s=2.0, seed=3,
)


@pytest.fixture(scope="module")
def tiny_run():
    scenario = build_scenario(TINY)
    return scenario, scenario.run()


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["paths"] == ["perfbench"]
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workloads_set_only_scenario_parameters(name):
    allowed = {"protocol", "n_nodes", "field_size_m", "mean_speed_kmh", "rate_pps", "n_flows",
               "duration_s", "seed"}
    default = ScenarioConfig()
    configs = WORKLOADS[name].configs(1)
    for config in configs:
        changed = {f.name for f in dataclasses.fields(config)
                   if getattr(config, f.name) != getattr(default, f.name)}
        assert changed <= allowed
    assert WORKLOADS[name].configs(1) == configs
    assert [c.seed for c in WORKLOADS[name].configs(2)] != [c.seed for c in configs]


def test_checks_pass_on_a_real_run(tiny_run):
    scenario, report = tiny_run
    assert report.delivered > 0
    checks.check_scenario(scenario, report)


def test_conservation_catches_a_packet_removed_behind_the_collectors_back():
    scenario = build_scenario(TINY)
    scenario.start()
    links = [node.datalink for node in scenario.network.nodes()]
    for _ in range(200_000):
        if any(link.total_queued() for link in links):
            break
        assert scenario.sim.step()
    link = next(link for link in links if link.total_queued())
    checks.check_conservation(scenario, scenario.metrics.report())  # holds mid-run too
    queue = next(q for q in link._queues.values() if len(q))
    queue.pop(scenario.sim.now)
    with pytest.raises(checks.CheckFailure, match="conservation"):
        checks.check_conservation(scenario, scenario.metrics.report())


def test_delay_bound_rejects_delay_below_the_airtime_floor(tiny_run):
    _, report = tiny_run
    floor = report.avg_hops * checks.MIN_HOP_DELAY_MS
    checks.check_delay_bound(dataclasses.replace(report, avg_delay_ms=floor))
    with pytest.raises(checks.CheckFailure, match="mean delay"):
        checks.check_delay_bound(dataclasses.replace(report, avg_delay_ms=floor * 0.99))


@pytest.mark.parametrize("rate", [49.0, 250.5])
def test_link_rate_bound_rejects_rates_outside_the_class_table(tiny_run, rate):
    _, report = tiny_run
    for edge in (50.0, 250.0):
        checks.check_link_rate_bound(dataclasses.replace(report, avg_link_throughput_kbps=edge))
    with pytest.raises(checks.CheckFailure, match="link throughput"):
        checks.check_link_rate_bound(dataclasses.replace(report, avg_link_throughput_kbps=rate))


def test_traced_report_must_match_untraced(tiny_run):
    _, report = tiny_run
    checks.check_same_report(report, dataclasses.replace(report))
    with pytest.raises(checks.CheckFailure, match="delivered"):
        checks.check_same_report(report, dataclasses.replace(report, delivered=report.delivered + 1))


def _entry_point_attrs():
    attrs = {}
    for _layer, cls, method in tracing._entry_points():
        attrs[(cls, method)] = cls.__dict__.get(method)
    attrs[(Simulator, "schedule_at")] = Simulator.__dict__["schedule_at"]
    attrs[(PeriodicTimer, "__init__")] = PeriodicTimer.__dict__["__init__"]
    return attrs


def test_traced_mode_reproduces_untraced_and_restores_classes(tiny_run):
    _, report = tiny_run
    before = _entry_point_attrs()
    rica = TINY.with_(protocol="rica")
    result = run_traced("tiny", [TINY, rica], trace_dir=None)
    assert _entry_point_attrs() == before
    assert result["failed"] == 0
    assert result["digests"][0] == checks.digest(report)
    assert result["digests"][1] == checks.digest(build_scenario(rica).run())
    metrics = result["metrics"]
    assert list(metrics) == [name for name, _, _ in PER_LAYER]
    for name in ("sim.events", "mobility.position_calls", "topology.neighbor_queries",
                 "core.csi_checks", "mac.carrier_sense_calls", "routing.control_rx",
                 "metrics.record_calls"):
        assert metrics[name] > 0, name
    assert 0 < metrics["mac.decode_ratio"] <= 1
    assert metrics["sim.self_s"] > 0 and metrics["routing.self_s"] > 0
    assert result["traced_s"] > 0 and result["spans"] > 0


def test_classes_are_restored_when_a_traced_call_raises():
    before = _entry_point_attrs()
    with pytest.raises(RuntimeError):
        with tracing.traced(tracing.SpanRecorder()):
            raise RuntimeError("boom")
    assert _entry_point_attrs() == before


def test_self_time_excludes_child_spans():
    recorder = tracing.SpanRecorder()
    inner = recorder.wrap(lambda: sum(range(20000)), "inner", "mobility")
    outer = recorder.wrap(lambda: [inner() for _ in range(3)], "outer", "topology")
    outer()
    starts, ends = list(recorder.starts), list(recorder.ends)
    inner_total = sum(ends[i] - starts[i] for i in (1, 2, 3))
    self_times = recorder.self_times()
    assert self_times["mobility"] == pytest.approx(inner_total)
    assert self_times["topology"] == pytest.approx(ends[0] - starts[0] - inner_total)
    assert recorder.counts() == {"inner": 3, "outer": 1}


def test_layer_of_follows_the_defining_module():
    from repro.core.rica import RicaProtocol
    from repro.geometry.grid import UniformGrid
    from repro.mac.csma import CsmaMac

    assert tracing.layer_of(RicaProtocol.on_csi_check) == "core"
    assert tracing.layer_of(CsmaMac._complete) == "mac"
    assert tracing.layer_of(UniformGrid.cell_of) == "topology"
    assert tracing.layer_of(len) == "other"


def test_untraced_mode_runs_whole_rounds():
    result = run_untraced("tiny", [TINY, TINY.with_(seed=4)], 0.0)
    assert (result["attempted"], result["failed"], result["rounds"]) == (2, 0, 1)
    assert all(s > 0 for s in result["scenario_s"])
    assert result["correct"]
    metrics = result["metrics"]
    assert list(metrics) == [name for name, _, _ in END_TO_END]
    assert all(v > 0 for v in metrics.values())
    assert result["probes"] == 3  # before each scenario and after the last
    assert metrics["run_s"] == result["run_cpu_s"] / result["speed_factor"]
    assert metrics["setup_s"] == result["setup_cpu_s"] / result["speed_factor"]


def test_host_speed_factor_is_the_median_probe_over_the_reference():
    assert hostspeed.probe() == hostspeed.probe()
    host = hostspeed.HostSpeed()
    host.sample()
    assert 0 < host.samples[0] < 5.0
    host.samples = [0.3, 3.0 * hostspeed.REFERENCE_S, 0.01]
    assert host.speed_factor() == pytest.approx(3.0)


def test_untraced_rounds_repeat_with_identical_digests():
    short = TINY.with_(duration_s=0.5)
    result = run_untraced("tiny", [short], 0.5)
    assert result["rounds"] >= 2
    assert (result["attempted"], result["failed"]) == (result["rounds"], 0)
    assert result["correct"]


def test_a_failing_operation_is_counted_not_raised():
    ops = Operations()

    def broken():
        raise checks.CheckFailure("broken")

    assert ops.run("broken", broken) is None
    assert ops.run("fine", int, "3") == 3
    assert (ops.attempted, ops.failed) == (2, 1)


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "storm", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
