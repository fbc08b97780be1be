"""Flood-storm stress benchmark: batched reception pipeline + RREQ aggregation.

The worst case the paper's "each common-channel transmission counts as one
routing transmission" accounting produces: many terminals starting route
discoveries at once in a dense arena, so every RREQ flood fans out into
hundreds of same-instant receptions.  This benchmark drives that storm at
n = 200 (paper density, 25 simultaneous flows) per protocol — with the
RREQ-aggregation window off (the paper's immediate-relay flooding) and on
(40 ms jitter window, the paper's own collection-window scale), plus one
leg on the batched MAC attempt scheduler — and records:

* the control-transmission reduction aggregation buys (CI gate:
  >= 1.5x fewer RREQ transmissions at n = 200 for AODV, the pure-flooding
  baseline);
* engine throughput in *logical* events/s (physical events plus
  batch-credited callbacks, so scalar and batched backends are measured
  in the same unit) and the event-kind mix;
* the batched MAC's batching factor at the storm's stress point —
  logical events credited per physical event, a deterministic count
  (CI gate: >= 3x for AODV; ~5.1x with the 2 ms contention slot) — and
  its logical-events/s speedup over the scalar leg (recorded as
  ``mac_speedup``; CI gate: > 1x);
* the medium's split collision counters (lost receptions vs collided
  transmissions — the mean blast radius of a collision).

Results land in ``BENCH_flood.json`` at the repo root via the shared
``bench_json_recorder`` fixture.
"""

from __future__ import annotations

import math
import time

from repro.experiments.scenario import ScenarioConfig, build_scenario
from repro.mac.csma import MacConfig

N_NODES = 200
#: Constant paper density: 50 terminals per 1000 m x 1000 m.
FIELD_M = 1000.0 * math.sqrt(N_NODES / 50.0)
N_FLOWS = 25
DURATION_S = 5.0
#: The aggregation window mirrors the paper's 40 ms collection windows.
AGG_WINDOW_S = 0.04
#: CI gate: aggregated flooding must cut RREQ transmissions this much.
MIN_RREQ_REDUCTION = 1.5
#: Contention-slot width for the batched MAC leg: coarse enough that
#: whole rounds (and the topology snapshots behind their completions)
#: coalesce, fine-grained next to the 2 ms minimum backoff window.
BATCH_SLOT_S = 0.002
#: CI gate: logical events credited per physical event on the batched
#: MAC leg for AODV (deterministic; ~5.1x at the 2 ms slot).  Its events/s
#: must also stay above the scalar leg's: that wall-time ratio was ~5x
#: while every scalar transmission rebuilt a topology snapshot and slot-
#: aligned completions shared them; with drift-bounded neighbour lists
#: the scalar leg gets that saving too and the ratio is ~2x.
MIN_MAC_SPEEDUP = 3.0


def _storm_config(
    protocol: str,
    window_s: float,
    mac_backend: str = "scalar",
    slot_s: float = 0.0,
) -> ScenarioConfig:
    return ScenarioConfig(
        protocol=protocol,
        n_nodes=N_NODES,
        field_size_m=FIELD_M,
        n_flows=N_FLOWS,
        duration_s=DURATION_S,
        seed=1,
        rreq_aggregation_s=window_s,
        mac_backend=mac_backend,
        mac=MacConfig(slot_align_s=slot_s),
    )


def _run_storm(
    protocol: str,
    window_s: float,
    mac_backend: str = "scalar",
    slot_s: float = 0.0,
) -> dict:
    scenario = build_scenario(_storm_config(protocol, window_s, mac_backend, slot_s))
    start = time.perf_counter()
    report = scenario.run()
    wall_s = time.perf_counter() - start
    sim = scenario.sim
    medium = scenario.network.medium
    logical = sim.logical_events_processed
    top_kinds = dict(
        sorted(sim.event_kind_counts.items(), key=lambda kv: -kv[1])[:8]
    )
    return {
        "rreq_tx": report.control_tx_count.get("rreq", 0),
        "control_tx_total": sum(report.control_tx_count.values()),
        "overhead_kbps": round(report.overhead_kbps, 2),
        "delivery_pct": round(report.delivery_pct, 2),
        "avg_delay_ms": round(report.avg_delay_ms, 1),
        "rreq_suppressed": report.events.get("rreq_suppressed", 0),
        "rreq_coalesced": report.events.get("rreq_coalesced", 0),
        "lost_receptions": medium.lost_receptions,
        "collided_transmissions": medium.collided_transmissions,
        "events_processed": sim.events_processed,
        "logical_events": logical,
        "wall_s": round(wall_s, 2),
        "events_per_s": round(logical / wall_s) if wall_s > 0 else 0,
        "top_event_kinds": top_kinds,
    }


def test_flood_storm_aggregation(bench_json_recorder):
    payload = {
        "n_nodes": N_NODES,
        "field_m": round(FIELD_M, 1),
        "n_flows": N_FLOWS,
        "duration_s": DURATION_S,
        "aggregation_window_s": AGG_WINDOW_S,
        "mac_batch_slot_s": BATCH_SLOT_S,
        "workload": "simultaneous route discoveries, paper density",
        "results": {},
    }
    reductions = {}
    speedups = {}
    batchings = {}
    for protocol in ("aodv", "rica"):
        off = _run_storm(protocol, 0.0)
        on = _run_storm(protocol, AGG_WINDOW_S)
        batched = _run_storm(protocol, 0.0, mac_backend="batched", slot_s=BATCH_SLOT_S)
        reduction = off["rreq_tx"] / on["rreq_tx"] if on["rreq_tx"] else math.inf
        speedup = (
            batched["events_per_s"] / off["events_per_s"]
            if off["events_per_s"]
            else math.inf
        )
        batching = batched["logical_events"] / batched["events_processed"]
        reductions[protocol] = reduction
        speedups[protocol] = speedup
        batchings[protocol] = batching
        payload["results"][protocol] = {
            "no_aggregation": off,
            "aggregated": on,
            "batched_mac": batched,
            "rreq_reduction": round(reduction, 2),
            "events_per_s_batched": batched["events_per_s"],
            "mac_speedup": round(speedup, 2),
            "mac_batching": round(batching, 2),
        }
        print(
            f"\n{protocol}: rreq {off['rreq_tx']} -> {on['rreq_tx']} "
            f"({reduction:.2f}x fewer), delivery {off['delivery_pct']:.1f}% -> "
            f"{on['delivery_pct']:.1f}%, engine {off['events_per_s']}/s "
            f"(batched MAC {batched['events_per_s']}/s, {speedup:.2f}x, "
            f"{batching:.2f} logical events per physical)"
        )
    bench_json_recorder("flood", payload)
    # CI regression gate: aggregation must keep cutting the flood storm on
    # the pure-flooding baseline, without collapsing delivery.
    assert reductions["aodv"] >= MIN_RREQ_REDUCTION
    aodv = payload["results"]["aodv"]
    assert aodv["aggregated"]["delivery_pct"] >= 0.8 * aodv["no_aggregation"]["delivery_pct"]
    # CI perf gate: the batched MAC attempt scheduler must keep batching
    # whole contention rounds at the stress point, and keep them faster
    # per logical event than the scalar reference.
    assert batchings["aodv"] >= MIN_MAC_SPEEDUP
    assert speedups["aodv"] > 1.0
