"""Micro-benchmark: the channel bank's array pipeline vs. its per-pair path.

Replays the channel layer's hottest pattern — every terminal classifies
its whole neighbour set (the fading → SNR → classify pipeline behind
link monitors, accurate-view installs and CSI scans) — at n ∈ {50, 200,
500} terminals in the paper's fixed 1000 m x 1000 m arena, so density
(and neighbour-set size) grows with n exactly like the congested regimes
the paper's figures probe.  Three scans run over identical trajectories
and neighbour sets: the network-wide array pipeline
(``ChannelModel.csi_hop_map``), one array query per terminal
(``csi_hop_distances``), and the reference — the same per-terminal scan
through the bank's single-pair formula (``link_hop_distances``), one
position, mean-SNR, fading and classify step per link.

A 1000-node RICA smoke scenario rides along to prove the ROADMAP's
">500 nodes" scale is now CI-tolerable end-to-end.

Results land in ``BENCH_channel.json`` (repo root) via the shared
``bench_json_recorder`` fixture.  The in-test assertion (the array
pipeline >= 2x the per-pair scan at n = 200) is the CI regression gate;
the recorded value tracks the actual speedup (~4-5x).
"""

from __future__ import annotations

import math
import time

from repro.channel.model import ChannelConfig, ChannelModel
from repro.geometry.field import Field
from repro.mobility.waypoint import RandomWaypoint
from repro.sim.rng import RandomStreams
from repro.topology import TopologyIndex

NODE_COUNTS = [50, 200, 500]
#: The paper's arena; density (and neighbour count) grows with n.
SIDE_M = 1000.0
#: One scan per instant; the warm-up pass allocates every pair's fading
#: state (every scan pays that once per simulation, not per query).
WARMUP_TIMES = [0.5, 1.5, 2.5, 3.5, 4.5]
QUERY_TIMES = [5.5, 6.5, 7.5, 8.5, 9.5]
SMOKE_NODES = 1000
SMOKE_DURATION_S = 3.0


def _make_topology(n):
    field = Field(SIDE_M, SIDE_M)
    streams = RandomStreams(4321 + n)
    topo = TopologyIndex(field, radius=250.0)
    for i in range(n):
        topo.add(
            i,
            RandomWaypoint(
                field, streams.stream(f"mobility/{i}"), max_speed=20.0, pause_time=3.0
            ).position,
        )
    return topo


def _make_model(topo):
    return ChannelModel(ChannelConfig(), RandomStreams(99), topo.position, topology=topo)


def _scan_map(model, adj, t):
    model.csi_hop_map(adj, t)


def _scan_sets(model, adj, t):
    for a, nbrs in adj.items():
        model.csi_hop_distances(a, nbrs, t)


def _scan_pairs(model, adj, t):
    for a, nbrs in adj.items():
        model.link_hop_distances(a, nbrs, t)


def _time_scan(n, scan, repeats=3):
    """Wall time of a full-network neighbour-set CSI scan.

    ``scan(model, adjacency, t)`` classifies every terminal's neighbour
    set at ``t``.  Fresh models per repeat so every repeat advances
    fading state identically.
    """
    best = math.inf
    pairs = 0
    for _ in range(repeats):
        topo = _make_topology(n)
        model = _make_model(topo)
        for t in WARMUP_TIMES:  # allocate pair state off the clock
            model.csi_hop_map(topo.neighbor_map(t), t)
        adjacency = {t: topo.neighbor_map(t) for t in QUERY_TIMES}
        pairs = sum(len(nbrs) for adj in adjacency.values() for nbrs in adj.values())
        start = time.perf_counter()
        for t in QUERY_TIMES:
            scan(model, adjacency[t], t)
        best = min(best, time.perf_counter() - start)
    return best, pairs


def test_channel_bank_speedup(bench_json_recorder):
    payload = {
        "side_m": SIDE_M,
        "query_times": QUERY_TIMES,
        "workload": "full-network neighbour-set CSI scan (fading->SNR->classify)",
        "results": {},
    }
    for n in NODE_COUNTS:
        vec_s, pairs = _time_scan(n, _scan_map)
        vec_set_s, _ = _time_scan(n, _scan_sets)
        pair_s, pair_pairs = _time_scan(n, _scan_pairs)
        assert pairs == pair_pairs  # identical trajectories => same sets
        speedup = pair_s / vec_s if vec_s > 0 else math.inf
        per_set = pair_s / vec_set_s if vec_set_s > 0 else math.inf
        payload["results"][str(n)] = {
            "pairs_sampled": pairs,
            "per_pair_s": round(pair_s, 6),
            "vectorized_s": round(vec_s, 6),
            "vectorized_per_set_s": round(vec_set_s, 6),
            "speedup": round(speedup, 2),
            "per_set_speedup": round(per_set, 2),
        }
        print(
            f"\nn={n}: per-pair {pair_s*1e3:.2f} ms, vectorized {vec_s*1e3:.2f} ms "
            f"({vec_set_s*1e3:.2f} ms per-set), speedup {speedup:.1f}x"
        )
    bench_json_recorder("channel", payload)
    # CI regression gate: the array pipeline against the per-pair scan.
    assert payload["results"]["200"]["speedup"] >= 2.0


def test_thousand_node_smoke(bench_json_recorder):
    """A 1000-terminal scenario must complete end-to-end at CI scale."""
    from repro.experiments.scenario import ScenarioConfig, run_scenario

    config = ScenarioConfig(
        protocol="rica",
        n_nodes=SMOKE_NODES,
        # Constant paper density: 50 terminals per 1000 m x 1000 m.
        field_size_m=SIDE_M * math.sqrt(SMOKE_NODES / 50.0),
        n_flows=20,
        duration_s=SMOKE_DURATION_S,
        seed=1,
        position_epoch_s=0.2,
    )
    start = time.perf_counter()
    report = run_scenario(config)
    wall_s = time.perf_counter() - start
    print(
        f"\n1000-node smoke: {wall_s:.1f} s wall for {SMOKE_DURATION_S:.0f} s simulated, "
        f"delivery {report.delivery_pct:.1f}%, {report.generated} packets"
    )
    bench_json_recorder(
        "channel",
        {
            "smoke_1000_nodes": {
                "n_nodes": SMOKE_NODES,
                "sim_s": SMOKE_DURATION_S,
                "wall_s": round(wall_s, 2),
                "delivery_pct": round(report.delivery_pct, 2),
                "generated": report.generated,
            }
        },
    )
    assert report.generated > 0
    assert wall_s < 300.0  # loose CI guard; typical dev box ~30 s