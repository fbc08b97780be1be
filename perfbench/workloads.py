"""The benchmark's workloads: batch jobs of scenarios built from a seed.

A workload sets scenario parameters only (protocol, nodes, field, speed,
rate, flows, horizon).  Backend selectors and approximation knobs keep the
library defaults, so a change to a default is measured on unchanged
workloads.  Scenario seeds are derived from the workload seed the way
``repro.experiments.sweep.run_trials`` derives trial seeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.experiments.scenario import ScenarioConfig
from repro.sim.rng import derive_seed

#: The five protocols of the paper's comparison, in figure order.
PROTOCOLS = ("rica", "bgca", "abr", "aodv", "link_state")


def trial_seed(seed: int, trial: int) -> int:
    """Seed of trial ``trial`` under workload seed ``seed`` (as run_trials)."""
    return derive_seed(seed, f"trial/{trial}") % (2**31)


@dataclass(frozen=True)
class Workload:
    name: str
    #: One line: what the workload stresses and why it is here.
    why: str
    #: The workload's scenarios, built from the workload seed.
    configs: Callable[[int], List[ScenarioConfig]]


#: paper_rica: trials of the Section III-A point (50 nodes, 1000 m field,
#: 36 km/h mean random waypoint with 3 s pauses, 10 flows x 10 pkt/s x
#: 512 B are all ScenarioConfig defaults), shortened to PAPER_HORIZON_S.
PAPER_TRIALS = 20
PAPER_HORIZON_S = 10.0

#: panel: PANEL_TRIALS trials per (protocol, speed) at both ends of the
#: speed axis, in the order run_speed_sweep(trials=PANEL_TRIALS) runs them.
PANEL_SPEEDS_KMH = (0.0, 72.0)
PANEL_TRIALS = 4
PANEL_HORIZON_S = 2.5

#: storm: AODV, 200 nodes at paper density, 25 flows starting together.
STORM_NODES = 200
STORM_FIELD_M = 2000.0
STORM_FLOWS = 25
STORM_TRIALS = 10
STORM_HORIZON_S = 0.5


def _paper_rica(seed: int) -> List[ScenarioConfig]:
    return [
        ScenarioConfig(protocol="rica", duration_s=PAPER_HORIZON_S, seed=trial_seed(seed, i))
        for i in range(PAPER_TRIALS)
    ]


def _panel(seed: int) -> List[ScenarioConfig]:
    # run_speed_sweep order (protocol, then speed, then trial), but every
    # scenario has its own seed, so one placement's cost is averaged over
    # all of them instead of over PANEL_TRIALS.
    cells = [
        (protocol, speed)
        for protocol in PROTOCOLS
        for speed in PANEL_SPEEDS_KMH
        for _trial in range(PANEL_TRIALS)
    ]
    return [
        ScenarioConfig(
            protocol=protocol,
            mean_speed_kmh=speed,
            rate_pps=10.0,
            duration_s=PANEL_HORIZON_S,
            seed=trial_seed(seed, i),
        )
        for i, (protocol, speed) in enumerate(cells)
    ]


def _storm(seed: int) -> List[ScenarioConfig]:
    return [
        ScenarioConfig(
            protocol="aodv",
            n_nodes=STORM_NODES,
            field_size_m=STORM_FIELD_M,
            n_flows=STORM_FLOWS,
            duration_s=STORM_HORIZON_S,
            seed=trial_seed(seed, i),
        )
        for i in range(STORM_TRIALS)
    ]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "paper_rica",
            "RICA at the paper's own Section III-A point; its CSI-check flood loads the channel path",
            _paper_rica,
        ),
        Workload(
            "panel",
            "all five protocols at 0 and 72 km/h, the run set behind one figure panel; link state takes about half its host time",
            _panel,
        ),
        Workload(
            "storm",
            "AODV at n=200 with 25 simultaneous discoveries; topology, mobility and MAC dominate, CSI path unused",
            _storm,
        ),
    )
}
