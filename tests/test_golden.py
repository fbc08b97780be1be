"""Golden reports: default behaviour pinned byte for byte.

Each case is a small scenario on the library defaults (paper point,
random waypoint at 36 km/h mean, fading on).  Its ``MetricsReport`` is
serialised with :func:`render` and compared against the committed file
``tests/golden/<case>.json``.  Any change that moves a single metric of
a default run — an extra random draw, a reordered event, a position
evaluated at a different instant — fails here.

Regenerate (only when a change is *meant* to alter default results, and
say so in CHANGES.md)::

    PYTHONPATH=src python -m tests.test_golden
"""

from __future__ import annotations

import dataclasses
import json
import os

import pytest

from repro.experiments.scenario import ScenarioConfig, run_scenario
from repro.faults import FaultConfig, NodeChurnConfig

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

#: A few simulated seconds at the paper's n = 50 point: long enough for
#: discoveries, deliveries and route breaks, short enough for tier-1.
_BASE = dict(duration_s=4.0, seed=1)

CASES = {
    **{
        protocol: ScenarioConfig(protocol=protocol, **_BASE)
        for protocol in ("rica", "bgca", "abr", "aodv", "link_state")
    },
    "aodv_direction": ScenarioConfig(
        protocol="aodv", mobility_model="direction", **_BASE
    ),
    "rica_churn": ScenarioConfig(
        protocol="rica",
        faults=FaultConfig(
            churn=NodeChurnConfig(crash_rate_per_s=0.05, mean_downtime_s=1.0)
        ),
        **_BASE,
    ),
    # Dense field (n = 50 on 600 m): about two thirds of the CSI-check
    # broadcasts reach more than 16 receivers, so the per-link CSI samples
    # of large receiver sets are pinned here, not only small ones.
    "rica_dense": ScenarioConfig(protocol="rica", field_size_m=600.0, **_BASE),
}


def render(case: str) -> str:
    """The case's report as canonical JSON text."""
    report = run_scenario(CASES[case])
    return json.dumps(dataclasses.asdict(report), sort_keys=True, indent=1) + "\n"


def _path(case: str) -> str:
    return os.path.join(GOLDEN_DIR, f"{case}.json")


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_matches_golden(case):
    with open(_path(case)) as fh:
        expected = fh.read()
    assert render(case) == expected


if __name__ == "__main__":
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name in sorted(CASES):
        with open(_path(name), "w") as fh:
            fh.write(render(name))
        print(f"wrote {_path(name)}")
