"""How fast the host runs Python right now, from a fixed probe job.

The benchmark runs on shared hosts whose speed drifts for minutes at a
time: the same instructions take more or less time as other tenants'
load changes, most likely through the clock the virtual CPU runs at and
the caches it shares.
Timing the process's CPU time rather than wall time removes the time the
host gives to others, but not this.

The probe is a fixed job shaped like the simulator's inner loop: a heap
of timed events, small objects moving on a plane, distance tests, and a
dict of keys seen.  It imports nothing from ``repro``, so no change to the
program can move it.  ``run.py`` times it between scenarios and divides
the CPU times it reports by ``HostSpeed.speed_factor()``, so that they
read as CPU seconds on the reference host of ``perfbench/README.md``.
"""

from __future__ import annotations

import gc
import heapq
import math
import statistics
import time
from typing import List

#: Median CPU time of one ``probe()`` on the reference host of
#: perfbench/README.md.  A unit, not a tuning knob: it sets the scale of
#: the times ``run.py`` reports, not their spread.  Re-measure it if
#: ``probe`` changes.
REFERENCE_S = 0.0465

_NODES = 50
_EVENTS = 7000
#: Untimed events first: right after a scenario is freed or built, the
#: first few thousand events run up to a third slower (memory handed back
#: to the system and faulted in again, cold caches).
_WARMUP_EVENTS = 2000
_RANGE_M = 250.0


class _Mover:
    """A node in straight-line motion, with the keys it has seen."""

    def __init__(self, i: int) -> None:
        self.x = (i * 37.0) % 1000.0
        self.y = (i * 91.0) % 1000.0
        self.vx = ((i * 13) % 21 - 10) * 0.5
        self.vy = ((i * 29) % 21 - 10) * 0.5
        self.seen: dict = {}


def probe(events: int = _EVENTS) -> int:
    """Run the fixed job; the number of repeated keys (the same every time)."""
    nodes = [_Mover(i) for i in range(_NODES)]
    queue = [(0.0, i, i) for i in range(_NODES)]
    heapq.heapify(queue)
    seq = _NODES
    repeats = 0
    while seq < events:
        t, _, i = heapq.heappop(queue)
        node = nodes[i]
        px = node.x + node.vx * t
        py = node.y + node.vy * t
        near = [  # never empty: it holds node i itself
            j
            for j, other in enumerate(nodes)
            if math.hypot(other.x + other.vx * t - px, other.y + other.vy * t - py) < _RANGE_M
        ]
        for j in near[:4]:
            key = (i + seq) % 97
            seen = nodes[j].seen
            if key in seen:
                repeats += 1
            else:
                seen[key] = t
        seq += 1
        heapq.heappush(queue, (t + 0.001 * (1 + seq % 7), seq, near[seq % len(near)]))
    return repeats


class HostSpeed:
    """Probe CPU times taken during a run."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def sample(self) -> None:
        # With the collector off, a collection the last scenario's garbage
        # has made due runs in the next scenario, as it would without the
        # probe, and not in the probe.
        enabled = gc.isenabled()
        gc.disable()
        try:
            probe(_WARMUP_EVENTS)
            t0 = time.process_time()
            probe()
            self.samples.append(time.process_time() - t0)
        finally:
            if enabled:
                gc.enable()

    def speed_factor(self) -> float:
        """Median probe time over ``REFERENCE_S``: above 1 on a slower host."""
        return statistics.median(self.samples) / REFERENCE_S
