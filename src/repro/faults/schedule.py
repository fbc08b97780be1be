"""Fault-schedule compilation and runtime injection.

:meth:`FaultSchedule.compile` turns a :class:`~repro.faults.config.FaultConfig`
into a sorted tuple of timestamped :class:`FaultEvent` records.  The
compilation is a pure function of ``(config, n_nodes, seed, horizon)``:
churn timelines are walked per node with exponential draws from
counter-based splitmix64 substreams (``derive_key(derive_seed(seed,
"faults/churn"), node)``), so the same scenario compiles to byte-identical
fault streams under any execution backend or MAC backend — the schedule
never reads simulation state.

:class:`FaultInjector` arms the compiled events on the
:class:`~repro.sim.engine.Simulator` (they drain through the ordinary
``(time, seq)`` event queue alongside traffic and protocol events) and
applies them through ``Network.fail_node`` / ``Network.recover_node``.
Blackout membership *is* resolved at runtime — the nodes inside the disc
when the window opens — because it depends on mobility; the event stream
itself stays backend-independent.  The optional energy monitor reads the
collector's per-node radio ledger each ``check_interval_s`` and kills
nodes whose consumed joules exceed their (jittered) budget; energy death
is permanent ("energy" stays in the node's down-reason set forever).

Routing protocols never see any of this directly: a dead node simply
stops ACKing, decoding and relaying, so failures surface exactly the way
the paper's protocols expect — through missing ACKs, discovery timeouts
and ``on_link_failure``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.faults.config import FaultConfig
from repro.geometry.vector import Vec2
from repro.sim.rng import CounterRandom, derive_key, derive_seed

if TYPE_CHECKING:  # pragma: no cover
    from repro.metrics.collector import MetricsCollector
    from repro.net.network import Network
    from repro.sim.engine import Simulator

__all__ = ["FaultEvent", "FaultSchedule", "FaultInjector"]

#: Deterministic tiebreak for same-instant fault events: recoveries apply
#: before crashes (a node scripted to flap at one instant ends up down),
#: blackout ends before blackout starts (back-to-back windows hand over
#: cleanly), node events before regional ones.
_ACTION_ORDER = {
    "recover": 0,
    "crash": 1,
    "blackout_end": 2,
    "blackout_start": 3,
}


@dataclass(frozen=True, order=True)
class FaultEvent:
    """One timestamped fault, ready to schedule on the engine.

    ``node`` is -1 for blackout events; ``blackout`` is -1 for node
    events (it indexes ``FaultConfig.blackouts``).  The dataclass order
    (time, priority, node, blackout) is the canonical schedule order.
    """

    time: float
    priority: int
    action: str
    node: int = -1
    blackout: int = -1


class FaultSchedule:
    """The compiled, immutable fault timeline of one scenario."""

    __slots__ = ("events",)

    def __init__(self, events: Tuple[FaultEvent, ...]) -> None:
        self.events = events

    @classmethod
    def compile(
        cls, config: FaultConfig, n_nodes: int, seed: int, horizon: float
    ) -> "FaultSchedule":
        """Compile ``config`` into sorted fault events for ``[0, horizon)``.

        Pure in ``(config, n_nodes, seed, horizon)`` — see the module
        docstring for why that purity is the determinism contract.
        """
        events: List[FaultEvent] = []
        if config.churn is not None:
            churn = config.churn
            churn_seed = derive_seed(seed, "faults/churn")
            end = horizon if churn.end_s is None else min(churn.end_s, horizon)
            for node in range(n_nodes):
                rng = CounterRandom(derive_key(churn_seed, node))
                t = churn.start_s
                while True:
                    t += _exponential(rng, churn.crash_rate_per_s)
                    if t >= end:
                        break
                    events.append(FaultEvent(t, _ACTION_ORDER["crash"], "crash", node=node))
                    t += _exponential(rng, 1.0 / churn.mean_downtime_s)
                    if t >= end:
                        break
                    events.append(
                        FaultEvent(t, _ACTION_ORDER["recover"], "recover", node=node)
                    )
        for outage in config.outages:
            if outage.node_id >= n_nodes:
                raise ConfigurationError(
                    f"outage node_id={outage.node_id} does not exist "
                    f"(scenario has {n_nodes} nodes)"
                )
            if outage.crash_s < horizon:
                events.append(
                    FaultEvent(
                        outage.crash_s, _ACTION_ORDER["crash"], "crash", node=outage.node_id
                    )
                )
                if outage.recover_s is not None and outage.recover_s < horizon:
                    events.append(
                        FaultEvent(
                            outage.recover_s,
                            _ACTION_ORDER["recover"],
                            "recover",
                            node=outage.node_id,
                        )
                    )
        for idx, blackout in enumerate(config.blackouts):
            if blackout.start_s >= horizon:
                continue
            events.append(
                FaultEvent(
                    blackout.start_s,
                    _ACTION_ORDER["blackout_start"],
                    "blackout_start",
                    blackout=idx,
                )
            )
            if blackout.end_s < horizon:
                events.append(
                    FaultEvent(
                        blackout.end_s,
                        _ACTION_ORDER["blackout_end"],
                        "blackout_end",
                        blackout=idx,
                    )
                )
        events.sort()
        return cls(tuple(events))

    def __len__(self) -> int:
        return len(self.events)

    def signature(self) -> Tuple[Tuple[float, str, int, int], ...]:
        """A hashable/JSON-friendly rendering for differential tests."""
        return tuple((e.time, e.action, e.node, e.blackout) for e in self.events)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"FaultSchedule(events={len(self.events)})"


def _exponential(rng: CounterRandom, rate: float) -> float:
    """Exponential variate by inversion (``u`` in [0, 1) keeps log finite)."""
    return -math.log(1.0 - rng.random()) / rate


class FaultInjector:
    """Arms a compiled schedule on the engine and applies the faults."""

    def __init__(
        self,
        sim: "Simulator",
        network: "Network",
        metrics: "MetricsCollector",
        config: FaultConfig,
        schedule: FaultSchedule,
        horizon: float,
        energy_budgets_j: Optional[List[float]] = None,
    ) -> None:
        self._sim = sim
        self._network = network
        self._metrics = metrics
        self._config = config
        self.schedule = schedule
        self._horizon = horizon
        self._energy_budgets_j = energy_budgets_j
        #: Blackout index -> node ids taken down at its start instant.
        self._blackout_members: Dict[int, List[int]] = {}
        self._energy_dead: set = set()
        # Diagnostics (also mirrored into metrics events).
        self.crashes = 0
        self.recoveries = 0
        self.energy_deaths = 0

    @classmethod
    def from_config(
        cls,
        sim: "Simulator",
        network: "Network",
        metrics: "MetricsCollector",
        config: FaultConfig,
        seed: int,
        horizon: float,
    ) -> "FaultInjector":
        """Compile the schedule and derive per-node energy budgets."""
        schedule = FaultSchedule.compile(
            config, n_nodes=network.node_count, seed=seed, horizon=horizon
        )
        budgets: Optional[List[float]] = None
        if config.energy is not None:
            metrics.enable_node_radio()
            energy_seed = derive_seed(seed, "faults/energy")
            jitter = config.energy.budget_jitter
            budgets = []
            for node in range(network.node_count):
                u = CounterRandom(derive_key(energy_seed, node)).random()
                budgets.append(config.energy.budget_j * (1.0 + jitter * (2.0 * u - 1.0)))
        return cls(sim, network, metrics, config, schedule, horizon, budgets)

    def start(self) -> None:
        """Schedule every compiled event (plus the energy monitor)."""
        for event in self.schedule.events:
            self._sim.schedule_at(event.time, self._apply, event)
        if self._energy_budgets_j is not None:
            self._sim.schedule(self._config.energy.check_interval_s, self._energy_check)

    # ------------------------------------------------------------------
    def _apply(self, event: FaultEvent) -> None:
        if event.action == "crash":
            if self._network.fail_node(event.node, reason="churn"):
                self.crashes += 1
                self._metrics.record_event("fault_node_crash")
        elif event.action == "recover":
            if self._network.recover_node(event.node, reason="churn"):
                self.recoveries += 1
                self._metrics.record_event("fault_node_recover")
        elif event.action == "blackout_start":
            self._blackout_start(event.blackout)
        elif event.action == "blackout_end":
            self._blackout_end(event.blackout)

    def _blackout_start(self, idx: int) -> None:
        blackout = self._config.blackouts[idx]
        center = Vec2(blackout.center_x_m, blackout.center_y_m)
        # Membership = active nodes inside the disc right now; nodes that
        # are already down for another reason ride out the window on their
        # own reason set.
        members = self._network.topology.nodes_within(
            center, self._sim.now, blackout.radius_m
        )
        self._blackout_members[idx] = members
        reason = ("blackout", idx)
        for node in members:
            self._network.fail_node(node, reason=reason)
        self._metrics.record_event("fault_blackout_start")
        if members:
            self._metrics.record_event("fault_blackout_node_down", len(members))

    def _blackout_end(self, idx: int) -> None:
        reason = ("blackout", idx)
        for node in self._blackout_members.pop(idx, []):
            self._network.recover_node(node, reason=reason)
        self._metrics.record_event("fault_blackout_end")

    def _energy_check(self) -> None:
        budgets = self._energy_budgets_j
        model = self._config.energy.model
        tx = self._metrics.node_radio_tx
        rx = self._metrics.node_radio_rx
        for node in range(self._network.node_count):
            if node in self._energy_dead:
                continue
            if model.total_joules(tx[node], rx[node]) >= budgets[node]:
                self._energy_dead.add(node)
                # Permanent: the "energy" reason is never removed, so churn
                # recoveries cannot resurrect a drained battery.
                self._network.fail_node(node, reason="energy")
                self.energy_deaths += 1
                self._metrics.record_event("fault_energy_death")
        interval = self._config.energy.check_interval_s
        if self._sim.now + interval <= self._horizon:
            self._sim.schedule(interval, self._energy_check)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"FaultInjector(events={len(self.schedule)}, crashes={self.crashes}, "
            f"recoveries={self.recoveries}, energy_deaths={self.energy_deaths})"
        )
