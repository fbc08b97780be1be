"""Scenario assembly and execution.

:class:`ScenarioConfig` captures the paper's simulation environment
(Section III-A) with its published defaults: 50 terminals in a
1000 m x 1000 m field, random-waypoint mobility with a 3 s pause and
speed ~ U(0, MAXSPEED) where MAXSPEED is twice the *mean* speed the
figures' x-axes show, 250 m range, 10 Poisson flows of 512-byte packets,
10-packet per-link buffers with the 3 s residence rule, and a 250 kbps
CSMA/CA common channel.

:func:`build_scenario` assembles the object graph (for tests and examples
that want to poke at internals); :func:`run_scenario` builds, runs and
returns the :class:`~repro.metrics.report.MetricsReport`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.channel.model import ChannelConfig
from repro.errors import ConfigurationError
from repro.faults import FaultConfig, FaultInjector
from repro.geometry.field import Field
from repro.mac.csma import MAC_BACKENDS, MacConfig
from repro.metrics.collector import MetricsCollector
from repro.metrics.report import MetricsReport
from repro.mobility.direction import RandomDirection
from repro.mobility.waypoint import RandomWaypoint
from repro.net.datalink import DataLinkConfig
from repro.net.network import Network
from repro.routing.base import ProtocolConfig, RoutingProtocol
from repro.routing.registry import create_protocol, protocol_class
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.trace import Tracer
from repro.traffic.pairs import Flow, choose_flows
from repro.traffic.poisson import PoissonSource

__all__ = ["ScenarioConfig", "Scenario", "build_scenario", "run_scenario"]

_KMH_TO_MS = 1000.0 / 3600.0


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything needed to run one simulation (paper defaults)."""

    protocol: str = "rica"
    n_nodes: int = 50
    field_size_m: float = 1000.0
    #: Mean terminal speed in km/h (the figures' x-axis).  MAXSPEED of the
    #: uniform speed distribution is twice this value.
    mean_speed_kmh: float = 36.0
    pause_s: float = 3.0
    n_flows: int = 10
    rate_pps: float = 10.0
    packet_bytes: int = 512
    duration_s: float = 500.0
    seed: int = 1
    channel: ChannelConfig = field(default_factory=ChannelConfig)
    mac: MacConfig = field(default_factory=MacConfig)
    datalink: DataLinkConfig = field(default_factory=DataLinkConfig)
    protocol_config: Optional[ProtocolConfig] = None
    throughput_bin_s: float = 4.0
    #: Packets generated before this time are excluded from all metrics
    #: (steady-state measurement); 0 reproduces the paper's whole-run
    #: averaging.
    warmup_s: float = 0.0
    #: Mobility model: "waypoint" (the paper's), "direction" (extension).
    mobility_model: str = "waypoint"
    #: MAC attempt-scheduler backend: "scalar" (the default — per-event
    #: CSMA state machine, byte-identical to the paper-faithful seed) or
    #: "batched" (shared BackoffBank + slot-aligned contention rounds +
    #: bulk ACK timers; pair with ``mac.slot_align_s`` > 0 for the batch
    #: win — see docs/ARCHITECTURE.md, "The MAC attempt scheduler").
    mac_backend: str = "scalar"
    #: Topology-index position quantum (s).  0 samples positions at exact
    #: query times; > 0 freezes them per quantum (faster, positions stale
    #: by at most one quantum — see docs/ARCHITECTURE.md).
    position_epoch_s: float = 0.0
    #: RREQ-aggregation jitter window (s) for the on-demand protocols.  0
    #: (the default) is the paper's immediate-relay flooding; > 0 holds
    #: each relay for a random fraction of the window, coalescing duplicate
    #: copies and suppressing relays whose area neighbours already covered
    #: (see docs/ARCHITECTURE.md, "The reception pipeline").
    rreq_aggregation_s: float = 0.0
    #: Deterministic fault injection (node churn, blackouts, energy death);
    #: None (the default) runs fault-free and is byte-identical to a build
    #: that predates the fault subsystem.  See repro.faults.
    faults: Optional[FaultConfig] = None
    #: Attach a structured tracer (repro.trace) to every protocol instance.
    enable_trace: bool = False

    def __post_init__(self) -> None:
        if self.n_nodes < 2:
            raise ConfigurationError("need at least 2 nodes")
        if self.mean_speed_kmh < 0:
            raise ConfigurationError("mean_speed_kmh must be >= 0")
        if self.duration_s <= 0:
            raise ConfigurationError("duration_s must be positive")
        if not (0.0 <= self.warmup_s < self.duration_s):
            raise ConfigurationError("warmup_s must lie in [0, duration_s)")
        if self.position_epoch_s < 0:
            raise ConfigurationError("position_epoch_s must be >= 0")
        if self.rreq_aggregation_s < 0:
            raise ConfigurationError("rreq_aggregation_s must be >= 0")
        if self.rreq_aggregation_s > 0 and self.protocol_config is not None:
            raise ConfigurationError(
                "rreq_aggregation_s conflicts with an explicit protocol_config; "
                "set rreq_aggregation_s on the protocol_config instead"
            )
        if self.mobility_model not in ("waypoint", "direction"):
            raise ConfigurationError(
                f"unknown mobility model {self.mobility_model!r}; "
                "known: waypoint, direction"
            )
        if self.mac_backend not in MAC_BACKENDS:
            raise ConfigurationError(
                f"unknown MAC backend {self.mac_backend!r}; "
                f"known: {', '.join(MAC_BACKENDS)}"
            )
        if self.faults is not None:
            if not isinstance(self.faults, FaultConfig):
                raise ConfigurationError(
                    f"faults must be a FaultConfig, got {type(self.faults).__name__}"
                )
            self.faults.validate_horizon(self.duration_s)
        protocol_class(self.protocol)  # validate the name early

    @property
    def max_speed_ms(self) -> float:
        """MAXSPEED in m/s (paper: speed ~ U(0, MAXSPEED), mean = MAX/2)."""
        return 2.0 * self.mean_speed_kmh * _KMH_TO_MS

    def with_(self, **changes) -> "ScenarioConfig":
        """A modified copy (convenience over dataclasses.replace)."""
        return replace(self, **changes)


@dataclass
class Scenario:
    """The assembled object graph of one run (pre-execution)."""

    config: ScenarioConfig
    sim: Simulator
    network: Network
    metrics: MetricsCollector
    protocols: List[RoutingProtocol]
    flows: List[Flow]
    sources: List[PoissonSource]
    #: Structured event log (None unless config.enable_trace).
    tracer: Optional["Tracer"] = None
    #: Armed fault timeline (None unless config.faults is set).
    fault_injector: Optional[FaultInjector] = None

    def start(self) -> None:
        """Arm faults, protocols and traffic (idempotent setup step).

        Split out of :meth:`run` so stepped execution (tests driving
        ``sim.step()`` themselves) arms the exact same event population —
        including the fault schedule — as a plain ``run()``.
        """
        if self.fault_injector is not None:
            self.fault_injector.start()
        for proto in self.protocols:
            proto.start()
        for source in self.sources:
            source.start()

    def run(self) -> MetricsReport:
        """Execute the scenario and return the metrics report."""
        self.start()
        self.sim.run(until=self.config.duration_s)
        for proto in self.protocols:
            proto.stop()
        return self.metrics.report()


def build_scenario(config: ScenarioConfig) -> Scenario:
    """Assemble simulator, network, protocols and traffic for ``config``."""
    streams = RandomStreams(config.seed)
    sim = Simulator()
    metrics = MetricsCollector(
        config.duration_s,
        throughput_bin_s=config.throughput_bin_s,
        warmup_s=config.warmup_s,
    )
    field_ = Field(config.field_size_m, config.field_size_m)
    network = Network(
        sim,
        field_,
        streams,
        metrics,
        channel_config=config.channel,
        mac_config=config.mac,
        datalink_config=config.datalink,
        position_epoch_s=config.position_epoch_s,
        mac_backend=config.mac_backend,
    )
    mobility_cls = RandomWaypoint if config.mobility_model == "waypoint" else RandomDirection
    for i in range(config.n_nodes):
        mobility = mobility_cls(
            field_,
            streams.stream(f"mobility/{i}"),
            max_speed=config.max_speed_ms,
            pause_time=config.pause_s,
        )
        network.add_node(mobility)

    flows = choose_flows(
        config.n_flows,
        config.n_nodes,
        config.rate_pps,
        streams.stream("traffic/pairs"),
        packet_bytes=config.packet_bytes,
    )
    flow_rates: Dict[Tuple[int, int], float] = {(f.src, f.dst): f.rate_bps for f in flows}

    proto_config = config.protocol_config
    if proto_config is None:
        cls = protocol_class(config.protocol)
        # Each protocol module ships its own config subclass with defaults;
        # fall back to the shared base when the class has none.
        proto_config = _default_config_for(cls)
        # The scenario-level window only applies to configs built here; a
        # caller-supplied protocol_config keeps its own aggregation setting
        # (and is never mutated by the scenario knob).
        proto_config.rreq_aggregation_s = config.rreq_aggregation_s
    proto_config.flow_rates_bps.update(flow_rates)

    protocols = [
        create_protocol(config.protocol, node, network, metrics, proto_config)
        for node in network.nodes()
    ]
    tracer = None
    if config.enable_trace:
        tracer = Tracer()
        for proto in protocols:
            proto.tracer = tracer
    sources = [
        PoissonSource(
            sim,
            network.node(flow.src),
            flow,
            streams.stream(f"traffic/{flow.flow_id}"),
            metrics,
            until=config.duration_s,
        )
        for flow in flows
    ]
    fault_injector = None
    if config.faults is not None and config.faults.enabled():
        fault_injector = FaultInjector.from_config(
            sim, network, metrics, config.faults, config.seed, config.duration_s
        )
    return Scenario(
        config=config,
        sim=sim,
        network=network,
        metrics=metrics,
        protocols=protocols,
        flows=flows,
        sources=sources,
        tracer=tracer,
        fault_injector=fault_injector,
    )


def _default_config_for(cls) -> ProtocolConfig:
    """Instantiate the protocol's own config subclass when it has one."""
    from repro.core.rica import RicaConfig, RicaProtocol
    from repro.routing.abr import AbrConfig, AbrProtocol
    from repro.routing.bgca import BgcaConfig, BgcaProtocol
    from repro.routing.link_state import LinkStateConfig, LinkStateProtocol

    defaults = {
        RicaProtocol: RicaConfig,
        AbrProtocol: AbrConfig,
        BgcaProtocol: BgcaConfig,
        LinkStateProtocol: LinkStateConfig,
    }
    return defaults.get(cls, ProtocolConfig)()


def run_scenario(config: ScenarioConfig) -> MetricsReport:
    """Build and execute one scenario."""
    return build_scenario(config).run()
