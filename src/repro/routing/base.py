"""Routing protocol contract and the shared on-demand machinery.

Two layers live here:

* :class:`RoutingProtocol` — the contract every protocol satisfies, plus
  the data-plane plumbing all five share: next-hop forwarding with a hop
  limit, local delivery, upstream tracking per flow (who last sent us data
  for flow ``(src, dst)``, needed to unicast REERs back toward the source),
  and control-packet dispatch.

* :class:`OnDemandProtocol` — everything the four on-demand protocols
  (AODV, RICA, BGCA, ABR) share: source-side discovery state with retries,
  RREQ flooding with duplicate suppression and accumulator updates,
  destination-side reply collection windows, reverse-pointer bookkeeping
  for returning RREPs, pending-packet buffers, and the REER chain with the
  paper's staleness rule ("if the terminal unicasting the REER is not its
  downstream terminal, it ignores this REER").

Protocols differ in a small set of overridable policy points: the route
selection metric (:meth:`OnDemandProtocol.request_metric`), the reply wait
window, what happens on link failure, and any periodic machinery (beacons,
CSI checking, link monitoring).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import RoutingError
from repro.metrics.collector import DropReason, MetricsCollector
from repro.net.network import Network
from repro.net.node import Node
from repro.net.packet import DataPacket, Packet
from repro.routing.flood import FloodCache
from repro.routing.packets import (
    ControlPacket,
    RouteError,
    RouteReply,
    RouteRequest,
)
from repro.routing.pending import PendingBuffers
from repro.routing.table import RoutingTable

__all__ = ["RoutingProtocol", "OnDemandProtocol", "ProtocolConfig"]


@dataclass
class ProtocolConfig:
    """Tunables shared by all protocols (paper values where available)."""

    #: Destination-side collection window for RREQ candidates (s).  The
    #: paper gives 40 ms for the source-side CSI wait; we mirror it here.
    reply_wait_s: float = 0.04
    #: Source-side wait after the first CSI checking packet (paper: 40 ms).
    source_wait_s: float = 0.04
    #: Discovery attempt timeout before a retry (s).
    discovery_timeout_s: float = 0.5
    #: Full-discovery attempts before giving up and dropping pending data.
    max_discovery_retries: int = 2
    #: Idle lifetime of a route entry; None disables idle expiry.
    route_idle_timeout_s: Optional[float] = None
    #: Hop limit on data packets (loop guard).
    data_hop_limit: int = 64
    #: Source-side pending buffer capacity (packets per destination).
    pending_capacity: int = 50
    #: Maximum residence in pending buffers (paper's 3 s rule).
    pending_residence_s: float = 3.0
    #: Lifetime of reverse pointers awaiting an RREP (s).
    reverse_lifetime_s: float = 2.0
    #: Whether later duplicate RREQ/CSI copies with a strictly better metric
    #: may refine a node's reverse/downstream pointer (DESIGN.md note 2).
    refine_pointers: bool = True
    #: RREQ-aggregation jitter window (s).  0 (the default) preserves the
    #: paper's behaviour: every terminal relays the first copy of a flood
    #: immediately.  > 0 holds the relay for a uniform random fraction of
    #: the window, coalescing duplicate copies heard meanwhile into the one
    #: pending transmission (best accumulators win) and suppressing it
    #: entirely once ``rreq_suppress_copies`` duplicates were heard — the
    #: route-request aggregation idea of Mirzazad-Barijough &
    #: Garcia-Luna-Aceves, which trades a few ms of discovery latency for
    #: a large cut in flood-storm control transmissions.
    rreq_aggregation_s: float = 0.0
    #: Duplicate copies heard during the jitter window at which the pending
    #: relay is suppressed (neighbours have already covered this area).
    rreq_suppress_copies: int = 2
    #: Per-flow offered load in bps, keyed by (src, dst) — BGCA's bandwidth
    #: guard needs it; filled in by the experiment builder.
    flow_rates_bps: Dict[Tuple[int, int], float] = field(default_factory=dict)


class RoutingProtocol:
    """Base class: data-plane plumbing + control dispatch."""

    #: Protocol name as used in the paper's figures and the CLI.
    name = "abstract"

    def __init__(
        self,
        node: Node,
        network: Network,
        metrics: MetricsCollector,
        config: Optional[ProtocolConfig] = None,
    ) -> None:
        self.node = node
        self.network = network
        self.sim = network.sim
        self.channel = network.channel
        self.metrics = metrics
        self.config = config or ProtocolConfig()
        self.rng = network.streams.stream(f"routing/{node.id}")
        self.table = RoutingTable()
        self.flood_cache = FloodCache()
        self.pending = PendingBuffers(
            metrics,
            capacity=self.config.pending_capacity,
            max_residence_s=self.config.pending_residence_s,
        )
        #: Per-flow upstream neighbour (who last handed us data for (src, dst)).
        self.flow_upstream: Dict[Tuple[int, int], int] = {}
        #: Optional structured tracer (see repro.trace); None = off.
        self.tracer = None
        node.attach_routing(self)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Arm periodic machinery (beacons, monitors...).  Default: none."""

    def stop(self) -> None:
        """Cancel periodic machinery.  Default: none."""

    # ------------------------------------------------------------------
    # Traffic entry point
    # ------------------------------------------------------------------
    def handle_app_packet(self, packet: DataPacket) -> None:
        """The local application generated ``packet`` (already counted)."""
        self.dispatch_data(packet)

    # ------------------------------------------------------------------
    # Data plane
    # ------------------------------------------------------------------
    def handle_data(self, packet: DataPacket, from_id: int) -> None:
        """A data packet arrived over the data channel from ``from_id``."""
        self.flow_upstream[(packet.src, packet.dst)] = from_id
        if packet.dst == self.node.id:
            self.deliver_local(packet)
            self.on_data_at_destination(packet, from_id)
            return
        self.on_data_in_transit(packet, from_id)
        self.dispatch_data(packet)

    def dispatch_data(self, packet: DataPacket) -> None:
        """Forward ``packet`` along the current route, or invoke no-route."""
        now = self.sim.now
        entry = self.table.get_valid(packet.dst, now, self.config.route_idle_timeout_s)
        if entry is None:
            self.on_no_route(packet)
            return
        entry.touch(now)
        self.send_data(packet, entry.next_hop)

    def send_data(self, packet: DataPacket, next_hop: int) -> None:
        """Hand ``packet`` to the data link, enforcing the hop limit."""
        if packet.hops_traversed >= self.config.data_hop_limit:
            self.metrics.record_event("hop_limit_exceeded")
            self.drop_data(packet, DropReason.HOP_LIMIT)
            return
        self.node.send_data(packet, next_hop)

    def deliver_local(self, packet: DataPacket) -> None:
        """``packet`` reached its destination terminal."""
        self.metrics.record_delivered(packet, self.sim.now)

    def drop_data(self, packet: DataPacket, reason: DropReason) -> None:
        """Discard ``packet`` and account for it."""
        self.metrics.record_dropped(packet, reason)

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------
    def on_no_route(self, packet: DataPacket) -> None:
        """No valid route for ``packet``.  Default: drop."""
        self.drop_data(packet, DropReason.NO_ROUTE)

    def on_data_at_destination(self, packet: DataPacket, from_id: int) -> None:
        """Hook: a packet was just delivered here (RICA tracks activity)."""

    def on_data_in_transit(self, packet: DataPacket, from_id: int) -> None:
        """Hook: forwarding a packet for someone else."""

    def overhear(self, packet: ControlPacket, from_id: int) -> None:
        """Hook: a unicast control packet addressed to someone else."""

    # ------------------------------------------------------------------
    # Control plane
    # ------------------------------------------------------------------
    def handle_control(self, packet: Packet, from_id: int) -> None:
        """Dispatch a received routing packet by its kind."""
        if not isinstance(packet, ControlPacket):
            raise RoutingError(f"non-control packet on common channel: {packet!r}")
        if packet.unicast_to is not None and packet.unicast_to != self.node.id:
            self.overhear(packet, from_id)
            return
        handler = getattr(self, packet.handler, None)
        if handler is not None:
            handler(packet, from_id)

    @classmethod
    def group_receiver(
        cls, packet_cls: type
    ) -> Optional[Callable[[ControlPacket, int, List["RoutingProtocol"]], None]]:
        """How this class takes a whole broadcast of ``packet_cls``, or None.

        A returned ``receive(packet, from_id, protocols)`` is called once
        per broadcast, with the receiving instances in delivery order, in
        place of one :meth:`handle_control` per receiver (see
        :meth:`repro.net.network.Network.deliver_control_batch`).  It must
        leave the same effects the per-receiver calls would.  Default:
        None for every class.
        """
        return None

    def broadcast_control(self, packet: ControlPacket) -> bool:
        """Send a routing packet on the common channel."""
        return self.node.send_control(packet)

    def trace(self, category: str, **fields: object) -> None:
        """Emit a structured trace event (no-op when tracing is off)."""
        if self.tracer is not None:
            self.tracer.emit(self.sim.now, category, self.node.id, **fields)

    # ------------------------------------------------------------------
    # Link failures
    # ------------------------------------------------------------------
    def invalidate_routes_via(self, next_hop: int) -> List[int]:
        """Invalidate every route through ``next_hop``, marking each break.

        All protocols funnel next-hop invalidation through here so the
        collector can time break-to-repair latency: the matching repair is
        recorded by :meth:`note_route_repaired` when a fresh usable route
        to the same destination is installed at this node.
        """
        affected = self.table.invalidate_via(next_hop)
        now = self.sim.now
        for dest in affected:
            self.metrics.record_route_broken(self.node.id, dest, now)
        return affected

    def note_route_repaired(self, dest: int) -> None:
        """A usable route toward ``dest`` (re)appeared at this node."""
        self.metrics.record_route_repaired(self.node.id, dest, self.sim.now)

    def handle_link_failure(
        self, next_hop: int, packet: DataPacket, queued: List[DataPacket]
    ) -> None:
        """The data link gave up on ``next_hop``.  Default: drop everything."""
        self.invalidate_routes_via(next_hop)
        for pkt in [packet] + queued:
            self.drop_data(pkt, DropReason.LINK_FAILURE)

    # ------------------------------------------------------------------
    # REER helpers (shared by every protocol that uses them)
    # ------------------------------------------------------------------
    def send_reer(self, flow_src: int, flow_dst: int) -> None:
        """Unicast a route error toward the flow's source."""
        if self.node.id == flow_src:
            return
        upstream = self.flow_upstream.get((flow_src, flow_dst))
        if upstream is None:
            return
        reer = RouteError(
            self.sim.now, flow_src, flow_dst, reporter=self.node.id, unicast_to=upstream
        )
        self.broadcast_control(reer)

    def on_reer(self, reer: RouteError, from_id: int) -> None:
        """Paper Section II-D: accept only REERs from our true downstream."""
        entry = self.table.entry(reer.flow_dst)
        if entry is None or not entry.valid or entry.next_hop != from_id:
            self.metrics.record_event("reer_ignored_stale")
            return
        self.table.invalidate(reer.flow_dst)
        self.metrics.record_route_broken(self.node.id, reer.flow_dst, self.sim.now)
        self.trace("reer_accepted", flow_src=reer.flow_src, flow_dst=reer.flow_dst)
        if self.node.id == reer.flow_src:
            self.on_route_broken(reer.flow_dst)
            return
        # Relay the error toward the source.
        upstream = self.flow_upstream.get((reer.flow_src, reer.flow_dst))
        if upstream is not None:
            relay = RouteError(
                self.sim.now,
                reer.flow_src,
                reer.flow_dst,
                reporter=reer.reporter,
                unicast_to=upstream,
            )
            self.broadcast_control(relay)

    def on_route_broken(self, dest: int) -> None:
        """Hook: the source learned its route to ``dest`` is gone."""


class _Discovery:
    """Source-side state for one in-flight route discovery."""

    __slots__ = ("bcast_id", "attempts", "timer")

    def __init__(self, bcast_id: int, attempts: int, timer) -> None:
        self.bcast_id = bcast_id
        self.attempts = attempts
        self.timer = timer


class _ReplyCollector:
    """Destination-side candidate collection for one RREQ flood."""

    __slots__ = ("candidates", "timer")

    def __init__(self) -> None:
        self.candidates: List[Tuple[tuple, int, int, float]] = []
        self.timer = None


class _PendingRelay:
    """A relay held back by the RREQ-aggregation jitter window.

    Tracks the best copy seen so far (by the protocol's request metric)
    plus how many duplicate copies arrived while waiting — the suppression
    signal: every duplicate heard is a neighbour's relay already covering
    this terminal's area.
    """

    __slots__ = ("rreq", "from_id", "hops", "csi", "bottleneck", "metric", "copies")

    def __init__(
        self,
        rreq: RouteRequest,
        from_id: int,
        hops: int,
        csi: float,
        bottleneck: float,
        metric: tuple,
    ) -> None:
        self.rreq = rreq
        self.from_id = from_id
        self.hops = hops
        self.csi = csi
        self.bottleneck = bottleneck
        self.metric = metric
        self.copies = 0  # duplicates heard after the first copy


class OnDemandProtocol(RoutingProtocol):
    """Shared machinery of the on-demand family (AODV, RICA, BGCA, ABR)."""

    #: Whether RREQ accumulators include CSI hop distance (RICA/BGCA).
    uses_csi = False
    #: Destination waits this long collecting RREQ copies; 0 replies to the
    #: first copy immediately (AODV's documented behaviour in the paper).
    reply_wait_s: Optional[float] = None  # None -> config.reply_wait_s
    #: Whether later duplicate copies may refine reverse pointers.  Safe
    #: only for *additive* request metrics (hop count, CSI distance), where
    #: refinement is a Bellman relaxation and provably acyclic; protocols
    #: with non-monotone metrics (ABR's stability fraction) must keep the
    #: first-copy tree, which is acyclic by arrival causality.
    refinement_safe = True
    #: Safety valve: a reply relayed through more hops than this is stuck
    #: in a pointer anomaly and is discarded.
    MAX_REPLY_HOPS = 64

    def __init__(self, node, network, metrics, config=None) -> None:
        super().__init__(node, network, metrics, config)
        self._discoveries: Dict[int, _Discovery] = {}
        self._next_bcast_id = 0
        self._collectors: Dict[Tuple[int, int], _ReplyCollector] = {}
        self._replied = FloodCache()  # floods we already answered
        #: (origin, bcast_id) -> (upstream_neighbor, metric, stored_at)
        self._reverse: Dict[Tuple[int, int], Tuple[int, tuple, float]] = {}
        #: flood_key -> relay held back by the aggregation jitter window.
        self._pending_relays: Dict[tuple, _PendingRelay] = {}

    # ------------------------------------------------------------------
    # Policy points
    # ------------------------------------------------------------------
    def request_metric(
        self, rreq: RouteRequest, hops: int, csi: float, bottleneck_bw: float
    ) -> tuple:
        """Sortable badness of an RREQ copy (smaller wins).

        ``hops``/``csi``/``bottleneck_bw`` are the accumulators *including*
        the link the copy arrived on.  Default: plain hop count (AODV).
        """
        return (hops,)

    def make_rreq(self, dest: int, bcast_id: int) -> RouteRequest:
        """Build the discovery packet (protocols add fields/TTL here)."""
        return RouteRequest(self.sim.now, self.node.id, dest, bcast_id)

    def on_discovery_failed(self, dest: int) -> None:
        """All discovery attempts exhausted.  Default: drop pending data."""
        self.pending.drop_all(dest, DropReason.NO_ROUTE)

    def on_route_established(self, dest: int) -> None:
        """A route to ``dest`` appeared; flush pending data onto it."""
        for pkt in self.pending.release(dest, self.sim.now):
            self.dispatch_data(pkt)

    # ------------------------------------------------------------------
    # Source side
    # ------------------------------------------------------------------
    def on_no_route(self, packet: DataPacket) -> None:
        if packet.src == self.node.id:
            self.pending.hold(packet, self.sim.now)
            self.start_discovery(packet.dst)
        else:
            # Mid-route outage: drop and tell the source.
            self.drop_data(packet, DropReason.NO_ROUTE)
            self.send_reer(packet.src, packet.dst)

    def next_bcast_id(self) -> int:
        """Fresh broadcast id (paper: incremented per generated flood)."""
        self._next_bcast_id += 1
        return self._next_bcast_id

    def start_discovery(self, dest: int) -> None:
        """Kick off (or continue) a route discovery toward ``dest``."""
        if dest in self._discoveries:
            return
        self._launch_discovery(dest, attempts=0)

    def _launch_discovery(self, dest: int, attempts: int) -> None:
        bcast_id = self.next_bcast_id()
        rreq = self.make_rreq(dest, bcast_id)
        self.flood_cache.check_and_add(rreq.flood_key)  # don't accept our own flood
        self.broadcast_control(rreq)
        timer = self.sim.schedule(
            self.config.discovery_timeout_s, self._discovery_timeout, dest
        )
        self._discoveries[dest] = _Discovery(bcast_id, attempts, timer)
        self.metrics.record_event("discovery_started")
        self.trace("discovery", dest=dest, attempt=attempts, bcast_id=bcast_id)

    def _discovery_timeout(self, dest: int) -> None:
        disc = self._discoveries.get(dest)
        if disc is None:
            return
        if self.table.get_valid(dest, self.sim.now, self.config.route_idle_timeout_s):
            del self._discoveries[dest]
            return
        if disc.attempts + 1 <= self.config.max_discovery_retries:
            del self._discoveries[dest]
            self._launch_discovery(dest, attempts=disc.attempts + 1)
            return
        del self._discoveries[dest]
        self.metrics.record_event("discovery_failed")
        self.on_discovery_failed(dest)

    def _discovery_succeeded(self, dest: int) -> None:
        disc = self._discoveries.pop(dest, None)
        if disc is not None and disc.timer is not None:
            disc.timer.cancel()
        self.on_route_established(dest)

    # ------------------------------------------------------------------
    # RREQ flood processing
    # ------------------------------------------------------------------
    def on_rreq(self, rreq: RouteRequest, from_id: int) -> None:
        if rreq.origin == self.node.id:
            return
        now = self.sim.now
        if self.uses_csi:
            # One channel sample serves both the CSI distance and the
            # bottleneck-bandwidth accumulator (memoised class lookups).
            link_csi, arrival_bw = self.channel.link_metrics(from_id, self.node.id, now)
        else:
            link_csi = 1.0
            arrival_bw = float("inf")
        hops_here = rreq.hops + 1
        csi_here = rreq.csi_distance + link_csi
        bottleneck = min(rreq.min_bw_bps, arrival_bw)
        metric = self.request_metric(rreq, hops_here, csi_here, bottleneck)
        key = rreq.flood_key
        is_new = self.flood_cache.check_and_add(key)
        if is_new:
            self._reverse[key[1], key[3]] = (from_id, metric, now)
            self._prune_reverse(now)
        elif self.config.refine_pointers and self.refinement_safe:
            stored = self._reverse.get((key[1], key[3]))
            if stored is not None and metric < stored[1]:
                self._reverse[key[1], key[3]] = (from_id, metric, now)
        if self.node.id == rreq.target:
            self._collect_candidate(rreq, from_id, hops_here, csi_here, metric)
            return
        window = self.config.rreq_aggregation_s
        if window <= 0:
            # Paper-faithful: relay the first copy immediately, discard
            # duplicates.
            if not is_new:
                return
            self._relay_rreq(rreq, from_id, hops_here, csi_here, bottleneck)
            return
        self._aggregate_rreq(
            key, is_new, rreq, from_id, hops_here, csi_here, bottleneck, metric, window
        )

    def _aggregate_rreq(
        self,
        key: tuple,
        is_new: bool,
        rreq: RouteRequest,
        from_id: int,
        hops_here: int,
        csi_here: float,
        bottleneck: float,
        metric: tuple,
        window: float,
    ) -> None:
        """Hold, coalesce or suppress this copy's relay (aggregation on).

        The first copy schedules the relay after a uniform random jitter in
        ``(0, window)``; duplicates arriving before the flush are folded
        into the pending relay (for additive metrics the best accumulators
        win, mirroring the reverse-pointer refinement rule) and counted as
        evidence that neighbours already re-broadcast nearby.
        """
        if is_new:
            pending = _PendingRelay(rreq, from_id, hops_here, csi_here, bottleneck, metric)
            self._pending_relays[key] = pending
            self.sim.schedule(self.rng.uniform(0.0, window), self._flush_relay, key)
            return
        pending = self._pending_relays.get(key)
        if pending is None:
            return  # already flushed (or suppressed): a plain duplicate
        pending.copies += 1
        if self.refinement_safe and metric < pending.metric:
            pending.rreq = rreq
            pending.from_id = from_id
            pending.hops = hops_here
            pending.csi = csi_here
            pending.bottleneck = bottleneck
            pending.metric = metric

    def _flush_relay(self, key: tuple) -> None:
        """The jitter window closed: transmit the coalesced relay, or drop
        it if enough duplicate copies proved the area already covered."""
        pending = self._pending_relays.pop(key, None)
        if pending is None:
            return
        if pending.copies >= self.config.rreq_suppress_copies:
            self.metrics.record_event("rreq_suppressed")
            return
        if pending.copies:
            self.metrics.record_event("rreq_coalesced")
        self._relay_rreq(
            pending.rreq, pending.from_id, pending.hops, pending.csi, pending.bottleneck
        )

    def _relay_rreq(
        self,
        rreq: RouteRequest,
        from_id: int,
        hops_here: int,
        csi_here: float,
        bottleneck: float,
    ) -> None:
        if rreq.ttl is not None and rreq.ttl <= 1:
            return  # scope exhausted
        clone = rreq.relay_copy(self.sim.now)
        clone.hops = hops_here
        clone.csi_distance = csi_here
        clone.min_bw_bps = bottleneck
        if rreq.ttl is not None:
            clone.ttl = rreq.ttl - 1
        self.augment_relayed_rreq(clone, from_id)
        self.broadcast_control(clone)

    def augment_relayed_rreq(self, clone: RouteRequest, from_id: int) -> None:
        """Hook: ABR adds associativity/load accumulators here."""

    # ------------------------------------------------------------------
    # Destination side: collect candidates, reply to the best
    # ------------------------------------------------------------------
    def _collect_candidate(
        self, rreq: RouteRequest, from_id: int, hops: int, csi: float, metric: tuple
    ) -> None:
        wait = self.reply_wait_s if self.reply_wait_s is not None else self.config.reply_wait_s
        ckey = (rreq.query_kind, rreq.origin, rreq.bcast_id)
        if ckey in self._replied:
            return  # this flood was already answered; late copies are ignored
        collector = self._collectors.get(ckey)
        if collector is None:
            collector = _ReplyCollector()
            self._collectors[ckey] = collector
            if wait > 0:
                collector.timer = self.sim.schedule(
                    wait, self._reply_window_closed, ckey, rreq
                )
        collector.candidates.append((metric, from_id, hops, csi))
        if wait <= 0:
            self._reply_window_closed(ckey, rreq)

    def _reply_window_closed(self, ckey: tuple, rreq: RouteRequest) -> None:
        collector = self._collectors.pop(ckey, None)
        if collector is None or not collector.candidates:
            return
        self._replied.check_and_add(ckey)
        metric, from_id, hops, csi = min(collector.candidates, key=lambda c: c[0])
        reply = RouteReply(
            self.sim.now,
            origin=rreq.origin,
            target=self.node.id,
            bcast_id=rreq.bcast_id,
            unicast_to=from_id,
            query_kind=rreq.query_kind,
            required_bw_bps=rreq.required_bw_bps,
        )
        self.on_reply_sent(rreq, hops, csi)
        self.broadcast_control(reply)

    def on_reply_sent(self, rreq: RouteRequest, hops: int, csi: float) -> None:
        """Hook: RICA starts its CSI-checking machinery here."""

    # ------------------------------------------------------------------
    # RREP relay back toward the origin
    # ------------------------------------------------------------------
    def on_rrep(self, rrep: RouteReply, from_id: int) -> None:
        now = self.sim.now
        if rrep.hops >= self.MAX_REPLY_HOPS:
            self.metrics.record_event("rrep_hop_guard")
            return
        link_csi = (
            self.channel.csi_hop_distance(from_id, self.node.id, now) if self.uses_csi else 1.0
        )
        hops_here = rrep.hops + 1
        csi_here = rrep.csi_distance + link_csi
        self.table.set_route(
            rrep.target, next_hop=from_id, now=now, hops=hops_here, csi_distance=csi_here
        )
        self.note_route_repaired(rrep.target)
        if self.node.id == rrep.origin:
            self.metrics.record_event("route_established")
            self.trace(
                "route_established",
                dest=rrep.target,
                next_hop=from_id,
                hops=hops_here,
                csi=round(csi_here, 2),
            )
            self.on_reply_reached_origin(rrep)
            self._discovery_succeeded(rrep.target)
            return
        pointer = self._reverse.get((rrep.origin, rrep.bcast_id))
        if pointer is None:
            self.metrics.record_event("rrep_lost_no_reverse")
            return
        clone = rrep.relay_copy(now)
        clone.hops = hops_here
        clone.csi_distance = csi_here
        clone.unicast_to = pointer[0]
        self.broadcast_control(clone)

    def on_reply_reached_origin(self, rrep: RouteReply) -> None:
        """Hook: the requester received the reply (BGCA finishes LQs here)."""

    # ------------------------------------------------------------------
    def _prune_reverse(self, now: float) -> None:
        if len(self._reverse) <= 2048:
            return
        lifetime = self.config.reverse_lifetime_s
        self._reverse = {
            k: v for k, v in self._reverse.items() if now - v[2] <= lifetime
        }
