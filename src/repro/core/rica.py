"""RICA — receiver-initiated channel-adaptive on-demand routing.

Implements Section II of the paper:

* **Route discovery** (II-B): RREQ flood accumulating CSI-based hop
  distance; the destination collects the copies arriving over different
  routes and unicasts a RREP along the minimum-distance one.

* **Receiver-initiated CSI checking** (II-C): once a flow is active, the
  destination broadcasts a CSI checking packet every ``check_interval_s``
  (paper: "for example every second"), TTL-limited to the plain-hop length
  of the current route.  Relaying terminals accumulate CSI distance,
  remember the downstream terminal the packet came from (the "possible
  downstream terminal" with its PN code), and rebroadcast once.  The
  source collects copies for 40 ms, picks the minimum CSI distance, and
  sends a RUPD down the chain of recorded downstream pointers; route
  entries switch as the RUPD passes.  The superseded route expires on its
  own after 1 s of disuse.

* **Route maintenance** (II-D): REERs from terminals that are not the
  current downstream are ignored as stale (handled in the shared base);
  when a REER does reach the source, the source switches to a fresh CSI
  candidate if it has one and only falls back to a full RREQ flood when it
  does not.  The three RREP/CSI-arrival interleavings the paper enumerates
  all reduce to "newest selection wins", which is how the handlers below
  behave naturally.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.metrics.collector import DropReason
from repro.net.packet import DataPacket
from repro.routing.base import OnDemandProtocol, ProtocolConfig
from repro.routing.packets import CsiCheck, RouteRequest, RouteUpdate
from repro.sim.timers import PeriodicTimer

__all__ = ["RicaProtocol", "RicaConfig"]


@dataclass
class RicaConfig(ProtocolConfig):
    """RICA tunables (paper values where stated)."""

    #: CSI checking broadcast period at the destination (paper: ~1 s).
    check_interval_s: float = 1.0
    #: TTL slack added to the plain-hop route length for checking floods.
    ttl_slack: int = 1
    #: Destination stops checking after this long without flow data (s).
    dest_inactivity_s: float = 3.0
    #: How long a CSI candidate at the source stays "fresh" for the REER
    #: fallback decision (s); a little over one check period.
    candidate_fresh_s: float = 1.5
    #: Lifetime of possible-downstream pointers (the paper's 100 ms PN-code
    #: detection window is the analogous mechanism).
    downstream_lifetime_s: float = 1.5
    #: Idle expiry of route entries (paper: "for example 1 second").
    route_idle_timeout_s: Optional[float] = 1.0


class _CheckState:
    """Destination-side per-flow checking state."""

    __slots__ = ("timer", "last_data_at", "route_hops", "next_bcast")

    def __init__(self, timer: Optional[PeriodicTimer], route_hops: int) -> None:
        self.timer = timer
        self.last_data_at = 0.0
        self.route_hops = route_hops
        self.next_bcast = 0


class _SourceCollector:
    """Source-side collection of one checking broadcast's copies."""

    __slots__ = ("candidates", "timer")

    def __init__(self) -> None:
        self.candidates: List[Tuple[float, int]] = []  # (csi_distance, neighbor)
        self.timer = None


class RicaProtocol(OnDemandProtocol):
    """Receiver-initiated channel-adaptive routing (the paper's protocol)."""

    name = "rica"
    uses_csi = True

    def __init__(self, node, network, metrics, config=None) -> None:
        super().__init__(node, network, metrics, config or RicaConfig())
        if not isinstance(self.config, RicaConfig):
            merged = RicaConfig()
            merged.__dict__.update(self.config.__dict__)
            self.config = merged
        #: Destination side: flow source -> checking state.
        self._checking: Dict[int, _CheckState] = {}
        #: Relay side: (flow_dst, bcast_id) -> (downstream, csi_distance, at).
        self._downstream: Dict[Tuple[int, int], Tuple[int, float, float]] = {}
        #: Relay side: flow_dst -> bcast_id of the freshest checking flood
        #: seen (for salvage lookups on link failure).
        self._latest_bcast: Dict[int, int] = {}
        #: Source side: flow_dst -> open collector for the current broadcast.
        self._collectors_src: Dict[Tuple[int, int], _SourceCollector] = {}
        #: Source side: flow_dst -> (best_neighbor, bcast_id, csi, chosen_at).
        self._fresh_candidate: Dict[int, Tuple[int, int, float, float]] = {}
        #: Flows whose next data packet should carry the update flag.
        self._pending_update_flag: Dict[int, bool] = {}

    # ------------------------------------------------------------------
    # Discovery policy: minimum CSI distance, destination waits 40 ms
    # ------------------------------------------------------------------
    def request_metric(
        self, rreq: RouteRequest, hops: int, csi: float, bottleneck_bw: float
    ) -> tuple:
        return (csi, hops)

    def on_reply_sent(self, rreq: RouteRequest, hops: int, csi: float) -> None:
        """Destination answered a discovery: start receiver-initiated checks."""
        self._ensure_checking(flow_src=rreq.origin, route_hops=hops)

    # ------------------------------------------------------------------
    # Destination side: periodic CSI checking broadcasts
    # ------------------------------------------------------------------
    def _ensure_checking(self, flow_src: int, route_hops: int) -> None:
        state = self._checking.get(flow_src)
        if state is not None:
            state.route_hops = max(int(route_hops), 1)
            return
        state = _CheckState(None, max(int(route_hops), 1))
        state.last_data_at = self.sim.now
        state.timer = PeriodicTimer(
            self.sim,
            self.config.check_interval_s,
            self._broadcast_check,
            flow_src,
        ).start()
        self._checking[flow_src] = state

    def _broadcast_check(self, flow_src: int) -> None:
        state = self._checking.get(flow_src)
        if state is None:
            return
        now = self.sim.now
        if now - state.last_data_at > self.config.dest_inactivity_s:
            state.timer.cancel()
            del self._checking[flow_src]
            self.metrics.record_event("rica_check_stopped")
            return
        state.next_bcast += 1
        ttl = state.route_hops + self.config.ttl_slack
        check = CsiCheck(
            now,
            flow_src=flow_src,
            flow_dst=self.node.id,
            bcast_id=state.next_bcast,
            ttl=ttl,
        )
        self.flood_cache.check_and_add(check.flood_key)
        self.metrics.record_event("rica_check_broadcast")
        self.broadcast_control(check)

    def on_data_at_destination(self, packet: DataPacket, from_id: int) -> None:
        """Track flow liveness and the current route's plain-hop length."""
        state = self._checking.get(packet.src)
        if state is None:
            self._ensure_checking(packet.src, route_hops=max(packet.hops_traversed, 1))
            state = self._checking[packet.src]
        state.last_data_at = self.sim.now
        if packet.hops_traversed > 0:
            state.route_hops = packet.hops_traversed

    # ------------------------------------------------------------------
    # Relay side: rebroadcast once, remember the best downstream pointer
    # ------------------------------------------------------------------
    @classmethod
    def group_receiver(cls, packet_cls: type):
        """Checking packets are taken a broadcast at a time."""
        return cls.receive_checks if issubclass(packet_cls, CsiCheck) else None

    @staticmethod
    def receive_checks(check: CsiCheck, from_id: int, protocols: List["RicaProtocol"]) -> None:
        """One checking broadcast heard by ``protocols`` (delivery order).

        Every receiver but the broadcasting destination samples the CSI
        of the link the copy arrived on; those links are sampled in one
        channel pass (one fetch of the sender's position), then each
        receiver does its own bookkeeping.  Links are independent and all
        sampled at the same instant, so this equals the per-receiver
        sequence sample by sample.
        """
        if not protocols:
            return
        flow_dst = check.flow_dst
        first = protocols[0]
        links = iter(
            first.channel.link_hop_distances(
                from_id,
                [p.node.id for p in protocols if p.node.id != flow_dst],
                first.sim.now,
            )
        )
        for p in protocols:
            p.on_csi_check(check, from_id, None if p.node.id == flow_dst else next(links))

    def on_csi_check(
        self, check: CsiCheck, from_id: int, link_csi: Optional[float] = None
    ) -> None:
        """A checking packet arrived over the link from ``from_id``.

        ``link_csi`` is that link's CSI hop distance, sampled by
        :meth:`receive_checks`; a packet delivered on its own (None)
        takes the same channel pass with this one receiver.
        """
        if check.flow_dst == self.node.id:
            return  # our own broadcast echoed back
        now = self.sim.now
        if link_csi is None:
            link_csi = self.channel.link_hop_distances(from_id, [self.node.id], now)[0]
        csi_here = check.csi_distance + link_csi
        hops_here = check.hops + 1
        dkey = (check.flow_dst, check.bcast_id)
        stored = self._downstream.get(dkey)
        if stored is None or csi_here < stored[1]:
            self._downstream[dkey] = (from_id, csi_here, now)
            self._prune_downstream(now)
        if check.bcast_id >= self._latest_bcast.get(check.flow_dst, 0):
            self._latest_bcast[check.flow_dst] = check.bcast_id
        is_new = self.flood_cache.check_and_add(check.flood_key)
        if self.node.id == check.flow_src:
            self._collect_check(check, from_id, csi_here)
            return
        if not is_new or check.ttl <= 1:
            return
        clone = check.relay_copy(now)
        clone.csi_distance = csi_here
        clone.hops = hops_here
        clone.ttl = check.ttl - 1
        self.broadcast_control(clone)

    def _prune_downstream(self, now: float) -> None:
        if len(self._downstream) <= 2048:
            return
        lifetime = self.config.downstream_lifetime_s
        self._downstream = {
            k: v for k, v in self._downstream.items() if now - v[2] <= lifetime
        }

    # ------------------------------------------------------------------
    # Source side: collect copies for 40 ms, switch to the shortest
    # ------------------------------------------------------------------
    def _collect_check(self, check: CsiCheck, from_id: int, csi_here: float) -> None:
        ckey = (check.flow_dst, check.bcast_id)
        collector = self._collectors_src.get(ckey)
        if collector is None:
            collector = _SourceCollector()
            self._collectors_src[ckey] = collector
            collector.timer = self.sim.schedule(
                self.config.source_wait_s, self._selection_window_closed, ckey
            )
        collector.candidates.append((csi_here, from_id))

    def _selection_window_closed(self, ckey: Tuple[int, int]) -> None:
        collector = self._collectors_src.pop(ckey, None)
        if collector is None or not collector.candidates:
            return
        flow_dst, bcast_id = ckey
        now = self.sim.now
        csi, neighbor = min(collector.candidates)
        self._fresh_candidate[flow_dst] = (neighbor, bcast_id, csi, now)
        self._switch_route(flow_dst, neighbor, bcast_id, csi)

    def _switch_route(self, flow_dst: int, neighbor: int, bcast_id: int, csi: float) -> None:
        """Adopt the newly selected route and propagate the RUPD."""
        now = self.sim.now
        old = self.table.entry(flow_dst)
        changed = old is None or not old.valid or old.next_hop != neighbor
        self.table.set_route(flow_dst, next_hop=neighbor, now=now, csi_distance=csi)
        self.note_route_repaired(flow_dst)
        rupd = RouteUpdate(
            now,
            flow_src=self.node.id,
            flow_dst=flow_dst,
            bcast_id=bcast_id,
            unicast_to=neighbor,
        )
        self.broadcast_control(rupd)
        if changed:
            self.metrics.record_event("rica_route_switch")
            self._pending_update_flag[flow_dst] = True
            self.trace(
                "route_switch",
                dest=flow_dst,
                next_hop=neighbor,
                csi=round(csi, 2),
                bcast_id=bcast_id,
            )
        # A fresh route may unblock buffered packets (e.g. after a REER).
        for pkt in self.pending.release(flow_dst, now):
            self.dispatch_data(pkt)

    def send_data(self, packet: DataPacket, next_hop: int) -> None:
        if packet.src == self.node.id and self._pending_update_flag.pop(packet.dst, False):
            packet.update_flag = True  # paper: first packet after a switch
        super().send_data(packet, next_hop)

    # ------------------------------------------------------------------
    # RUPD propagation: each relay follows its recorded downstream pointer
    # ------------------------------------------------------------------
    def on_rupd(self, rupd: RouteUpdate, from_id: int) -> None:
        if self.node.id == rupd.flow_dst:
            return  # the route is complete
        now = self.sim.now
        pointer = self._downstream.get((rupd.flow_dst, rupd.bcast_id))
        if pointer is None or now - pointer[2] > self.config.downstream_lifetime_s:
            self.metrics.record_event("rica_rupd_dangling")
            return
        downstream = pointer[0]
        self.table.set_route(rupd.flow_dst, next_hop=downstream, now=now)
        clone = RouteUpdate(
            now,
            flow_src=rupd.flow_src,
            flow_dst=rupd.flow_dst,
            bcast_id=rupd.bcast_id,
            unicast_to=downstream,
        )
        self.broadcast_control(clone)

    def on_no_route(self, packet: DataPacket) -> None:
        """Transit packet with no valid entry: try the checking corridor.

        Nodes inside the CSI-checking corridor hold fresh possible-
        downstream pointers even when their route entry has idled out;
        re-joining the route through the pointer beats dropping.
        """
        if packet.src != self.node.id:
            salvage = self._salvage_pointer(packet.dst, exclude=self.node.id)
            if salvage is not None:
                self.metrics.record_event("rica_salvage_no_route")
                self.table.set_route(packet.dst, next_hop=salvage, now=self.sim.now)
                self.note_route_repaired(packet.dst)
                self.send_data(packet, salvage)
                return
        super().on_no_route(packet)

    # ------------------------------------------------------------------
    # Maintenance (Section II-D)
    # ------------------------------------------------------------------
    def on_route_broken(self, dest: int) -> None:
        """REER reached the source: prefer a fresh CSI candidate."""
        now = self.sim.now
        fresh = self._fresh_candidate.get(dest)
        if fresh is not None and now - fresh[3] <= self.config.candidate_fresh_s:
            neighbor, bcast_id, csi, _ = fresh
            self.metrics.record_event("rica_reer_csi_recovery")
            self._switch_route(dest, neighbor, bcast_id, csi)
            return
        self.metrics.record_event("rica_reer_rediscovery")
        self.start_discovery(dest)

    def _salvage_pointer(self, dest: int, exclude: int) -> Optional[int]:
        """A fresh possible-downstream neighbour for ``dest``, if any.

        The checking broadcasts leave every corridor terminal with a
        recorded downstream pointer (the terminal it would use "the
        corresponding PN code" with); after a break, re-routing through it
        is the receiver-initiated repair the protocol is built around.
        """
        bcast_id = self._latest_bcast.get(dest)
        if bcast_id is None:
            return None
        pointer = self._downstream.get((dest, bcast_id))
        if pointer is None:
            return None
        neighbor, _csi, at = pointer
        if neighbor == exclude or neighbor == self.node.id:
            return None
        if self.sim.now - at > self.config.downstream_lifetime_s:
            return None
        return neighbor

    def handle_link_failure(
        self, next_hop: int, packet: DataPacket, queued: List[DataPacket]
    ) -> None:
        now = self.sim.now
        self.invalidate_routes_via(next_hop)
        flows = set()
        for pkt in [packet] + queued:
            if pkt.src == self.node.id:
                self.pending.hold(pkt, now)
                self.on_route_broken(pkt.dst)
                continue
            salvage = self._salvage_pointer(pkt.dst, exclude=next_hop)
            if salvage is not None:
                self.metrics.record_event("rica_salvage")
                self.table.set_route(pkt.dst, next_hop=salvage, now=now)
                self.note_route_repaired(pkt.dst)
                self.send_data(pkt, salvage)
            else:
                self.drop_data(pkt, DropReason.LINK_FAILURE)
                flows.add((pkt.src, pkt.dst))
        for src, dst in flows:
            self.send_reer(src, dst)
