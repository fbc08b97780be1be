"""Control packet taxonomy.

Every routing packet the five protocols exchange, with explicit on-air
sizes (the paper never gives header layouts, so sizes are conventional
compact encodings; they only matter through transmission time and overhead
accounting, and are configurable at the class level).

Relay semantics: a flooded packet is *re-created* (cloned) by every
relaying terminal with updated accumulators (hop counts, CSI distance,
TTL).  The :meth:`ControlPacket.relay_copy` helper performs the clone so a
packet object delivered to several receivers is never mutated in place.
"""

from __future__ import annotations

import copy
from typing import List, Optional, Tuple

from repro.net.packet import Packet

__all__ = [
    "ControlPacket",
    "RouteRequest",
    "RouteReply",
    "RouteError",
    "CsiCheck",
    "RouteUpdate",
    "Beacon",
    "LinkStateAd",
    "RouteNotification",
]


class ControlPacket(Packet):
    """Base class for all routing packets.

    ``unicast_to`` — routing packets physically travel on the broadcast
    common channel; a non-None value marks the packet as logically unicast
    so non-addressees normally ignore it (though protocols may overhear,
    e.g. RICA's possible-downstream detection).
    """

    __slots__ = ("unicast_to",)

    kind = "control"
    #: Name of the :class:`~repro.routing.base.RoutingProtocol` method that
    #: receives this class, ``on_<kind>``; set once per class, so dispatch
    #: formats no string per reception.
    handler = "on_control"
    SIZE_BYTES = 16

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        cls.handler = f"on_{cls.kind}"

    def __init__(self, created_at: float, unicast_to: Optional[int] = None) -> None:
        super().__init__(self.SIZE_BYTES, created_at)
        self.unicast_to = unicast_to

    def relay_copy(self, created_at: float) -> "ControlPacket":
        """Clone this packet for relaying (fresh uid, same fields)."""
        clone = copy.copy(self)
        # Re-run the base init to stamp a fresh uid and timestamp while
        # preserving all subclass fields (including a size adjusted by the
        # subclass, e.g. LSA entry lists).
        Packet.__init__(clone, self.size_bytes, created_at)
        return clone


class RouteRequest(ControlPacket):
    """Route request flood (AODV RREQ, RICA/BGCA RREQ, ABR BQ, local query).

    Accumulators are updated by every relaying terminal:

    * ``hops`` — plain hop count from the origin;
    * ``csi_distance`` — CSI-based hop distance (RICA/BGCA);
    * ``min_bw_bps`` — bottleneck link throughput seen so far (BGCA);
    * ``stable_links`` / ``load_sum`` — ABR's associativity and load
      accumulators.

    ``ttl`` limits the flood scope (local queries); ``None`` floods the
    whole network.  ``query_kind`` distinguishes a full discovery from a
    localized query in overhead accounting.
    """

    __slots__ = (
        "origin",
        "target",
        "bcast_id",
        "hops",
        "csi_distance",
        "min_bw_bps",
        "required_bw_bps",
        "stable_links",
        "load_sum",
        "ttl",
        "query_kind",
    )

    kind = "rreq"
    SIZE_BYTES = 24

    def __init__(
        self,
        created_at: float,
        origin: int,
        target: int,
        bcast_id: int,
        ttl: Optional[int] = None,
        required_bw_bps: float = 0.0,
        query_kind: str = "full",
    ) -> None:
        super().__init__(created_at)
        self.origin = origin
        self.target = target
        self.bcast_id = bcast_id
        self.hops = 0
        self.csi_distance = 0.0
        self.min_bw_bps = float("inf")
        self.required_bw_bps = required_bw_bps
        self.stable_links = 0
        self.load_sum = 0
        self.ttl = ttl
        self.query_kind = query_kind

    @property
    def flood_key(self) -> Tuple[str, int, int, int]:
        """Duplicate-suppression key (unique per flood)."""
        return ("rreq", self.origin, self.target, self.bcast_id)


class RouteReply(ControlPacket):
    """Route reply unicast hop-by-hop from target back to the requester.

    ``required_bw_bps`` echoes the request's bandwidth requirement so the
    terminals along the route learn the flow's guard level (BGCA).
    """

    __slots__ = (
        "origin",
        "target",
        "bcast_id",
        "hops",
        "csi_distance",
        "query_kind",
        "required_bw_bps",
    )

    kind = "rrep"
    SIZE_BYTES = 20

    def __init__(
        self,
        created_at: float,
        origin: int,
        target: int,
        bcast_id: int,
        unicast_to: Optional[int] = None,
        query_kind: str = "full",
        required_bw_bps: float = 0.0,
    ) -> None:
        super().__init__(created_at, unicast_to)
        self.origin = origin  # the terminal that issued the request
        self.target = target  # the destination that generated this reply
        self.bcast_id = bcast_id
        self.hops = 0  # hops from the target to the current holder
        self.csi_distance = 0.0
        self.query_kind = query_kind
        self.required_bw_bps = required_bw_bps


class RouteError(ControlPacket):
    """REER: a route for flow (src, dst) broke at ``reporter``."""

    __slots__ = ("flow_src", "flow_dst", "reporter")

    kind = "reer"
    SIZE_BYTES = 16

    def __init__(
        self,
        created_at: float,
        flow_src: int,
        flow_dst: int,
        reporter: int,
        unicast_to: Optional[int] = None,
    ) -> None:
        super().__init__(created_at, unicast_to)
        self.flow_src = flow_src
        self.flow_dst = flow_dst
        self.reporter = reporter


class CsiCheck(ControlPacket):
    """RICA's receiver-initiated CSI checking packet (paper Section II-C).

    Broadcast by the *destination* toward the source with a TTL equal to
    the plain-hop length of the current route; accumulates CSI hop distance
    on every traversed link.
    """

    __slots__ = ("flow_src", "flow_dst", "bcast_id", "csi_distance", "hops", "ttl")

    kind = "csi_check"
    SIZE_BYTES = 20

    def __init__(
        self,
        created_at: float,
        flow_src: int,
        flow_dst: int,
        bcast_id: int,
        ttl: int,
    ) -> None:
        super().__init__(created_at)
        self.flow_src = flow_src  # the data source (the checking packet's audience)
        self.flow_dst = flow_dst  # the destination broadcasting the check
        self.bcast_id = bcast_id
        self.csi_distance = 0.0
        self.hops = 0
        self.ttl = ttl

    @property
    def flood_key(self) -> Tuple[str, int, int, int]:
        """Duplicate-suppression key."""
        return ("csi", self.flow_dst, self.flow_src, self.bcast_id)


class RouteUpdate(ControlPacket):
    """RICA's RUPD: switch the flow's route to the newly selected chain."""

    __slots__ = ("flow_src", "flow_dst", "bcast_id")

    kind = "rupd"
    SIZE_BYTES = 16

    def __init__(
        self,
        created_at: float,
        flow_src: int,
        flow_dst: int,
        bcast_id: int,
        unicast_to: Optional[int] = None,
    ) -> None:
        super().__init__(created_at, unicast_to)
        self.flow_src = flow_src
        self.flow_dst = flow_dst
        self.bcast_id = bcast_id


class Beacon(ControlPacket):
    """ABR periodic beacon; receiving one increments associativity ticks."""

    __slots__ = ("origin",)

    kind = "beacon"
    SIZE_BYTES = 12

    def __init__(self, created_at: float, origin: int) -> None:
        super().__init__(created_at)
        self.origin = origin


class LinkStateAd(ControlPacket):
    """Link-state advertisement: ``origin``'s current view of its links.

    ``entries`` is a list of ``(neighbor_id, csi_cost)`` pairs; a cost of
    ``float('inf')`` withdraws the link.  Size grows with the entry count.
    """

    __slots__ = ("origin", "seq", "entries")

    kind = "lsa"
    SIZE_BYTES = 16  # header; entries add 6 bytes each

    def __init__(
        self,
        created_at: float,
        origin: int,
        seq: int,
        entries: List[Tuple[int, float]],
    ) -> None:
        super().__init__(created_at)
        self.origin = origin
        self.seq = seq
        self.entries = list(entries)
        self.size_bytes = self.SIZE_BYTES + 6 * len(self.entries)

    @property
    def flood_key(self) -> Tuple[str, int, int]:
        """Duplicate-suppression key."""
        return ("lsa", self.origin, self.seq)


class RouteNotification(ControlPacket):
    """ABR's RN: tells the source its route is gone after a failed LQ."""

    __slots__ = ("flow_src", "flow_dst", "reporter")

    kind = "rn"
    SIZE_BYTES = 16

    def __init__(
        self,
        created_at: float,
        flow_src: int,
        flow_dst: int,
        reporter: int,
        unicast_to: Optional[int] = None,
    ) -> None:
        super().__init__(created_at, unicast_to)
        self.flow_src = flow_src
        self.flow_dst = flow_dst
        self.reporter = reporter
