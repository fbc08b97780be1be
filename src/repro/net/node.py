"""A mobile terminal: mobility + MAC + data link + routing in one object."""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.errors import ConfigurationError
from repro.geometry.vector import Vec2
from repro.mac.csma import CsmaMac
from repro.mobility.base import MobilityModel
from repro.net.datalink import DataLink
from repro.net.packet import DataPacket, Packet

if TYPE_CHECKING:  # pragma: no cover
    from repro.routing.base import RoutingProtocol

__all__ = ["Node"]


class Node:
    """One mobile terminal.

    The node is mostly glue: it owns its mobility model, its common-channel
    MAC and its data-link transmitter, and dispatches received packets to
    the attached routing protocol.  The network container
    (:class:`repro.net.network.Network`) wires the pieces together.
    """

    def __init__(self, node_id: int, mobility: MobilityModel) -> None:
        self.id = node_id
        self.mobility = mobility
        self.mac: Optional[CsmaMac] = None  # set by Network
        self.datalink: Optional[DataLink] = None  # set by Network
        self.routing: Optional["RoutingProtocol"] = None  # set by attach_routing

    # ------------------------------------------------------------------
    def position(self, t: float) -> Vec2:
        """Exact position at simulation time ``t``."""
        return self.mobility.position(t)

    # ------------------------------------------------------------------
    def attach_routing(self, protocol: "RoutingProtocol") -> None:
        """Install the routing protocol instance driving this node."""
        self.routing = protocol

    # ------------------------------------------------------------------
    # Outbound
    # ------------------------------------------------------------------
    def send_control(self, packet: Packet) -> bool:
        """Broadcast a routing packet on the common channel."""
        if self.mac is None:
            raise ConfigurationError(f"node {self.id} has no MAC attached")
        return self.mac.send(packet)

    def send_data(self, packet: DataPacket, next_hop: int) -> bool:
        """Queue a data packet on the CDMA data channel toward ``next_hop``."""
        if self.datalink is None:
            raise ConfigurationError(f"node {self.id} has no data link attached")
        return self.datalink.send(packet, next_hop)

    # ------------------------------------------------------------------
    # Inbound (called by Network dispatch)
    # ------------------------------------------------------------------
    def receive_control(self, packet: Packet, from_id: int) -> None:
        """A routing packet arrived on the common channel."""
        if self.routing is not None:
            self.routing.handle_control(packet, from_id)

    def receive_data(self, packet: DataPacket, from_id: int) -> None:
        """A data packet arrived on a data channel."""
        if self.routing is not None:
            self.routing.handle_data(packet, from_id)

    def on_link_failure(self, next_hop: int, packet: DataPacket, queued: List[DataPacket]) -> None:
        """The data link exhausted retries toward ``next_hop``."""
        if self.routing is not None:
            self.routing.handle_link_failure(next_hop, packet, queued)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        proto = type(self.routing).__name__ if self.routing else "none"
        return f"Node(id={self.id}, routing={proto})"
