"""The network container: terminals, channel, medium and dispatch.

:class:`Network` assembles the simulation environment of the paper's
Section III-A: it owns the :class:`~repro.channel.model.ChannelModel`, the
:class:`~repro.mac.medium.CommonChannelMedium` and all
:class:`~repro.net.node.Node` objects, wires each node's MAC and data link
to the shared substrate, and answers topology queries (positions,
neighbour sets) for every layer.

Topology queries delegate to a :class:`~repro.topology.TopologyIndex` — a
uniform spatial hash grid over position snapshots — so ``neighbors()``
evaluates a node's drift-bounded candidate list (each model's
``speed_bound``, passed in by :meth:`add_node`) instead of the seed's
O(n) mobility re-evaluation per query.  The ``Network`` methods remain
the stable facade; new code that needs richer queries (arbitrary radii,
bulk maps) can reach ``network.topology`` directly.

Control-plane dispatch is batched: the MAC resolves a whole broadcast
into one :class:`~repro.mac.csma.ReceptionBatch` and hands it to
:meth:`Network.deliver_control_batch`, which walks the surviving
receivers through a precomputed ``node_id -> handler`` table.  The table
snapshots each node's ``receive_control`` bound method the first time a
batch is dispatched (and is invalidated when nodes are added), so tests
and tools that stub a node's handler before the simulation starts are
still honoured, while steady-state dispatch costs one dict lookup and one
call per reception instead of a facade-method / node-lookup / attribute
chain.  A routing protocol may also take a packet class a whole broadcast
at a time (its ``group_receiver``): one call with every surviving
receiver's protocol instance, in delivery order, so work shared by the
receivers (one channel pass over the sender's links) is done once.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.channel.model import ChannelConfig, ChannelModel
from repro.errors import ConfigurationError, TopologyError
from repro.geometry.field import Field
from repro.geometry.vector import Vec2
from repro.mac.bank import BackoffBank, ContentionScheduler
from repro.mac.csma import MAC_BACKENDS, CsmaMac, MacConfig, ReceptionBatch
from repro.mac.medium import CommonChannelMedium
from repro.metrics.collector import MetricsCollector
from repro.mobility.base import MobilityModel
from repro.net.datalink import DataLink, DataLinkConfig
from repro.net.node import Node
from repro.net.packet import DataPacket
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams, derive_seed
from repro.sim.timers import TimerWheel
from repro.topology import TopologyIndex

__all__ = ["Network"]

#: A resolved group receiver: the function and ``node_id -> protocol``.
_Group = Tuple[Callable[..., None], Dict[int, object]]


class Network:
    """All terminals plus the shared physical substrate."""

    def __init__(
        self,
        sim: Simulator,
        field: Field,
        streams: RandomStreams,
        metrics: MetricsCollector,
        channel_config: Optional[ChannelConfig] = None,
        mac_config: Optional[MacConfig] = None,
        datalink_config: Optional[DataLinkConfig] = None,
        position_epoch_s: float = 0.0,
        mac_backend: str = "scalar",
    ) -> None:
        self.sim = sim
        self.field = field
        self.streams = streams
        self.metrics = metrics
        channel_config = channel_config or ChannelConfig()
        self.topology = TopologyIndex(
            field,
            radius=channel_config.path_loss.tx_range,
            quantum=position_epoch_s,
        )
        # The channel reaches the topology index directly: point lookups
        # skip the position() facade, and neighbour-set CSI queries gather
        # candidate positions as one array batch.
        self.channel = ChannelModel(
            channel_config,
            streams,
            self.topology.position,
            topology=self.topology,
        )
        self._mac_config = mac_config or MacConfig()
        self.medium = CommonChannelMedium(
            self.channel,
            cs_range_m=self._mac_config.cs_range_factor * self.channel.tx_range,
            topology=self.topology,
        )
        if mac_backend not in MAC_BACKENDS:
            raise ConfigurationError(
                f"unknown MAC backend {mac_backend!r}; known: {', '.join(MAC_BACKENDS)}"
            )
        self.mac_backend = mac_backend
        # Batched attempt scheduling: one BackoffBank + ContentionScheduler
        # shared by every node's MAC, and one TimerWheel coalescing the
        # data links' ACK/retry deadlines onto the same batch instants.
        # None in scalar mode — per-node scheduling, the reference path.
        self.mac_scheduler: Optional[ContentionScheduler] = None
        self.ack_wheel: Optional[TimerWheel] = None
        if mac_backend == "batched":
            bank = BackoffBank(derive_seed(streams.seed, "mac/backoff-bank"))
            self.mac_scheduler = ContentionScheduler(
                sim, self.medium, bank, slot_align_s=self._mac_config.slot_align_s
            )
            self.ack_wheel = TimerWheel(sim, quantum_s=self._mac_config.slot_align_s)
        self._datalink_config = datalink_config or DataLinkConfig()
        self._nodes: Dict[int, Node] = {}
        # Fault state: node_id -> set of down-reasons ("churn", "energy",
        # ("blackout", idx), ...).  A node is down while its set is
        # non-empty, so overlapping fault causes compose and a node only
        # comes back when its *last* cause clears.  Empty sets are removed.
        self._down: Dict[int, set] = {}
        # Precomputed control-plane handler table (node_id -> bound
        # receive_control); built lazily on first batch dispatch so
        # handlers stubbed after construction are captured.
        self._control_handlers: Optional[Dict[int, Callable]] = None
        # Packet class -> its group receiver (None: per-receiver dispatch),
        # resolved on first use and dropped with the handler table.
        self._groups: Dict[type, Optional[_Group]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(self, mobility: MobilityModel, node_id: Optional[int] = None) -> Node:
        """Create a terminal with the given mobility model and wire it up."""
        nid = node_id if node_id is not None else len(self._nodes)
        if nid in self._nodes:
            raise TopologyError(f"node id {nid} already exists")
        node = Node(nid, mobility)
        node.mac = CsmaMac(
            node_id=nid,
            sim=self.sim,
            medium=self.medium,
            channel=self.channel,
            metrics=self.metrics,
            config=self._mac_config,
            rng=self.streams.stream(f"mac/{nid}"),
            dispatch=self.deliver_control_batch,
            neighbors=self.neighbors,
            scheduler=self.mac_scheduler,
        )
        node.datalink = DataLink(
            node_id=nid,
            sim=self.sim,
            channel=self.channel,
            metrics=self.metrics,
            config=self._datalink_config,
            deliver=self._deliver_data,
            # Late-bound so routing protocols (attached after construction)
            # and tests that stub the handler are always reached.
            on_link_failure=lambda nh, pkt, rest, n=node: n.on_link_failure(nh, pkt, rest),
            wheel=self.ack_wheel,
            alive=self.is_alive,
        )
        self._nodes[nid] = node
        # The index evaluates the trajectory itself (no Node frame between).
        self.topology.add(nid, mobility.position, speed_bound=mobility.speed_bound)
        self._control_handlers = None  # membership changed: rebuild on next batch
        return node

    # ------------------------------------------------------------------
    # Topology queries
    # ------------------------------------------------------------------
    @property
    def node_ids(self) -> List[int]:
        """All node ids, ascending."""
        return sorted(self._nodes)

    @property
    def node_count(self) -> int:
        """Number of terminals."""
        return len(self._nodes)

    def node(self, node_id: int) -> Node:
        """Look up a node by id."""
        try:
            return self._nodes[node_id]
        except KeyError:
            raise TopologyError(f"unknown node id {node_id}") from None

    def nodes(self) -> List[Node]:
        """All nodes, ascending by id."""
        return [self._nodes[nid] for nid in sorted(self._nodes)]

    def position(self, node_id: int, t: float) -> Vec2:
        """Position of ``node_id`` at time ``t`` (epoch-cached; exact when
        the index quantum is 0, the default)."""
        return self.topology.position(node_id, t)

    def neighbors(self, node_id: int, t: float) -> List[int]:
        """Ids of all nodes within transmission range of ``node_id`` at
        ``t``, ascending (grid-backed)."""
        return self.topology.neighbors(node_id, t)

    def adjacency(self, t: float) -> Dict[int, List[int]]:
        """Full neighbour map at time ``t`` (used by link-state install)."""
        return self.topology.neighbor_map(t)

    #: Alias for :meth:`adjacency` matching the topology-index vocabulary.
    neighbor_map = adjacency

    # ------------------------------------------------------------------
    # Fault injection (node up/down)
    # ------------------------------------------------------------------
    def is_alive(self, node_id: int) -> bool:
        """False while ``node_id`` is down for any reason."""
        return node_id not in self._down

    def fail_node(self, node_id: int, reason: object = "crash") -> bool:
        """Take ``node_id`` down ("radio off").

        The MAC stops transmitting, the data link drops its queues and
        abandons in-flight ARQ, the topology index hides the node from
        snapshots (so it leaves every neighbour set and delivery set), and
        the dispatch table stops routing receptions to it.  Routing state
        *on* the node is untouched — it decays through the protocols' own
        timeouts, never through oracle knowledge.

        Returns True if the node was up and is now down; False if it was
        already down (the extra ``reason`` is still recorded so recovery
        waits for every cause to clear).
        """
        node = self.node(node_id)
        reasons = self._down.get(node_id)
        if reasons is not None:
            reasons.add(reason)
            return False
        self._down[node_id] = {reason}
        node.mac.set_enabled(False)
        node.datalink.shutdown()
        self.topology.set_active(node_id, False)
        self._control_handlers = None
        return True

    def recover_node(self, node_id: int, reason: object = "crash") -> bool:
        """Clear one down-reason; the node restarts when the last clears.

        Returns True if this call actually brought the node back up.
        """
        self.node(node_id)
        reasons = self._down.get(node_id)
        if reasons is None:
            return False
        reasons.discard(reason)
        if reasons:
            return False
        del self._down[node_id]
        self._nodes[node_id].mac.set_enabled(True)
        self.topology.set_active(node_id, True)
        self._control_handlers = None
        return True

    # ------------------------------------------------------------------
    # Dispatch (MAC/data-link delivery callbacks)
    # ------------------------------------------------------------------
    def invalidate_dispatch(self) -> None:
        """Force the control-handler table to rebuild on the next batch.

        Call after replacing a node's ``receive_control`` handler or its
        routing protocol once the simulation is already dispatching (rare;
        tests and tools that stub handlers before the first transmission
        never need it).
        """
        self._control_handlers = None

    def _build_control_handlers(self) -> Dict[int, Callable]:
        handlers = {
            nid: node.receive_control
            for nid, node in self._nodes.items()
            if nid not in self._down
        }
        self._control_handlers = handlers
        self._groups = {}
        return handlers

    def _resolve_group(self, packet_cls: type) -> Optional[_Group]:
        """The group receiver for ``packet_cls``, or None.

        Only offered when every live node runs the same routing class
        through its own ``receive_control``: a stubbed handler must see
        every packet, and a mixed network has no single receiver.
        """
        live = [node for nid, node in self._nodes.items() if nid not in self._down]
        group = None
        classes = {type(node.routing) for node in live}
        if len(classes) == 1 and not any("receive_control" in vars(node) for node in live):
            offer = getattr(classes.pop(), "group_receiver", None)
            receive = offer(packet_cls) if offer is not None else None
            if receive is not None:
                group = (receive, {node.id: node.routing for node in live})
        self._groups[packet_cls] = group
        return group

    def deliver_control_batch(self, batch: ReceptionBatch) -> None:
        """Deliver one resolved broadcast to every surviving receiver.

        Receivers are visited in the order the MAC resolved them (the
        topology index returns neighbours ascending by id), so handler
        side effects — scheduled events, queued transmissions — happen in
        the same deterministic order as per-receiver dispatch did.  A
        packet class with a group receiver goes to it in one call, with
        the same receivers in the same order.
        """
        handlers = self._control_handlers
        if handlers is None:
            handlers = self._build_control_handlers()
        packet = batch.packet
        sender = batch.sender
        lost = batch.lost
        packet_cls = type(packet)
        group = (
            self._groups[packet_cls]
            if packet_cls in self._groups
            else self._resolve_group(packet_cls)
        )
        if group is not None:
            receive, protocol_of = group
            get = protocol_of.get
            receive(
                packet,
                sender,
                [p for r in batch.receivers if r not in lost and (p := get(r)) is not None],
            )
            return
        for receiver in batch.receivers:
            if receiver not in lost:
                # .get: a receiver resolved into the batch can be absent
                # from the table if it crashed (down nodes are excluded
                # when the table rebuilds) — a dead radio decodes nothing.
                handler = handlers.get(receiver)
                if handler is not None:
                    handler(packet, sender)

    def _deliver_data(self, receiver: int, packet: DataPacket, sender: int) -> None:
        self._nodes[receiver].receive_data(packet, sender)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Network(nodes={len(self._nodes)})"
