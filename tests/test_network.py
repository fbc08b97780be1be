"""Unit tests for the Node and Network containers."""

import pytest

from repro.errors import ConfigurationError, TopologyError
from repro.geometry.vector import Vec2
from repro.mobility.static import StaticPosition
from repro.net.node import Node
from repro.net.packet import DataPacket
from repro.routing.packets import Beacon

from tests.helpers import build_static_network


class TestNode:
    def test_position_delegates_to_mobility(self):
        node = Node(3, StaticPosition(Vec2(10, 20)))
        assert node.position(5.0) == Vec2(10, 20)

    def test_first_query_at_minus_one(self):
        # Regression: a one-entry memo seeded with t = -1.0 and no value
        # answered a node's first query at t = -1.0 with None.
        node = Node(0, StaticPosition(Vec2(5, 5)))
        assert node.position(-1.0) == Vec2(5, 5)
        assert node.position(3.0) == Vec2(5, 5)
        assert node.position(-1.0) == Vec2(5, 5)

    def test_send_without_mac_raises(self):
        node = Node(0, StaticPosition(Vec2(0, 0)))
        with pytest.raises(ConfigurationError):
            node.send_control(Beacon(0.0, origin=0))
        with pytest.raises(ConfigurationError):
            node.send_data(DataPacket(0, 1, 1, 0.0), 1)

    def test_receive_without_routing_is_noop(self):
        node = Node(0, StaticPosition(Vec2(0, 0)))
        node.receive_control(Beacon(0.0, origin=1), from_id=1)  # no exception
        node.receive_data(DataPacket(1, 0, 1, 0.0), from_id=1)

    def test_attach_routing(self, sim, streams):
        network, metrics = build_static_network(sim, streams, [(0, 0), (100, 0)])
        from tests.helpers import attach_protocols

        protos = attach_protocols(network, metrics, "aodv")
        assert network.node(0).routing is protos[0]


class TestNetwork:
    def test_node_ids_sequential(self, sim, streams):
        network, _ = build_static_network(sim, streams, [(0, 0), (100, 0), (200, 0)])
        assert network.node_ids == [0, 1, 2]
        assert network.node_count == 3

    def test_duplicate_node_id_rejected(self, sim, streams):
        network, _ = build_static_network(sim, streams, [(0, 0)])
        with pytest.raises(TopologyError):
            network.add_node(StaticPosition(Vec2(1, 1)), node_id=0)

    def test_unknown_node_rejected(self, sim, streams):
        network, _ = build_static_network(sim, streams, [(0, 0)])
        with pytest.raises(TopologyError):
            network.node(99)

    def test_neighbors_respect_range(self, sim, streams):
        network, _ = build_static_network(
            sim, streams, [(0, 0), (100, 0), (240, 0), (600, 0)]
        )
        assert sorted(network.neighbors(0, 0.0)) == [1, 2]
        assert sorted(network.neighbors(1, 0.0)) == [0, 2]
        assert sorted(network.neighbors(3, 0.0)) == []

    def test_neighbors_exclude_self(self, sim, streams):
        network, _ = build_static_network(sim, streams, [(0, 0), (100, 0)])
        assert 0 not in network.neighbors(0, 0.0)

    def test_adjacency_consistent_with_neighbors(self, sim, streams):
        network, _ = build_static_network(
            sim, streams, [(0, 0), (100, 0), (240, 0), (600, 0)]
        )
        adjacency = network.adjacency(0.0)
        for nid in network.node_ids:
            assert adjacency[nid] == network.neighbors(nid, 0.0)

    def test_adjacency_symmetric(self, sim, streams):
        network, _ = build_static_network(
            sim, streams, [(0, 0), (100, 0), (240, 0), (600, 0)]
        )
        adjacency = network.adjacency(0.0)
        for u, nbrs in adjacency.items():
            for v in nbrs:
                assert u in adjacency[v]

    def test_nodes_returns_all(self, sim, streams):
        network, _ = build_static_network(sim, streams, [(0, 0), (100, 0)])
        assert [n.id for n in network.nodes()] == [0, 1]

    def test_position_query(self, sim, streams):
        network, _ = build_static_network(sim, streams, [(5, 7)])
        assert network.position(0, 0.0) == Vec2(5, 7)


class TestBatchDispatch:
    """deliver_control_batch and its precomputed handler table."""

    def test_batch_skips_lost_receivers(self, sim, streams):
        from repro.mac.csma import ReceptionBatch

        network, _ = build_static_network(sim, streams, [(0, 0), (100, 0), (200, 0)])
        received = []
        for node in network.nodes():
            node.receive_control = lambda pkt, frm, nid=node.id: received.append(nid)
        pkt = Beacon(0.0, origin=0)
        network.deliver_control_batch(ReceptionBatch(pkt, 0, [1, 2], {2}, 0.0))
        assert received == [1]

    def test_batch_without_losses_reaches_all(self, sim, streams):
        from repro.mac.csma import ReceptionBatch

        network, _ = build_static_network(sim, streams, [(0, 0), (100, 0), (200, 0)])
        received = []
        for node in network.nodes():
            node.receive_control = lambda pkt, frm, nid=node.id: received.append((nid, frm))
        batch = ReceptionBatch(Beacon(0.0, origin=0), 0, [1, 2], set(), 0.0)
        network.deliver_control_batch(batch)
        assert received == [(1, 0), (2, 0)]
        assert batch.delivered_count == 2

    def test_handler_table_rebuilds_after_invalidate(self, sim, streams):
        from repro.mac.csma import ReceptionBatch

        network, _ = build_static_network(sim, streams, [(0, 0), (100, 0)])
        pkt = Beacon(0.0, origin=0)
        network.deliver_control_batch(ReceptionBatch(pkt, 0, [1], set(), 0.0))
        # The table snapshotted the default handler; a late stub needs an
        # explicit invalidation to be seen.
        received = []
        network.node(1).receive_control = lambda p, frm: received.append(p)
        network.invalidate_dispatch()
        network.deliver_control_batch(ReceptionBatch(pkt, 0, [1], set(), 0.0))
        assert received == [pkt]

    def test_add_node_invalidates_handler_table(self, sim, streams):
        from repro.mac.csma import ReceptionBatch
        from repro.mobility.static import StaticPosition

        network, _ = build_static_network(sim, streams, [(0, 0), (100, 0)])
        pkt = Beacon(0.0, origin=0)
        network.deliver_control_batch(ReceptionBatch(pkt, 0, [1], set(), 0.0))
        node = network.add_node(StaticPosition(Vec2(50, 0)))
        received = []
        node.receive_control = lambda p, frm: received.append(p)
        network.deliver_control_batch(ReceptionBatch(pkt, 0, [node.id], set(), 0.0))
        assert received == [pkt]
