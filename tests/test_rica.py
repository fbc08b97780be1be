"""Behavioural tests for RICA (the paper's protocol) on staged topologies."""

import math

import numpy as np
import pytest

from repro.channel.model import ChannelConfig
from repro.core.rica import RicaConfig
from repro.geometry.field import Field
from repro.geometry.vector import Vec2
from repro.metrics.collector import MetricsCollector
from repro.mobility.path import WaypointPath
from repro.mobility.static import StaticPosition
from repro.mac.csma import ReceptionBatch
from repro.net.network import Network
from repro.routing.packets import CsiCheck
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams

from tests.helpers import (
    attach_protocols,
    build_static_network,
    make_deterministic_channel_config,
    send_app_packet,
)


class TestDiscovery:
    def test_multihop_delivery(self, sim, streams):
        network, metrics = build_static_network(
            sim, streams, [(i * 150.0, 0.0) for i in range(4)]
        )
        attach_protocols(network, metrics, "rica")
        send_app_packet(network, metrics, 0, 3)
        sim.run(until=3.0)
        assert metrics.delivered == 1

    def test_discovery_prefers_high_throughput_route(self, sim, streams):
        """Two 2-hop routes 0->2: via node 1 (class A links, CSI distance 2)
        or via node 3 (class C links, CSI distance 6.67).  RICA must pick
        the class-A route even though both have 2 plain hops."""
        positions = [
            (0, 0),      # 0 source
            (95, 0),     # 1 relay with class-A links (95 m and 95 m)
            (190, 0),    # 2 destination
            (95, -180),  # 3 relay with class-C links (~204 m legs)
        ]
        network, metrics = build_static_network(sim, streams, positions)
        attach_protocols(network, metrics, "rica")
        send_app_packet(network, metrics, 0, 2)
        sim.run(until=3.0)
        assert metrics.delivered == 1
        # The delivered packet crossed two 250 kbps links.
        assert metrics.link_rate_sum_bps == pytest.approx(2 * 250_000.0)

    def test_destination_starts_csi_checking(self, sim, streams):
        network, metrics = build_static_network(
            sim, streams, [(i * 150.0, 0.0) for i in range(3)]
        )
        attach_protocols(network, metrics, "rica")
        send_app_packet(network, metrics, 0, 2)
        sim.run(until=4.5)
        assert metrics.events.get("rica_check_broadcast", 0) >= 3  # ~1/s
        assert metrics.control_tx_count.get("csi_check", 0) > 0

    def test_checking_stops_when_flow_dries_up(self, sim, streams):
        config = RicaConfig(dest_inactivity_s=2.0)
        network, metrics = build_static_network(
            sim, streams, [(i * 150.0, 0.0) for i in range(3)]
        )
        attach_protocols(network, metrics, "rica", config)
        send_app_packet(network, metrics, 0, 2)
        sim.run(until=10.0)
        assert metrics.events.get("rica_check_stopped", 0) == 1
        broadcasts_at_stop = metrics.events.get("rica_check_broadcast", 0)
        sim.run(until=15.0)
        assert metrics.events.get("rica_check_broadcast", 0) == broadcasts_at_stop


class TestRouteSwitching:
    def _two_route_network(self, sim, streams):
        """0 -> 2 via relay 1 (short route) and relay 3.  Relay 1 starts
        close (class A legs) then drifts to class-C leg distance, while
        relay 3 stays class A; RICA should switch to relay 3."""
        metrics = MetricsCollector(100.0)
        network = Network(
            sim,
            Field(5000, 5000),
            streams,
            metrics,
            channel_config=make_deterministic_channel_config(),
        )
        network.add_node(StaticPosition(Vec2(0, 0)))       # 0 source
        network.add_node(                                   # 1 degrading relay
            WaypointPath(
                [
                    (0.0, Vec2(95, 0)),
                    (2.0, Vec2(95, 0)),
                    (4.0, Vec2(95, 160)),  # legs become ~186 m: class C
                ]
            )
        )
        network.add_node(StaticPosition(Vec2(190, 0)))      # 2 destination
        # Legs 0-3 and 3-2 are ~98.2 m: class A, CSI distance 2.0 total —
        # strictly better than the 190 m direct class-C link (10/3).
        network.add_node(StaticPosition(Vec2(95, -25)))     # 3 steady class-A relay
        return network, metrics

    def test_switches_to_better_route_on_csi_change(self, sim, streams):
        network, metrics = self._two_route_network(sim, streams)
        attach_protocols(network, metrics, "rica")
        # Keep the flow alive so the destination keeps checking.
        seq = [0]

        def periodic_send():
            seq[0] += 1
            send_app_packet(network, metrics, 0, 2, seq=seq[0])

        from repro.sim.timers import PeriodicTimer

        PeriodicTimer(sim, 0.2, periodic_send, start_delay=0.0).start()
        sim.run(until=10.0)
        assert metrics.events.get("rica_route_switch", 0) >= 1
        assert metrics.control_tx_count.get("rupd", 0) >= 1
        # After the switch the source's next hop is relay 3.
        entry = network.node(0).routing.table.get_valid(2, sim.now, max_idle=None)
        assert entry is not None and entry.next_hop == 3
        # Deliveries continued throughout.
        assert metrics.delivered >= 40

    def test_old_route_expires_after_idle_timeout(self, sim, streams):
        network, metrics = build_static_network(
            sim, streams, [(0, 0), (150, 0), (300, 0)]
        )
        attach_protocols(network, metrics, "rica")
        send_app_packet(network, metrics, 0, 2)
        sim.run(until=1.0)
        assert metrics.delivered == 1
        relay = network.node(1).routing
        assert relay.table.entry(2) is not None
        # After >1 s without data the relay's entry is lazily invalid.
        sim.run(until=5.0)
        assert relay.table.get_valid(2, sim.now, max_idle=1.0) is None


class TestMaintenance:
    def test_reer_falls_back_to_discovery_without_fresh_candidates(
        self, sim, streams
    ):
        """Break the only route: the source must re-flood an RREQ."""
        metrics = MetricsCollector(100.0)
        network = Network(
            sim,
            Field(5000, 5000),
            streams,
            metrics,
            channel_config=make_deterministic_channel_config(),
        )
        network.add_node(StaticPosition(Vec2(0, 0)))
        network.add_node(
            WaypointPath([(0.0, Vec2(150, 0)), (1.5, Vec2(150, 0)), (1.8, Vec2(150, 3000))])
        )
        network.add_node(StaticPosition(Vec2(300, 0)))
        network.add_node(StaticPosition(Vec2(150, 140)))  # alternative relay
        attach_protocols(network, metrics, "rica")
        send_app_packet(network, metrics, 0, 2, seq=1)
        sim.run(until=1.0)
        assert metrics.delivered == 1
        sim.run(until=4.0)  # node 1 gone
        send_app_packet(network, metrics, 0, 2, seq=2)
        sim.run(until=9.0)
        assert metrics.delivered == 2  # recovered via node 3

    def test_update_flag_set_on_route_change_only(self, sim, streams):
        """The first data packet after a route *change* carries the update
        flag (paper Section II-C); re-selections of the same next hop do
        not set it."""
        network, metrics = build_static_network(
            sim, streams, [(0, 0), (95, 25), (190, 0), (95, -25)]
        )
        attach_protocols(network, metrics, "rica")
        source = network.node(0).routing
        send_app_packet(network, metrics, 0, 2, seq=1)
        sim.run(until=0.5)
        first_hop = source.table.get_valid(2, sim.now).next_hop
        # Re-selecting the same neighbour does not mark an update...
        source._switch_route(2, first_hop, bcast_id=99, csi=2.0)
        assert not source._pending_update_flag.get(2, False)
        # ...but switching to the other relay does.
        other = 3 if first_hop == 1 else 1
        source._switch_route(2, other, bcast_id=100, csi=2.0)
        assert source._pending_update_flag.get(2, False)
        # The first packet dispatched after the change carries the flag and
        # consumes it; the next one is clean.
        first = send_app_packet(network, metrics, 0, 2, seq=2)
        second = send_app_packet(network, metrics, 0, 2, seq=3)
        assert first.update_flag is True
        assert second.update_flag is False
        assert not source._pending_update_flag.get(2, False)


class TestReerWithFreshCandidate:
    def test_reer_recovers_from_fresh_csi_candidate(self, sim, streams):
        """Section II-D rule 1: a source holding fresh checking-packet
        candidates answers a REER with a route switch, not a re-flood."""
        network, metrics = build_static_network(
            sim, streams, [(0, 0), (95, 25), (190, 0), (95, -25)]
        )
        attach_protocols(network, metrics, "rica")
        source = network.node(0).routing
        send_app_packet(network, metrics, 0, 2, seq=1)
        sim.run(until=1.5)  # discovery done, first checking broadcast seen
        assert 2 in source._fresh_candidate
        floods_before = metrics.events.get("discovery_started", 0)
        # Simulate a REER reaching the source from its current downstream.
        current_hop = source.table.get_valid(2, sim.now, max_idle=None).next_hop
        from repro.routing.packets import RouteError

        reer = RouteError(sim.now, flow_src=0, flow_dst=2, reporter=current_hop,
                          unicast_to=0)
        source.on_reer(reer, from_id=current_hop)
        assert metrics.events.get("rica_reer_csi_recovery", 0) == 1
        assert metrics.events.get("discovery_started", 0) == floods_before
        # The route was re-established immediately from the candidate.
        assert source.table.get_valid(2, sim.now, max_idle=None) is not None
        send_app_packet(network, metrics, 0, 2, seq=2)
        sim.run(until=3.0)
        assert metrics.delivered == 2

    def test_salvage_uses_fresh_downstream_pointer(self, sim, streams):
        """A relay losing its link re-routes transit data through the
        checking corridor instead of dropping it."""
        network, metrics = build_static_network(
            sim, streams, [(0, 0), (95, 25), (190, 0), (95, -25)]
        )
        attach_protocols(network, metrics, "rica")
        send_app_packet(network, metrics, 0, 2, seq=1)
        sim.run(until=1.5)
        relay = network.node(1).routing
        # The relay heard the checking broadcast: pointer toward node 2.
        assert relay._salvage_pointer(2, exclude=-1) is not None


class TestCheckBroadcastPass:
    """A checking broadcast's receivers sample their links in one channel
    pass.  It must sample exactly the links the per-receiver path did —
    every surviving, live receiver except the broadcasting destination —
    with the same values and the same fading-bank state afterwards."""

    RECEIVERS = list(range(1, 31))  # more than the 16-pair array cutoff
    FLOW_DST, LOST, DOWN = 3, 5, 7

    def _network(self):
        sim = Simulator()
        ring = [
            (500.0 + 120.0 * math.cos(k * math.pi / 15), 500.0 + 120.0 * math.sin(k * math.pi / 15))
            for k in range(30)
        ]
        network, metrics = build_static_network(
            sim, RandomStreams(seed=77), [(500.0, 500.0)] + ring, channel_config=ChannelConfig()
        )
        protos = attach_protocols(network, metrics, "rica")
        # Shared history: every link sampled once before the broadcast.
        network.channel.csi_hop_distances(0, self.RECEIVERS, 0.5)
        network.fail_node(self.DOWN)
        return sim, network, protos

    def _check(self):
        return CsiCheck(0.9, flow_src=29, flow_dst=self.FLOW_DST, bcast_id=4, ttl=1)

    def test_matches_per_receiver_sampling(self):
        sim, network, protos = self._network()
        batch = ReceptionBatch(self._check(), 0, self.RECEIVERS, {self.LOST}, 1.0)
        sim.schedule_at(1.0, network.deliver_control_batch, batch)
        sim.run(until=1.0)

        _, reference, _ = self._network()
        skipped = {self.FLOW_DST, self.LOST, self.DOWN}
        expected = {
            r: reference.channel.csi_hop_distance(0, r, 1.0)
            for r in self.RECEIVERS
            if r not in skipped
        }
        for r in self.RECEIVERS:
            pointer = protos[r]._downstream.get((self.FLOW_DST, 4))
            if r in skipped:
                assert pointer is None
            else:
                assert pointer == (0, expected[r], 1.0)
        bank, ref_bank = network.channel._bank, reference.channel._bank
        assert bank.draws == ref_bank.draws
        assert bank._row_of == ref_bank._row_of
        n = bank.pair_count
        assert np.array_equal(bank._ctr[:n], ref_bank._ctr[:n])
        assert np.array_equal(bank._x[:, :n], ref_bank._x[:, :n])
        assert np.array_equal(bank._t[:n], ref_bank._t[:n])
        assert network.channel.samples_taken == reference.channel.samples_taken

    def test_direct_delivery_takes_the_same_pass(self):
        sim, network, protos = self._network()
        sim.schedule_at(1.0, network.node(12).receive_control, self._check(), 0)
        sim.run(until=1.0)
        _, reference, _ = self._network()
        link = reference.channel.csi_hop_distance(0, 12, 1.0)
        assert protos[12]._downstream[(self.FLOW_DST, 4)] == (0, link, 1.0)
        assert network.channel._bank.draws == reference.channel._bank.draws

    def test_stubbed_handler_still_receives_checks(self):
        sim, network, protos = self._network()
        received = []
        network.node(2).receive_control = lambda pkt, frm: received.append(pkt)
        check = self._check()
        sim.schedule_at(1.0, network.deliver_control_batch, ReceptionBatch(check, 0, [1, 2], set(), 1.0))
        sim.run(until=1.0)
        assert received == [check]
        assert (self.FLOW_DST, 4) in protos[1]._downstream
