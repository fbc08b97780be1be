"""Differential and property tests for the spatial topology index.

The load-bearing guarantee: grid-backed ``neighbors()`` answers *exactly*
match the seed's brute-force O(n²) scan — across random fields, radii
(including 0 and beyond the field diagonal), boundary-sitting nodes and
moving trajectories.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, TopologyError
from repro.geometry.field import Field
from repro.geometry.grid import UniformGrid, bulk_distances
from repro.geometry.vector import Vec2
from repro.mobility.direction import RandomDirection
from repro.mobility.path import WaypointPath
from repro.mobility.static import StaticPosition
from repro.mobility.waypoint import RandomWaypoint
from repro.sim.rng import RandomStreams
from repro.topology import TopologyIndex

from tests.helpers import build_static_network


def brute_force_neighbors(positions, node_id, radius):
    """The seed implementation: scan every node, ascending ids."""
    origin = positions[node_id]
    return sorted(
        nid
        for nid, p in positions.items()
        if nid != node_id and origin.distance_to(p) <= radius
    )


def make_index(field, positions, radius, **kwargs):
    index = TopologyIndex(field, radius=radius, **kwargs)
    for nid, p in positions.items():
        index.add(nid, (lambda point: lambda t: point)(p))
    return index


class TestGrid:
    def test_cell_of_clamps_and_covers_field(self):
        grid = UniformGrid(1000.0, 1000.0, 250.0)
        assert grid.cols == 4 and grid.rows == 4
        assert grid.cell_of(Vec2(0.0, 0.0)) == (0, 0)
        # Points on the far edge land in the last cell, not out of bounds.
        assert grid.cell_of(Vec2(1000.0, 1000.0)) == (3, 3)
        assert grid.cell_of(Vec2(-50.0, 2000.0)) == (0, 3)

    def test_cells_near_covers_radius(self):
        grid = UniformGrid(1000.0, 1000.0, 250.0)
        cells = set(grid.cells_near(Vec2(500.0, 500.0), 250.0))
        assert (1, 1) in cells and (3, 3) in cells
        everything = set(grid.cells_near(Vec2(500.0, 500.0), 5000.0))
        assert len(everything) == grid.cell_count

    def test_invalid_configs_rejected(self):
        with pytest.raises(ConfigurationError):
            UniformGrid(0.0, 100.0, 10.0)
        with pytest.raises(ConfigurationError):
            UniformGrid(100.0, 100.0, 0.0)

    def test_bulk_distances(self):
        pts = [Vec2(3.0, 4.0), Vec2(0.0, 0.0)]
        assert bulk_distances(Vec2(0.0, 0.0), pts) == [5.0, 0.0]


class TestDifferential:
    """Grid answers == brute-force answers, exactly."""

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(1, 40),
        side=st.floats(50.0, 3000.0),
        radius_kind=st.sampled_from(["zero", "small", "tx", "diagonal", "beyond"]),
    )
    def test_static_random_fields(self, seed, n, side, radius_kind):
        rng = random.Random(seed)
        field = Field(side, side)
        positions = {i: field.random_point(rng) for i in range(n)}
        # Pin some nodes to corners/edges (boundary cells) when room allows.
        corners = [Vec2(0.0, 0.0), Vec2(side, side), Vec2(side, 0.0), Vec2(0.0, side)]
        for i, corner in enumerate(corners[: min(n, 4)]):
            positions[i] = corner
        radius = {
            "zero": 0.0,
            "small": side / 20.0,
            "tx": 250.0,
            "diagonal": field.diagonal,
            "beyond": 2.0 * field.diagonal,
        }[radius_kind]
        index = make_index(field, positions, radius)
        for nid in positions:
            assert index.neighbors(nid, 0.0) == brute_force_neighbors(
                positions, nid, radius
            )

    def test_coincident_nodes_and_zero_radius(self):
        field = Field(100.0, 100.0)
        positions = {0: Vec2(5.0, 5.0), 1: Vec2(5.0, 5.0), 2: Vec2(6.0, 5.0)}
        index = make_index(field, positions, radius=0.0)
        assert index.neighbors(0, 0.0) == [1]
        assert index.neighbors(2, 0.0) == []

    def test_nodes_on_cell_boundaries(self):
        field = Field(1000.0, 1000.0)
        # Multiples of the 250 m cell size, i.e. exactly on grid lines.
        positions = {
            i: Vec2(250.0 * (i % 5), 250.0 * (i // 5)) for i in range(25)
        }
        index = make_index(field, positions, radius=250.0)
        for nid in positions:
            assert index.neighbors(nid, 0.0) == brute_force_neighbors(
                positions, nid, 250.0
            )

    def test_moving_nodes_match_brute_force_over_time(self):
        streams = RandomStreams(99)
        field = Field(600.0, 600.0)
        models = {
            i: RandomWaypoint(
                field, streams.stream(f"mobility/{i}"), max_speed=20.0, pause_time=1.0
            )
            for i in range(25)
        }
        index = TopologyIndex(field, radius=200.0)
        for nid, model in models.items():
            index.add(nid, model.position)  # no speed bound: per-instant snapshots
        # Out-of-order query times exercise incremental builds both ways.
        for t in (0.0, 5.0, 2.5, 40.0, 39.0, 41.0):
            positions = {nid: m.position(t) for nid, m in models.items()}
            for nid in models:
                assert index.neighbors(nid, t) == brute_force_neighbors(
                    positions, nid, 200.0
                )
        assert index.bucket_moves > 0  # incremental path was exercised


class TestEpochCaching:
    def test_quantum_zero_is_exact(self):
        field = Field(100.0, 100.0)
        index = TopologyIndex(field, radius=50.0)
        index.add(0, lambda t: Vec2(t, 0.0))
        assert index.position(0, 3.7) == Vec2(3.7, 0.0)

    def test_quantum_snaps_positions_down(self):
        field = Field(100.0, 100.0)
        index = TopologyIndex(field, radius=50.0, quantum=0.5)
        index.add(0, lambda t: Vec2(t, 0.0))
        assert index.snap(1.74) == 1.5
        assert index.position(0, 1.74) == Vec2(1.5, 0.0)
        assert index.position(0, 1.5) == index.position(0, 1.99)

    def test_point_queries_do_not_build_snapshots(self):
        field = Field(100.0, 100.0)
        index = TopologyIndex(field, radius=50.0)
        index.add(0, lambda t: Vec2(0.0, 0.0))
        index.add(1, lambda t: Vec2(10.0, 0.0))
        assert index.distance(0, 1, 1.0) == 10.0
        assert index.within(0, 1, 1.0, 10.0)
        assert not index.within(0, 0, 1.0, 10.0)
        assert index.snapshots_built == 0
        index.neighbors(0, 1.0)
        assert index.snapshots_built == 1
        # Repeat queries at the same instant reuse the snapshot.
        index.neighbors(1, 1.0)
        index.position(0, 1.0)
        assert index.snapshots_built == 1

    def test_neighbor_map_matches_per_node_queries(self):
        rng = random.Random(4)
        field = Field(500.0, 500.0)
        positions = {i: field.random_point(rng) for i in range(30)}
        index = make_index(field, positions, radius=150.0)
        nmap = index.neighbor_map(0.0)
        assert sorted(nmap) == sorted(positions)
        for nid in positions:
            assert nmap[nid] == index.neighbors(nid, 0.0)

    def test_nodes_within_arbitrary_point(self):
        field = Field(100.0, 100.0)
        positions = {0: Vec2(10.0, 10.0), 1: Vec2(90.0, 90.0)}
        index = make_index(field, positions, radius=20.0)
        assert index.nodes_within(Vec2(12.0, 10.0), 0.0, 5.0) == [0]
        assert index.nodes_within(Vec2(50.0, 50.0), 0.0, 100.0) == [0, 1]


def _mixed_models(seed, n, side, kinds, radius):
    """``n`` trajectories of the given kinds; static nodes and path
    anchors sit on cell lines (multiples of ``radius``) where they can."""
    rng = random.Random(seed)
    field = Field(side, side)
    lines = [k * radius for k in range(int(side // radius) + 1)] if radius > 0 else [0.0]

    def spot(p_on_lines):
        if rng.random() < p_on_lines:
            return Vec2(rng.choice(lines), rng.choice(lines))
        return field.random_point(rng)

    models = {}
    for i in range(n):
        kind = kinds[i % len(kinds)]
        sub = random.Random(rng.random())
        if kind == "waypoint":
            models[i] = RandomWaypoint(
                field, sub, rng.choice([0.0, 0.004, 5.0, 30.0]), rng.choice([0.0, 1.0])
            )
        elif kind == "direction":
            models[i] = RandomDirection(field, sub, rng.choice([0.0, 8.0, 25.0]), 0.5)
        elif kind == "path":
            t, anchors = 0.0, []
            for _ in range(rng.randint(1, 4)):
                anchors.append((t, spot(0.5)))
                t += rng.uniform(0.5, 20.0)
            models[i] = WaypointPath(anchors)
        else:
            models[i] = StaticPosition(spot(0.7))
    return field, models


def _brute_force_at(models, inactive, node_id, t, radius):
    positions = {
        nid: m.position(t) for nid, m in models.items() if nid == node_id or nid not in inactive
    }
    return brute_force_neighbors(positions, node_id, radius)


class TestDriftBoundedLists:
    """Candidate-list answers == brute force, with speed bounds declared."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(2, 30),
        side=st.sampled_from([300.0, 1000.0, 2500.0]),
        radius=st.sampled_from([0.0, 100.0, 250.0]),
        kinds=st.lists(
            st.sampled_from(["waypoint", "direction", "path", "static"]),
            min_size=1,
            max_size=4,
        ),
        quantum=st.sampled_from([0.0, 0.0, 0.05]),
        steps=st.lists(
            st.tuples(
                st.one_of(
                    # Steps of 7 ms: neighbours share a skin window.
                    st.integers(0, 400).map(lambda k: k * 0.007),
                    st.floats(0.0, 2000.0),  # jumps far past the skin
                    st.floats(-1.0, 0.0),  # clamped to t = 0
                ),
                st.sampled_from(["query", "query", "override", "toggle"]),
                st.floats(0.0, 1.0),
            ),
            min_size=1,
            max_size=25,
        ),
    )
    def test_matches_brute_force(self, seed, n, side, radius, kinds, quantum, steps):
        field, models = _mixed_models(seed, n, side, kinds, radius)
        index = TopologyIndex(field, radius=radius, quantum=quantum)
        for nid, model in models.items():
            index.add(nid, model.position, speed_bound=model.speed_bound)
        inactive = set()
        rng = random.Random(seed)
        for t, op, frac in steps:
            if op == "toggle":
                nid = rng.randrange(n)
                index.set_active(nid, nid in inactive)
                inactive ^= {nid}
                continue
            # The override covers both sides of the index radius: smaller
            # radii stay on the lists, larger ones fall back to a snapshot.
            r = radius if op == "query" else frac * 2.0 * radius
            # A sweep that re-anchors at t scans the anchor itself; the
            # second sweep, 1 ms later, runs on that anchor's lists.
            for when in (t, t + 1e-3):
                ts = index.snap(when)
                for nid in models:
                    got = index.neighbors(nid, when, None if op == "query" else r)
                    assert got == _brute_force_at(models, inactive, nid, ts, r), (nid, when, op)

    def _waypoint_index(self, n=50, bounded=True):
        streams = RandomStreams(5)
        field = Field(1000.0, 1000.0)
        index = TopologyIndex(field, radius=250.0)
        models = {}
        for i in range(n):
            models[i] = RandomWaypoint(field, streams.stream(f"mobility/{i}"), 20.0)
            bound = models[i].speed_bound if bounded else None
            index.add(i, models[i].position, speed_bound=bound)
        return index, models

    def test_one_skin_window_builds_at_most_two_snapshots(self):
        # 20 m/s nodes and a 25 m skin: lists stay complete for ~0.62 s.
        index, models = self._waypoint_index()
        instants = [i * 0.0005 for i in range(1000)]
        for i, t in enumerate(instants):
            got = index.neighbors(i % 50, t)
            if i % 97 == 0:
                positions = {nid: m.position(t) for nid, m in models.items()}
                assert got == brute_force_neighbors(positions, i % 50, 250.0)
        assert index.snapshots_built <= 2

    def test_head_on_pairs_at_the_speed_bound(self):
        # Worst case for the skin: pairs closing at twice the declared
        # bound, starting just outside radius + skin, so each pair enters
        # range around when its anchor's lists expire.
        field = Field(2000.0, 600.0)
        index = TopologyIndex(field, radius=250.0)
        models = {}
        for k in range(10):
            x, y, gap = 100.0, 50.0 * k, 250.0 + 25.0 + 3.7 * k
            models[2 * k] = WaypointPath([(0.0, Vec2(x, y)), (10.0, Vec2(x + 200.0, y))])
            models[2 * k + 1] = WaypointPath(
                [(0.0, Vec2(x + gap, y)), (10.0, Vec2(x + gap - 200.0, y))]
            )
        for nid, model in models.items():
            assert model.speed_bound == pytest.approx(20.0)
            index.add(nid, model.position, speed_bound=model.speed_bound)
        for i in range(301):
            t = i * 0.01
            positions = {nid: m.position(t) for nid, m in models.items()}
            for nid in models:
                assert index.neighbors(nid, t) == brute_force_neighbors(positions, nid, 250.0)
        assert 3 <= index.snapshots_built <= 10

    def test_unbounded_models_keep_per_instant_snapshots(self):
        index, _ = self._waypoint_index(bounded=False)
        for i in range(1000):
            index.neighbors(i % 50, i * 0.0005)
        assert index.snapshots_built == 1000

    def test_one_unbounded_node_disables_the_lists(self):
        index, _ = self._waypoint_index(n=20)
        index.add(20, lambda t: Vec2(500.0, 500.0))
        for i in range(100):
            index.neighbors(i % 21, i * 0.001)
        assert index.snapshots_built == 100
        index.remove(20)  # every remaining node is bounded again
        for i in range(100):
            index.neighbors(i % 20, 1.0 + i * 0.001)
        assert index.snapshots_built <= 102

    def test_static_field_anchors_once(self):
        rng = random.Random(8)
        field = Field(1000.0, 1000.0)
        index = TopologyIndex(field, radius=250.0)
        for i in range(30):
            index.add(i, StaticPosition(field.random_point(rng)).position, speed_bound=0.0)
        for t in (0.0, 1e3, 5.0, 1e6):
            for i in range(30):
                index.neighbors(i, t)
        assert index.snapshots_built == 1

    def test_set_active_drops_the_anchor(self):
        index, models = self._waypoint_index(n=30)
        index.neighbors(0, 0.0)
        index.set_active(3, False)
        index.neighbors(0, 0.01)
        assert index.snapshots_built == 2
        positions = {nid: m.position(0.02) for nid, m in models.items() if nid != 3}
        for nid in positions:
            assert index.neighbors(nid, 0.02) == brute_force_neighbors(positions, nid, 250.0)


class TestMembership:
    def test_unknown_and_duplicate_ids(self):
        field = Field(100.0, 100.0)
        index = TopologyIndex(field, radius=10.0)
        index.add(0, lambda t: Vec2(0.0, 0.0))
        with pytest.raises(TopologyError):
            index.position(99, 0.0)
        with pytest.raises(TopologyError):
            index.neighbors(99, 0.0)
        with pytest.raises(TopologyError):
            index.add(0, lambda t: Vec2(1.0, 1.0))

    def test_remove_invalidates(self):
        field = Field(100.0, 100.0)
        positions = {0: Vec2(0.0, 0.0), 1: Vec2(5.0, 0.0)}
        index = make_index(field, positions, radius=10.0)
        assert index.neighbors(0, 0.0) == [1]
        index.remove(1)
        assert index.neighbors(0, 0.0) == []
        with pytest.raises(TopologyError):
            index.remove(1)

    def test_invalid_configs_rejected(self):
        field = Field(100.0, 100.0)
        with pytest.raises(ConfigurationError):
            TopologyIndex(field, radius=-1.0)
        with pytest.raises(ConfigurationError):
            TopologyIndex(field, radius=10.0, quantum=-0.1)
        with pytest.raises(ConfigurationError):
            TopologyIndex(field, radius=10.0).add(0, lambda t: Vec2(0, 0), speed_bound=-1.0)


class TestNetworkFacade:
    """The Network keeps its old topology API, now index-backed."""

    def test_static_network_neighbors_match_brute_force(self, sim, streams):
        rng = random.Random(11)
        coords = [(rng.uniform(0, 1200), rng.uniform(0, 1200)) for _ in range(40)]
        network, _ = build_static_network(sim, streams, coords)
        positions = {n.id: n.position(0.0) for n in network.nodes()}
        for nid in network.node_ids:
            assert network.neighbors(nid, 0.0) == brute_force_neighbors(
                positions, nid, network.channel.tx_range
            )

    def test_adjacency_is_bulk_neighbor_map(self, sim, streams):
        network, _ = build_static_network(
            sim, streams, [(0, 0), (100, 0), (240, 0), (600, 0)]
        )
        assert network.adjacency(0.0) == network.neighbor_map(0.0)
        assert network.adjacency(0.0) == {
            nid: network.neighbors(nid, 0.0) for nid in network.node_ids
        }

    def test_network_exposes_topology_index(self, sim, streams):
        network, _ = build_static_network(sim, streams, [(0, 0), (100, 0)])
        assert isinstance(network.topology, TopologyIndex)
        assert network.topology.radius == network.channel.tx_range
        assert len(network.topology) == 2
