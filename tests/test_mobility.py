"""Unit tests for mobility models."""

import math
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.geometry.field import Field
from repro.geometry.vector import Vec2
from repro.mobility.base import DRIFT_MARGIN_M
from repro.mobility.direction import RandomDirection
from repro.mobility.path import WaypointPath
from repro.mobility.static import StaticPosition
from repro.mobility.waypoint import _MIN_SPEED, RandomWaypoint


class TestStaticPosition:
    def test_position_constant(self):
        m = StaticPosition(Vec2(10, 20))
        assert m.position(0.0) == Vec2(10, 20)
        assert m.position(1e6) == Vec2(10, 20)

    def test_speed_zero(self):
        assert StaticPosition(Vec2(0, 0)).speed_at(5.0) == 0.0


class TestWaypointPath:
    def test_interpolates_linearly(self):
        path = WaypointPath([(0.0, Vec2(0, 0)), (10.0, Vec2(100, 0))])
        assert path.position(5.0) == Vec2(50, 0)

    def test_holds_endpoints(self):
        path = WaypointPath([(1.0, Vec2(0, 0)), (2.0, Vec2(10, 0))])
        assert path.position(0.0) == Vec2(0, 0)
        assert path.position(100.0) == Vec2(10, 0)

    def test_speed(self):
        path = WaypointPath([(0.0, Vec2(0, 0)), (10.0, Vec2(100, 0))])
        assert path.speed_at(5.0) == pytest.approx(10.0)
        assert path.speed_at(50.0) == 0.0

    def test_rejects_bad_anchor_times(self):
        with pytest.raises(ConfigurationError):
            WaypointPath([])
        with pytest.raises(ConfigurationError):
            WaypointPath([(1.0, Vec2(0, 0)), (1.0, Vec2(1, 1))])
        with pytest.raises(ConfigurationError):
            WaypointPath([(-1.0, Vec2(0, 0)), (1.0, Vec2(1, 1))])


class TestRandomWaypoint:
    def _model(self, max_speed=10.0, pause=3.0, seed=1):
        return RandomWaypoint(
            Field(1000, 1000), random.Random(seed), max_speed, pause_time=pause
        )

    def test_positions_stay_in_field(self):
        m = self._model()
        field = Field(1000, 1000)
        for t in range(0, 500, 7):
            assert field.contains(m.position(float(t)))

    def test_continuity(self):
        m = self._model(max_speed=20.0)
        prev = m.position(0.0)
        for i in range(1, 2000):
            t = i * 0.25
            cur = m.position(t)
            # displacement bounded by max speed x dt
            assert prev.distance_to(cur) <= 20.0 * 0.25 + 1e-6
            prev = cur

    def test_deterministic_given_rng(self):
        a = self._model(seed=9)
        b = self._model(seed=9)
        for t in (0.0, 12.3, 99.0, 500.0):
            assert a.position(t) == b.position(t)

    def test_out_of_order_queries_consistent(self):
        a = self._model(seed=4)
        b = self._model(seed=4)
        ts = [100.0, 3.0, 57.0, 4.5, 250.0]
        pos_a = {t: a.position(t) for t in ts}
        for t in sorted(ts):
            assert b.position(t) == pos_a[t]

    def test_zero_speed_is_static(self):
        m = self._model(max_speed=0.0)
        assert m.position(0.0) == m.position(1000.0)
        assert m.speed_at(123.0) == 0.0

    def test_speed_within_bounds(self):
        m = self._model(max_speed=15.0, pause=1.0)
        for t in range(0, 300, 3):
            assert 0.0 <= m.speed_at(float(t)) <= 15.0 + 1e-9

    def test_pause_occurs_at_waypoints(self):
        m = self._model(max_speed=10.0, pause=3.0)
        # Scan for an interval where the node does not move (a pause).
        paused = False
        for i in range(0, 5000):
            t = i * 0.1
            if m.position(t) == m.position(t + 2.9) and m.speed_at(t + 1.0) == 0.0:
                paused = True
                break
        assert paused, "expected at least one 3-second pause in 500 s"

    def test_negative_time_clamped(self):
        m = self._model()
        assert m.position(-5.0) == m.position(0.0)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            self._model(max_speed=-1.0)
        with pytest.raises(ConfigurationError):
            self._model(pause=-0.1)

    def test_explicit_start_position(self):
        m = RandomWaypoint(
            Field(1000, 1000), random.Random(1), 10.0, start=Vec2(500, 500)
        )
        assert m.position(0.0) == Vec2(500, 500)


def _segment_instants(model):
    """Every segment edge of a random model, plus the neighbouring ulps."""
    out = []
    for seg in model._segments:
        for t in (seg.t_start, seg.t_end):
            out += [t, math.nextafter(t, -math.inf), math.nextafter(t, math.inf)]
    return out


def _assert_speed_bound(model, instants, rng, pairs=3000):
    """``|p(t2) - p(t1)| <= speed_bound * |t2 - t1| + DRIFT_MARGIN_M``
    over random pairs drawn from ``instants`` and consecutive ones."""
    bound = model.speed_bound
    assert bound is not None and bound >= 0.0
    instants = sorted(instants)
    checks = list(zip(instants, instants[1:]))
    checks += [(rng.choice(instants), rng.choice(instants)) for _ in range(pairs)]
    for t1, t2 in checks:
        moved = model.position(t2).distance_to(model.position(t1))
        assert moved <= bound * abs(t2 - t1) + DRIFT_MARGIN_M, (t1, t2, moved)


class TestSpeedBound:
    """The ``speed_bound`` contract the topology index's candidate lists
    rely on: no trajectory drifts faster than its declared bound."""

    @pytest.mark.parametrize("pause", [0.0, 3.0])
    @pytest.mark.parametrize("max_speed", [20.0, 0.004])
    def test_random_waypoint(self, max_speed, pause):
        rng = random.Random(7)
        m = RandomWaypoint(Field(1000, 1000), random.Random(3), max_speed, pause)
        assert m.speed_bound == max(max_speed, _MIN_SPEED)
        horizon = 400.0 if max_speed > 1 else 4e5
        instants = [rng.uniform(-5.0, horizon) for _ in range(400)] + [-1.0, 0.0]
        m.position(horizon)  # generate every segment the instants touch
        _assert_speed_bound(m, instants + _segment_instants(m), rng)

    def test_below_min_speed_moves_at_the_clamp(self):
        # A U(0, 0.004) draw is always clamped up to 1 cm/s, so the bound
        # must be the clamp, not max_speed — and it is tight.
        m = RandomWaypoint(Field(100, 100), random.Random(5), 0.004, pause_time=0.0)
        seg = m._segment_at(1.0)
        assert seg.speed == pytest.approx(_MIN_SPEED)
        assert m.speed_bound == _MIN_SPEED

    @pytest.mark.parametrize("model_cls", [RandomWaypoint, RandomDirection])
    def test_parked_terminal_has_zero_bound(self, model_cls):
        m = model_cls(Field(1000, 1000), random.Random(2), 0.0)
        assert m.speed_bound == 0.0
        assert m.position(-3.0) == m.position(0.0) == m.position(1e4)

    @pytest.mark.parametrize("max_speed", [15.0, 0.004])
    def test_random_direction(self, max_speed):
        rng = random.Random(11)
        m = RandomDirection(Field(800, 500), random.Random(4), max_speed, 1.0)
        assert m.speed_bound == max(max_speed, _MIN_SPEED)
        horizon = 300.0 if max_speed > 1 else 3e5
        instants = [rng.uniform(-5.0, horizon) for _ in range(400)] + [-2.0, 0.0]
        m.position(horizon)
        _assert_speed_bound(m, instants + _segment_instants(m), rng)

    def test_random_direction_reaim_floor(self):
        # In a 10 µm field a terminal sits on an edge after every leg and
        # about half of its headings point outward, so the re-aimed leg's
        # 1 µs travel-time floor is taken again and again.  The floor only
        # lengthens legs: it may lower a leg's speed, never raise it.
        rng = random.Random(13)
        m = RandomDirection(Field(1e-5, 1e-5), random.Random(6), 20.0, 0.0)
        m.position(2e-4)
        floored = [
            s for s in m._segments if not s.is_pause and s.t_end - s.t_start == pytest.approx(1e-6)
        ]
        assert floored, "expected re-aimed legs on the 1 µs floor"
        instants = [rng.uniform(-1e-5, 2e-4) for _ in range(400)]
        _assert_speed_bound(m, instants + _segment_instants(m), rng)

    def test_waypoint_path_fastest_leg(self):
        rng = random.Random(17)
        anchors = [(0.5, Vec2(0, 0)), (2.0, Vec2(30, 40)), (2.25, Vec2(30, 50)), (9.0, Vec2(0, 0))]
        path = WaypointPath(anchors)
        assert path.speed_bound == pytest.approx(40.0)  # 10 m in 0.25 s
        instants = [rng.uniform(-1.0, 12.0) for _ in range(300)]
        for t, _ in anchors:
            instants += [t, math.nextafter(t, -math.inf), math.nextafter(t, math.inf)]
        _assert_speed_bound(path, instants, rng)

    def test_single_anchor_path_and_static(self):
        assert WaypointPath([(1.0, Vec2(3, 4))]).speed_bound == 0.0
        assert StaticPosition(Vec2(3, 4)).speed_bound == 0.0


def _bits(p):
    return struct.pack("<2d", p[0], p[1])


def _bisect_position(model, t):
    """The position without the covering leg: the bisect-found segment's
    :meth:`Segment.position`, as both random models evaluated it before."""
    if t < 0:
        t = 0.0
    seg = model._segment_at(t)
    if seg.t_end <= seg.t_start:
        return seg.a
    return seg.position(min(max(t, seg.t_start), seg.t_end))


class TestCoveringLeg:
    """The remembered leg answers with the bisect's floats, bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(
        model_cls=st.sampled_from([RandomWaypoint, RandomDirection]),
        seed=st.integers(0, 2**16),
        max_speed=st.sampled_from([0.0, 0.004, 2.0, 20.0]),
        pause=st.sampled_from([0.0, 0.5, 3.0]),
        data=st.data(),
    )
    def test_matches_bisect_bit_for_bit(self, model_cls, seed, max_speed, pause, data):
        field = Field(300, 200)
        cached = model_cls(field, random.Random(seed), max_speed, pause)
        reference = model_cls(field, random.Random(seed), max_speed, pause)
        horizon = 80.0
        reference.position(horizon)  # generate every leg the instants touch
        edges = _segment_instants(reference)  # leg edges and their ± 1 ulp
        instant = st.one_of(
            st.floats(-5.0, horizon + 5.0, allow_nan=False),
            st.sampled_from(edges),
            st.sampled_from([-1.0, -0.0, 0.0]),
        )
        instants = data.draw(st.lists(instant, min_size=1, max_size=60))
        # As drawn (out of order), then sorted: runs within one leg.
        for t in instants + sorted(instants):
            assert _bits(cached.position(t)) == _bits(_bisect_position(reference, t)), t

    @pytest.mark.parametrize("model_cls", [RandomWaypoint, RandomDirection])
    def test_in_order_queries_skip_the_lookup(self, model_cls):
        m = model_cls(Field(1000, 1000), random.Random(8), 20.0, 3.0)
        lookups = []
        find = m._segment_at
        m._segment_at = lambda t: lookups.append(t) or find(t)
        instants = [i * 0.01 for i in range(20000)]
        for t in instants:
            m.position(t)
        legs = {id(find(t)) for t in instants}
        # One lookup per leg entered (zero-length pauses answer from the
        # lookup), not one per query.
        assert len(lookups) <= 2 * len(legs)
        assert len(lookups) < len(instants) / 100
