"""Random-waypoint mobility (the paper's model).

Each terminal repeats: pick a uniform random destination in the field, move
to it in a straight line at a speed drawn uniformly from ``(0, max_speed]``,
pause for ``pause_time`` seconds (3 s in the paper), pick again.

Positions are *exact*: the trajectory is a lazily-extended list of linear
segments, and :meth:`LegTrajectory.position` evaluates the segment covering
``t`` in closed form (remembering the last covering leg, so in-order
queries skip the lookup).  Segments are generated deterministically from
the model's private random stream, so out-of-order queries return
identical results.
"""

from __future__ import annotations

import bisect
import math
import random
from typing import List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.geometry.field import Field
from repro.geometry.vector import Vec2, vec2_of
from repro.mobility.base import MobilityModel

__all__ = ["LegTrajectory", "RandomWaypoint", "Segment"]

# Never draw a speed below this (m/s): the classic random-waypoint pitfall
# of near-zero speeds producing quasi-infinite segments.
_MIN_SPEED = 0.01


class Segment:
    """One linear leg of a trajectory (or a pause when ``a == b``).

    Zero-length-pause convention: a segment with ``t_end <= t_start`` is an
    *instantaneous* pause and always evaluates to its anchor ``a`` — the
    division in :meth:`position` is guarded, never taken.  Models rely on
    this to keep the move/pause alternation uniform even when
    ``pause_time == 0`` (every move is still followed by a pause segment,
    just a zero-length one), and the initial state of every random model is
    the zero-length pause ``Segment(0, 0, origin, origin)``.
    """

    __slots__ = ("t_start", "t_end", "a", "b")

    def __init__(self, t_start: float, t_end: float, a: Vec2, b: Vec2) -> None:
        self.t_start = t_start
        self.t_end = t_end
        self.a = a
        self.b = b

    def position(self, t: float) -> Vec2:
        """Position at ``t`` (must lie within the segment).

        Zero-length segments (``t_end <= t_start``) return ``a`` exactly;
        otherwise the anchor-form lerp ``a + (b - a) * frac``.
        """
        if self.t_end <= self.t_start:
            return self.a
        frac = (t - self.t_start) / (self.t_end - self.t_start)
        return self.a.lerp(self.b, frac)

    @property
    def is_pause(self) -> bool:
        """True if this segment is a pause at a waypoint."""
        return self.a == self.b

    @property
    def speed(self) -> float:
        """Speed along this segment in m/s (0 for pauses)."""
        if self.t_end <= self.t_start:
            return 0.0
        return self.a.distance_to(self.b) / (self.t_end - self.t_start)


class LegTrajectory(MobilityModel):
    """A random trajectory stored as a lazily extended list of segments.

    The shared machinery of :class:`RandomWaypoint` and
    :class:`~repro.mobility.direction.RandomDirection`: configuration,
    on-demand extension and the segment lookup.  Subclasses supply
    :meth:`_next_segment` (the leg after ``last``).

    **The covering leg.**  Queries arrive in (mostly) non-decreasing time,
    and one leg lasts seconds while the simulator asks many times per
    millisecond, so the model remembers the leg of positive length that
    answered the last query as ``(t_start, t_end, span, ax, ay, dx, dy)``.
    A query with ``t_start <= t < t_end`` is then one comparison plus the
    anchor-form lerp ``a + (b - a) * frac`` of :meth:`Segment.position`,
    operation for operation, so it returns the same floats.  That leg is
    the one the bisect would find: legs are contiguous, so the next one
    starts at ``t_end > t``.  Any other query (out of order, past the
    leg, t < 0, a zero-length segment) falls back to the bisect.
    """

    def __init__(
        self,
        field: Field,
        rng: random.Random,
        max_speed: float,
        pause_time: float = 3.0,
        start: Optional[Vec2] = None,
    ) -> None:
        if max_speed < 0:
            raise ConfigurationError(f"max_speed must be >= 0, got {max_speed}")
        if pause_time < 0:
            raise ConfigurationError(f"pause_time must be >= 0, got {pause_time}")
        self._field = field
        self._rng = rng
        self._max_speed = float(max_speed)
        self._pause = float(pause_time)
        origin = start if start is not None else field.random_point(rng)
        self._segments: List[Segment] = [Segment(0.0, 0.0, origin, origin)]
        self._starts: List[float] = [0.0]  # parallel array for bisect
        # The covering leg (see the class docstring); empty until a query
        # lands on a leg of positive length.
        self._leg: Tuple[float, ...] = (0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0)
        if self._max_speed <= 0.0:
            # A parked terminal holds its origin for all t >= 0: one leg
            # with offset b - a = -0.0, so a + (b - a) * frac is a.
            self._leg = (0.0, math.inf, 1.0, origin.x, origin.y, -0.0, -0.0)

    @property
    def speed_bound(self) -> float:
        """Every leg's speed is a clamped draw from ``[0, max_speed]``;
        a parked terminal (``max_speed == 0``) never moves."""
        if self._max_speed <= 0.0:
            return 0.0
        return max(self._max_speed, _MIN_SPEED)

    def position(self, t: float) -> Vec2:
        t0, t1, span, ax, ay, dx, dy = self._leg
        if t0 <= t < t1:
            frac = (t - t0) / span
            return vec2_of((ax + dx * frac, ay + dy * frac))
        seg = self._segment_at(t)
        t0 = seg.t_start
        t1 = seg.t_end
        if t1 <= t0:
            return seg.a
        a = seg.a
        b = seg.b
        span = t1 - t0
        dx = b.x - a.x
        dy = b.y - a.y
        self._leg = (t0, t1, span, a.x, a.y, dx, dy)
        # The found leg covers max(t, 0): the bisect clamps t < 0 to 0.
        frac = (max(t, 0.0) - t0) / span
        return vec2_of((a.x + dx * frac, a.y + dy * frac))

    def speed_at(self, t: float) -> float:
        """Speed at ``t``, with *held-frontier* end-of-trajectory semantics.

        ``max_speed == 0`` is the only way the trajectory ends: the initial
        zero-length pause stays the last segment forever, and any query at
        or past its ``t_end`` reports 0.0 (the terminal is parked).  For a
        moving terminal the trajectory is extended on demand, so every
        instant reports the covering segment's speed (0 during pauses).
        """
        if t < 0:
            t = 0.0
        seg = self._segment_at(t)
        return seg.speed if t < seg.t_end else 0.0

    def _segment_at(self, t: float) -> Segment:
        """The last segment starting at or before ``max(t, 0)``."""
        if t < 0:
            t = 0.0
        self._extend_to(t)
        idx = bisect.bisect_right(self._starts, t) - 1
        return self._segments[max(idx, 0)]

    def _extend_to(self, t: float) -> None:
        """Generate trajectory segments until they cover time ``t``."""
        if self._max_speed <= 0.0:
            return  # static: the initial zero-length pause covers all time
        last = self._segments[-1]
        while last.t_end <= t:
            last = self._next_segment(last)
            self._segments.append(last)
            self._starts.append(last.t_start)

    def _next_segment(self, last: Segment) -> Segment:
        """The segment following ``last`` (draws from the private stream)."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"{type(self).__name__}(max_speed={self._max_speed:.1f} m/s, "
            f"pause={self._pause:.1f}s, segments={len(self._segments)})"
        )


class RandomWaypoint(LegTrajectory):
    """The random-waypoint model with uniform speeds and fixed pauses.

    Speeds are drawn ``uniform(0, max_speed)`` and then clamped from below
    to ``_MIN_SPEED`` (0.01 m/s).  The clamp exists because the unclamped
    model is ill-posed: a draw arbitrarily close to 0 produces a travel
    segment of arbitrarily long duration, so mean speed decays over time
    and a single unlucky draw can pin a terminal mid-flight for the whole
    run (the "speed decay" pathology of naive random waypoint).  Clamping
    at 1 cm/s bounds segment duration without measurably distorting the
    paper's MAXSPEED ∈ [1, 20] m/s operating range.

    Args:
        field: the field to roam.
        rng: private random stream for this terminal.
        max_speed: MAXSPEED in m/s; speeds are ~ U(0, max_speed].  A value
            of 0 degenerates to a static terminal at the start position.
        pause_time: pause at each waypoint, seconds (paper: 3 s).
        start: optional start position; defaults to a uniform random point.
    """

    def _next_segment(self, last: Segment) -> Segment:
        if last.is_pause:
            # Depart: choose destination and speed.
            dest = self._field.random_point(self._rng)
            speed = max(self._rng.uniform(0.0, self._max_speed), _MIN_SPEED)
            travel = last.b.distance_to(dest) / speed
            return Segment(last.t_end, last.t_end + travel, last.b, dest)
        # Arrive: pause at the waypoint.  A zero pause still inserts an
        # instantaneous segment so the move/pause alternation is uniform.
        return Segment(last.t_end, last.t_end + self._pause, last.b, last.b)
