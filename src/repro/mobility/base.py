"""Mobility model interface."""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional

from repro.geometry.vector import Vec2

__all__ = ["MobilityModel", "DRIFT_MARGIN_M"]

#: Additive slack (metres) in the :attr:`MobilityModel.speed_bound`
#: contract.  It absorbs floating-point rounding in segment evaluation
#: (a few ulps of a kilometre-scale coordinate, ~1e-12 m), so a bound may
#: be stated as the exact configured speed.  0.1 µm is four orders of
#: magnitude above that rounding and far below any radio distance.
DRIFT_MARGIN_M = 1e-7


class MobilityModel(ABC):
    """Abstract mobility model: a trajectory queried by absolute time.

    Implementations must be *monotone-query friendly*: queries may arrive
    with non-decreasing ``t`` from the simulator, but implementations are
    required to answer correctly for any ``t >= 0`` (tests query out of
    order).
    """

    @abstractmethod
    def position(self, t: float) -> Vec2:
        """Exact position at absolute simulation time ``t`` (seconds)."""

    @property
    def speed_bound(self) -> Optional[float]:
        """An upper bound on speed over the whole trajectory (m/s), or None.

        Contract: for any instants ``t1``, ``t2`` (negative ones clamp to
        0), ``|position(t2) - position(t1)| <= speed_bound * |t2 - t1| +
        DRIFT_MARGIN_M``.  The topology index uses it to reuse neighbour
        candidate lists while nodes cannot have drifted far (see
        docs/ARCHITECTURE.md).  None, the default, means no bound is
        known; the index then resamples every node at each query instant.
        """
        return None

    def speed_at(self, t: float) -> float:
        """Instantaneous speed at time ``t`` in m/s (0 when pausing).

        Default implementation differentiates numerically; concrete models
        override with the exact value.
        """
        dt = 1e-3
        a = self.position(max(0.0, t - dt))
        b = self.position(t + dt)
        return a.distance_to(b) / (2 * dt)
