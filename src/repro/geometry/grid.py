"""Uniform spatial hash grid over a rectangular field.

Pure geometry: cell indexing, the cell neighbourhood covering a radius
query, and bulk distance helpers.  The grid knows nothing about time or
nodes — :class:`repro.topology.TopologyIndex` layers position caching and
neighbour-set maintenance on top of it.

Coordinates are clamped onto the field before indexing.  Clamping is
monotone and 1-Lipschitz per axis, so for any query point ``q`` and radius
``r``, every point within ``r`` of ``q`` lands in a cell inside
:meth:`UniformGrid.cells_near(q, r)` — stray positions slightly outside
the field are binned into the border cells and still found.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Iterator, List, Tuple

from repro.errors import ConfigurationError
from repro.geometry.vector import Vec2

__all__ = ["UniformGrid", "bulk_distances"]

Cell = Tuple[int, int]


class UniformGrid:
    """Cell math for an axis-aligned ``[0, width] x [0, height]`` grid."""

    __slots__ = ("width", "height", "cell_size", "cols", "rows", "_blocks")

    def __init__(self, width: float, height: float, cell_size: float) -> None:
        if width <= 0 or height <= 0:
            raise ConfigurationError(f"grid extent must be positive, got {width}x{height}")
        if cell_size <= 0:
            raise ConfigurationError(f"cell size must be positive, got {cell_size}")
        self.width = float(width)
        self.height = float(height)
        self.cell_size = float(cell_size)
        self.cols = max(1, math.ceil(self.width / self.cell_size))
        self.rows = max(1, math.ceil(self.height / self.cell_size))
        self._blocks: Dict[Tuple[int, int, int], List[Cell]] = {}

    @property
    def cell_count(self) -> int:
        """Total number of cells."""
        return self.cols * self.rows

    def _col(self, x: float) -> int:
        c = int(min(max(x, 0.0), self.width) / self.cell_size)
        return min(c, self.cols - 1)

    def _row(self, y: float) -> int:
        r = int(min(max(y, 0.0), self.height) / self.cell_size)
        return min(r, self.rows - 1)

    def cell_of(self, p: Vec2) -> Cell:
        """The ``(col, row)`` cell containing ``p`` (clamped onto the field)."""
        return (self._col(p.x), self._row(p.y))

    def cells_near(self, p: Vec2, radius: float) -> Iterator[Cell]:
        """Every cell that can contain a point within ``radius`` of ``p``."""
        lo_c = self._col(p.x - radius)
        hi_c = self._col(p.x + radius)
        lo_r = self._row(p.y - radius)
        hi_r = self._row(p.y + radius)
        for col in range(lo_c, hi_c + 1):
            for row in range(lo_r, hi_r + 1):
                yield (col, row)

    def reach_for(self, radius: float) -> int:
        """Cells per axis a ``radius`` query must reach beyond its own cell.

        ``ceil(radius / cell_size)`` covers any origin within the cell:
        clamping is 1-Lipschitz per axis, so a point within ``radius``
        of any origin in cell ``c`` lands at most ``reach`` cells away.
        """
        return math.ceil(radius / self.cell_size) if radius > 0 else 0

    def cell_block(self, cell: Cell, reach: int) -> List[Cell]:
        """The clamped ``(2*reach + 1)²`` block of cells around ``cell``.

        Memoised per ``(cell, reach)``: the grid's geometry never changes,
        and neighbour scans ask for the same blocks at every snapshot.
        """
        col, row = cell
        key = (col, row, reach)
        block = self._blocks.get(key)
        if block is None:
            block = self._blocks[key] = [
                (c, w)
                for c in range(max(0, col - reach), min(self.cols - 1, col + reach) + 1)
                for w in range(max(0, row - reach), min(self.rows - 1, row + reach) + 1)
            ]
        return block

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"UniformGrid({self.cols}x{self.rows} cells of {self.cell_size:.0f}m)"


def bulk_distances(origin: Vec2, points: Iterable[Vec2]) -> List[float]:
    """Distances from ``origin`` to each point, in input order."""
    ox, oy = origin.x, origin.y
    hypot = math.hypot
    return [hypot(ox - p.x, oy - p.y) for p in points]
