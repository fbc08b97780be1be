"""The spatial topology index: cached positions + grid-backed neighbours.

Every layer of the simulator asks the same two questions in its innermost
loop — *where is node i now?* and *who is within range of node i now?*.
The seed implementation answered both by brute force: every
``Network.neighbors()`` call re-evaluated every node's mobility model and
scanned all n terminals (O(n²) per MAC transmission).  The
:class:`TopologyIndex` replaces that hot path with:

* **Drift-bounded candidate lists** (Verlet lists with a skin) — when
  every trajectory declares a speed bound, one *anchor* snapshot serves
  every neighbour query while ``2 * v_max * |t - t_anchor|`` stays below
  the skin.  Each node's list holds the nodes within ``radius + skin`` of
  it at the anchor; a query evaluates only those candidates at ``t``.
  Answers are exactly the grid scan's.
* **Snapshots** — positions sampled from the mobility models at one
  instant (the exact query time when ``quantum == 0``, the default) and
  shared by every consumer at that instant: anchors, bulk maps, channel
  gain arrays, and the per-instant path for trajectories with no bound.
* **A uniform spatial hash grid** — nodes are binned into cells of
  ``cell_size`` metres (default: the neighbour radius), so a radius query
  inspects only the 3x3-ish cell neighbourhood instead of all nodes.
* **Incremental neighbour-set maintenance** — each snapshot's cell
  buckets are derived copy-on-write from the previous snapshot's: only
  nodes that crossed a cell boundary move buckets, everything else is
  shared.

Staleness contract: with ``quantum == 0`` every answer is exact.  With
``quantum > 0`` positions are frozen at the start of each quantum, so any
position/neighbour answer can be stale by up to ``quantum`` seconds of
node movement (at most ``quantum * max_speed`` metres).  See
docs/ARCHITECTURE.md.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError, TopologyError
from repro.geometry.field import Field
from repro.geometry.grid import Cell, UniformGrid
from repro.geometry.vector import Vec2, vec2_of
from repro.mobility.base import DRIFT_MARGIN_M

__all__ = ["TopologyIndex"]

PositionFn = Callable[[float], Vec2]

#: Candidate-list skin as a fraction of the neighbour radius.  A thicker
#: skin keeps an anchor valid for longer but puts more candidates in
#: every list.  Skins of 0.1, 0.25 and 0.5 of the radius took 10.3, 10.3
#: and 10.5 CPU-s on the n = 50 paper cell and 4.5, 4.6 and 4.8 on the
#: n = 200 storm (perfbench, seed 1).
_SKIN_FRACTION = 0.1
#: Drift the anchor's reuse test keeps in reserve (metres): both nodes'
#: ``DRIFT_MARGIN_M`` plus the rounding of the two distance tests.
_SKIN_RESERVE_M = 4.0 * DRIFT_MARGIN_M


class _Snapshot:
    """Positions and cell buckets at one sampled instant.

    ``candidates`` memoises, per ``(cell, reach)``, the flattened bucket
    concatenation of the cell's ``(2*reach + 1)²`` neighbourhood — every
    query from the same cell at the same epoch shares one list.

    ``coords``/``slot_of`` are the array view used by the batched
    queries: an (n, 2) float array of every position plus the id -> row
    mapping (``slot_of is None`` flags the dense fast path where ids
    0..n-1 index ``coords`` directly).  A dict snapshot builds the array
    only once it has served about a full field's worth of batched
    gathers (``gathered``).

    Snapshots come in two flavours.  *Array* snapshots (:meth:`from_arrays`,
    built whenever node ids are dense, the simulator's case) carry
    ``coords`` plus plain-list ``xl``/``yl`` columns and a ``cell_codes``
    array for incremental bucket diffing; their ``positions`` dict is a
    lazy property materialised only if a cold path still asks for it —
    the hot queries read the columns directly.  *Dict* snapshots (sparse
    ids) carry the ``positions`` dict eagerly and a ``cell_of`` map.
    """

    __slots__ = (
        "time",
        "_positions",
        "cells",
        "cell_of",
        "candidates",
        "coords",
        "slot_of",
        "gathered",
        "xl",
        "yl",
        "cell_codes",
    )

    def __init__(
        self,
        time: float,
        positions: Optional[Dict[int, Vec2]],
        cells: Dict[Cell, List[int]],
        cell_of: Optional[Dict[int, Cell]],
    ) -> None:
        self.time = time
        self._positions = positions
        self.cells = cells
        self.cell_of = cell_of
        self.candidates: Dict[Tuple[int, int, int], List[int]] = {}
        self.coords: Optional[np.ndarray] = None
        self.slot_of: Optional[Dict[int, int]] = None
        self.gathered = 0
        self.xl: Optional[List[float]] = None
        self.yl: Optional[List[float]] = None
        self.cell_codes: Optional[np.ndarray] = None

    @classmethod
    def from_arrays(
        cls,
        time: float,
        coords: np.ndarray,
        xl: List[float],
        yl: List[float],
        cells: Dict[Cell, List[int]],
        cell_codes: np.ndarray,
    ) -> "_Snapshot":
        """Build an array snapshot (dense ids 0..n-1 index every column)."""
        snap = cls(time, None, cells, None)
        snap.coords = coords
        snap.xl = xl
        snap.yl = yl
        snap.cell_codes = cell_codes
        return snap

    @property
    def positions(self) -> Dict[int, Vec2]:
        """The id -> Vec2 dict (materialised on demand for array snapshots)."""
        positions = self._positions
        if positions is None:
            positions = {
                i: Vec2(x, y) for i, (x, y) in enumerate(zip(self.xl, self.yl))
            }
            self._positions = positions
        return positions

    def coords_array(self) -> np.ndarray:
        """The (n, 2) coordinate array (built on first batched query)."""
        coords = self.coords
        if coords is None:
            positions = self.positions
            n = len(positions)
            if n == 0:
                coords = np.empty((0, 2))
            else:
                coords = np.array(list(positions.values()))
                ids = np.fromiter(positions.keys(), dtype=np.intp, count=n)
                if not bool((ids == np.arange(n, dtype=np.intp)).all()):
                    self.slot_of = {nid: i for i, nid in enumerate(positions)}
            self.coords = coords
        return coords


class TopologyIndex:
    """Grid-backed, epoch-cached topology queries over a set of nodes.

    Args:
        field: the simulation field (grid extent).
        radius: default neighbour radius in metres (the decode range).
        cell_size: grid cell edge; defaults to ``radius`` (falling back to
            the field's larger side when ``radius == 0``).
        quantum: position-sampling time quantum in seconds.  0 (default)
            samples at exact query times; > 0 snaps query times down to
            multiples of ``quantum`` (positions may then be stale by up to
            one quantum).
    """

    def __init__(
        self,
        field: Field,
        radius: float,
        cell_size: Optional[float] = None,
        quantum: float = 0.0,
    ) -> None:
        if radius < 0:
            raise ConfigurationError(f"neighbour radius must be >= 0, got {radius}")
        if quantum < 0:
            raise ConfigurationError(f"position quantum must be >= 0, got {quantum}")
        self.field = field
        self.radius = float(radius)
        if cell_size is None:
            cell_size = radius if radius > 0 else max(field.width, field.height)
        self.grid = UniformGrid(field.width, field.height, cell_size)
        self._skin = _SKIN_FRACTION * self.radius
        self.quantum = float(quantum)
        self._position_fns: Dict[int, PositionFn] = {}
        # Inactive (failed) nodes: still tracked — point queries must keep
        # answering for in-flight transmissions — but excluded from every
        # set query (cell buckets, neighbour scans, neighbour maps).
        self._inactive: set = set()
        # Per-node speed bounds (None: unbounded) and the anchor reuse
        # horizon they imply (seconds; None: no candidate lists), derived
        # on the first query after a membership change.
        self._speed_bounds: Dict[int, Optional[float]] = {}
        self._horizon: Optional[float] = None
        self._horizon_stale = True
        self._latest: Optional[_Snapshot] = None  # the most recent snapshot
        # Drift-bounded candidate lists: the anchor snapshot and, per node,
        # the ids within radius + skin of it there (built on first query).
        self._anchor: Optional[_Snapshot] = None
        self._lists: Dict[int, List[int]] = {}
        self._ids_dense: Optional[bool] = None  # cached; None = unknown
        #: Diagnostics: full snapshot builds and incremental bucket moves.
        self.snapshots_built = 0
        self.bucket_moves = 0

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def add(
        self, node_id: int, position_fn: PositionFn, speed_bound: Optional[float] = None
    ) -> None:
        """Register a node's trajectory.  Invalidates cached snapshots.

        ``speed_bound`` is the trajectory's
        :attr:`~repro.mobility.base.MobilityModel.speed_bound`.  While
        every node has one, neighbour queries run on drift-bounded
        candidate lists; any None keeps the per-instant snapshot path.
        """
        if node_id in self._position_fns:
            raise TopologyError(f"node id {node_id} already indexed")
        if speed_bound is not None and not speed_bound >= 0:
            raise ConfigurationError(f"speed bound must be >= 0, got {speed_bound}")
        self._position_fns[node_id] = position_fn
        self._speed_bounds[node_id] = speed_bound
        self._membership_changed()

    def remove(self, node_id: int) -> None:
        """Forget a node.  Invalidates cached snapshots."""
        self._lookup(node_id)
        del self._position_fns[node_id]
        del self._speed_bounds[node_id]
        self._inactive.discard(node_id)
        self._membership_changed()

    def _membership_changed(self) -> None:
        self._invalidate()
        self._ids_dense = None
        self._horizon_stale = True

    def _invalidate(self) -> None:
        """Drop every cached snapshot, the anchor and its lists."""
        self._latest = None
        self._anchor = None
        self._lists = {}

    def set_active(self, node_id: int, active: bool) -> None:
        """Mark a node active/inactive for set queries (fault injection).

        An inactive node keeps its trajectory — :meth:`position`,
        :meth:`distances_from` and friends still answer, so channel math
        for transmissions already in flight stays well-defined — but it
        vanishes from cell buckets: :meth:`neighbors`,
        :meth:`nodes_within` and :meth:`neighbor_map` no longer see it.
        Transitions are rare (fault events), so cached snapshots are
        simply invalidated rather than diffed.
        """
        self._lookup(node_id)
        if active:
            if node_id not in self._inactive:
                return
            self._inactive.discard(node_id)
        else:
            if node_id in self._inactive:
                return
            self._inactive.add(node_id)
        self._invalidate()

    def is_active(self, node_id: int) -> bool:
        """True unless ``node_id`` was deactivated via :meth:`set_active`."""
        return node_id not in self._inactive

    def __len__(self) -> int:
        return len(self._position_fns)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._position_fns

    def _lookup(self, node_id: int) -> PositionFn:
        try:
            return self._position_fns[node_id]
        except KeyError:
            raise TopologyError(f"unknown node id {node_id}") from None

    # ------------------------------------------------------------------
    # Time quantisation
    # ------------------------------------------------------------------
    def snap(self, t: float) -> float:
        """The epoch time ``t`` maps to (identity when ``quantum == 0``)."""
        if self.quantum <= 0.0:
            return t
        return math.floor(t / self.quantum) * self.quantum

    # ------------------------------------------------------------------
    # Point queries (never force a snapshot build)
    # ------------------------------------------------------------------
    def position(self, node_id: int, t: float) -> Vec2:
        """Position of ``node_id`` at ``t`` (epoch-cached when available).

        Uses the cached snapshot for ``snap(t)`` if one exists; otherwise
        evaluates the node's trajectory directly — a pairwise channel or
        carrier-sense probe at an off-epoch instant must not trigger an
        O(n) resample of the whole field.  The channel calls this for both
        ends of every sampled link, so it is written as one frame: ``snap``
        and ``_lookup`` are inlined.
        """
        quantum = self.quantum
        if quantum > 0.0:
            t = math.floor(t / quantum) * quantum
        snapshot = self._latest
        if snapshot is not None and snapshot.time == t:
            xl = snapshot.xl
            if xl is not None:
                if 0 <= node_id < len(xl):
                    return vec2_of((xl[node_id], snapshot.yl[node_id]))
                raise TopologyError(f"unknown node id {node_id}")
            try:
                return snapshot.positions[node_id]
            except KeyError:
                raise TopologyError(f"unknown node id {node_id}") from None
        try:
            fn = self._position_fns[node_id]
        except KeyError:
            raise TopologyError(f"unknown node id {node_id}") from None
        return fn(t)

    def distance(self, a: int, b: int, t: float) -> float:
        """Distance in metres between ``a`` and ``b`` at ``t``."""
        return self.position(a, t).distance_to(self.position(b, t))

    def within(self, a: int, b: int, t: float, range_m: float) -> bool:
        """True if distinct nodes ``a`` and ``b`` are within ``range_m``."""
        if a == b:
            return False
        return self.distance(a, b, t) <= range_m

    # ------------------------------------------------------------------
    # Batched point queries (one array pipeline per candidate set)
    # ------------------------------------------------------------------
    def positions_of(self, ids: Sequence[int], t: float) -> List[Vec2]:
        """Positions of every node in ``ids`` at ``t`` (epoch-cached when
        a snapshot for ``snap(t)`` already exists; never builds one)."""
        ts = self.snap(t)
        snapshot = self._latest
        if snapshot is not None and snapshot.time != ts:
            snapshot = None
        try:
            if snapshot is not None:
                xl = snapshot.xl
                if xl is not None:
                    yl = snapshot.yl
                    if any(nid < 0 or nid >= len(xl) for nid in ids):
                        raise TopologyError(f"unknown node id in {list(ids)!r}")
                    return [Vec2(xl[nid], yl[nid]) for nid in ids]
                positions = snapshot.positions
                return [positions[nid] for nid in ids]
            fns = self._position_fns
            return [fns[nid](ts) for nid in ids]
        except KeyError as exc:
            raise TopologyError(f"unknown node id {exc.args[0]}") from None

    def distances_from(self, node_id: int, others: Sequence[int], t: float) -> np.ndarray:
        """Distances (metres) from ``node_id`` to every node in ``others``.

        The batched core of the vectorized channel pipeline: one origin
        fetch, one coordinate gather, one ``hypot`` over the whole
        candidate set.  When a snapshot for ``snap(t)`` exists its cached
        coordinate array is fancy-indexed directly (node ids are dense in
        practice, so the id list *is* the index); otherwise the involved
        trajectories are evaluated pointwise, never forcing a snapshot.
        """
        origin = self.position(node_id, t)
        if not others:
            return np.empty(0)
        ts = self.snap(t)
        snapshot = self._latest
        if snapshot is not None and snapshot.time != ts:
            snapshot = None
        if snapshot is not None and snapshot.coords is None:
            snapshot.gathered += len(others)
            if snapshot.gathered >= len(snapshot.positions):
                snapshot.coords_array()  # heavy reuse: amortise into one array
        if snapshot is not None and snapshot.coords is not None:
            coords = snapshot.coords
            slot_of = snapshot.slot_of
            try:
                if slot_of is None:
                    idx = np.asarray(others, dtype=np.intp)
                    if idx.size and (idx.max() >= coords.shape[0] or idx.min() < 0):
                        raise TopologyError(f"unknown node id in {others!r}")
                else:
                    idx = np.fromiter(
                        (slot_of[b] for b in others), dtype=np.intp, count=len(others)
                    )
            except KeyError as exc:
                raise TopologyError(f"unknown node id {exc.args[0]}") from None
            pts = coords[idx]
            dx = pts[:, 0] - origin.x
            dy = pts[:, 1] - origin.y
        else:
            flat: List[float] = []
            append = flat.append
            if snapshot is not None:
                positions = snapshot.positions
                try:
                    for b in others:
                        p = positions[b]
                        append(p.x)
                        append(p.y)
                except KeyError:
                    raise TopologyError(f"unknown node id {b}") from None
            else:
                fns = self._position_fns
                try:
                    for b in others:
                        p = fns[b](ts)
                        append(p.x)
                        append(p.y)
                except KeyError:
                    raise TopologyError(f"unknown node id {b}") from None
            pts = np.array(flat).reshape(-1, 2)
            dx = pts[:, 0] - origin.x
            dy = pts[:, 1] - origin.y
        return np.hypot(dx, dy)

    def which_within(
        self, node_id: int, others: Sequence[int], t: float, range_m: float
    ) -> np.ndarray:
        """Boolean mask over ``others``: within ``range_m`` of ``node_id``
        (``node_id`` itself, if present, is masked out)."""
        mask = self.distances_from(node_id, others, t) <= range_m
        for i, nid in enumerate(others):
            if nid == node_id:
                mask[i] = False
        return mask

    def any_within(
        self, node_id: int, others: Sequence[int], t: float, range_m: float
    ) -> bool:
        """True if any node in ``others`` is within ``range_m`` of
        ``node_id`` (cheap scalar loop for tiny candidate sets)."""
        if len(others) <= 3:
            within = self.within
            return any(within(nid, node_id, t, range_m) for nid in others)
        return bool(self.which_within(node_id, others, t, range_m).any())

    # ------------------------------------------------------------------
    # Set queries (grid-backed: candidate lists or a snapshot)
    # ------------------------------------------------------------------
    def neighbors(self, node_id: int, t: float, radius: Optional[float] = None) -> List[int]:
        """Ids within ``radius`` (default: the index radius), ascending.

        A snapshot cached for ``snap(t)`` is scanned directly.  Otherwise,
        while every trajectory has a speed bound and ``radius`` is at most
        the index radius, the query evaluates only the node's candidate
        list at ``t``; failing both, it builds a snapshot at ``snap(t)``.
        Every path applies the same distance test to the same positions,
        so all three return the same ids.
        """
        r = self.radius if radius is None else radius
        ts = self.snap(t)
        snapshot = self._latest
        if snapshot is None or snapshot.time != ts:
            anchor = self._anchor_for(ts) if r <= self.radius else None
            if anchor is None:
                snapshot = self._snapshot(ts)
            elif anchor.time == ts:
                snapshot = anchor
            else:
                return self._from_list(anchor, node_id, ts, r)
        return self._scan_node(snapshot, node_id, r)

    def _scan_node(self, snapshot: _Snapshot, node_id: int, r: float) -> List[int]:
        """Grid scan around ``node_id``'s position in ``snapshot``."""
        xl = snapshot.xl
        if xl is not None:
            if not 0 <= node_id < len(xl):
                raise TopologyError(f"unknown node id {node_id}")
            return self._scan(snapshot, xl[node_id], snapshot.yl[node_id], r, node_id)
        try:
            origin = snapshot.positions[node_id]
        except KeyError:
            raise TopologyError(f"unknown node id {node_id}") from None
        return self._scan(snapshot, origin.x, origin.y, r, node_id)

    def _anchor_for(self, ts: float) -> Optional[_Snapshot]:
        """The anchor snapshot whose candidate lists are valid at ``ts``.

        Re-anchors at ``ts`` (one snapshot build) once the current anchor
        is more than the drift horizon away; None when some trajectory
        has no speed bound.
        """
        if self._horizon_stale:
            self._horizon = self._drift_horizon()
            self._horizon_stale = False
        horizon = self._horizon
        if horizon is None:
            return None
        anchor = self._anchor
        if anchor is None or abs(ts - anchor.time) > horizon:
            anchor = self._anchor = self._snapshot(ts)
            self._lists = {}
        return anchor

    def _drift_horizon(self) -> Optional[float]:
        """How long (s) an anchor's lists stay complete, or None.

        Two nodes within ``radius`` at ``t`` were within ``radius + skin``
        at the anchor while each has drifted at most half the skin:
        ``2 * v_max * |t - t_anchor| <= skin``, less a reserve for the
        speed-bound margin and rounding.
        """
        bounds = list(self._speed_bounds.values())
        if None in bounds:
            return None
        v_max = max(bounds, default=0.0)
        if v_max == 0.0:
            return math.inf
        budget = self._skin - _SKIN_RESERVE_M
        return budget / (2.0 * v_max) if budget > 0.0 else None

    def _from_list(self, anchor: _Snapshot, node_id: int, ts: float, r: float) -> List[int]:
        """``node_id``'s candidates (ascending) that are within ``r`` at ``ts``."""
        cand = self._lists.get(node_id)
        if cand is None:
            cand = self._scan_node(anchor, node_id, self.radius + self._skin)
            self._lists[node_id] = cand
        fns = self._position_fns
        ox, oy = fns[node_id](ts)
        hyp = math.hypot
        out: List[int] = []
        append = out.append
        for nid in cand:
            p = fns[nid](ts)
            if hyp(ox - p[0], oy - p[1]) <= r:
                append(nid)
        return out

    def nodes_within(self, point: Vec2, t: float, radius: float) -> List[int]:
        """Ids within ``radius`` metres of an arbitrary point, ascending."""
        return self._scan(self._snapshot(t), point.x, point.y, radius, -1)

    def _scan(
        self, snapshot: _Snapshot, ox: float, oy: float, r: float, exclude: int
    ) -> List[int]:
        """The query hot path: scan the cell neighbourhood of ``(ox, oy)``.

        Coordinates are clamped onto the grid (1-Lipschitz per axis), so a
        neighbourhood of ``ceil(r / cell_size)`` cells around the origin's
        cell always covers every point within ``r`` — including origins and
        nodes sitting on cell boundaries or outside the field.
        """
        grid = self.grid
        col, row = grid._col(ox), grid._row(oy)
        reach = grid.reach_for(r)
        key = (col, row, reach)
        cand = snapshot.candidates.get(key)
        if cand is None:
            cells = snapshot.cells
            cand = []
            for block_cell in grid.cell_block((col, row), reach):
                bucket = cells.get(block_cell)
                if bucket:
                    cand.extend(bucket)
            snapshot.candidates[key] = cand
        hyp = math.hypot
        out: List[int] = []
        append = out.append
        xl = snapshot.xl
        if xl is not None:
            # Array snapshot: the plain-list columns avoid per-node Vec2
            # construction in the innermost loop.
            yl = snapshot.yl
            for nid in cand:
                if nid == exclude:
                    continue
                if hyp(ox - xl[nid], oy - yl[nid]) <= r:
                    append(nid)
            out.sort()
            return out
        positions = snapshot.positions
        for nid in cand:
            if nid == exclude:
                continue
            p = positions[nid]
            if hyp(ox - p[0], oy - p[1]) <= r:
                append(nid)
        out.sort()
        return out

    def neighbor_map(self, t: float, radius: Optional[float] = None) -> Dict[int, List[int]]:
        """Full ``{id: neighbours}`` map at ``t`` in one pass over the grid.

        Inactive (failed) nodes are omitted from the keys as well as from
        every neighbour list — a dead node has no adjacency.
        """
        r = self.radius if radius is None else radius
        snapshot = self._snapshot(t)
        inactive = self._inactive
        return {
            nid: self._scan_node(snapshot, nid, r)
            for nid in sorted(self._position_fns)
            if nid not in inactive
        }

    def coords_view(self, t: float) -> Tuple[np.ndarray, Optional[Dict[int, int]]]:
        """The epoch's positions as ``(coords, slot_of)`` arrays.

        ``coords`` is an (n, 2) float array; ``slot_of`` maps node id to
        row, or is None when ids are dense (``coords[id]`` directly).
        Builds the snapshot — this is a bulk query by contract; the
        network-wide channel scans amortise it over every pair.
        """
        snapshot = self._snapshot(t)
        return snapshot.coords_array(), snapshot.slot_of

    def positions(self, t: float) -> Dict[int, Vec2]:
        """All cached positions at ``snap(t)`` (builds the snapshot)."""
        return dict(self._snapshot(t).positions)

    # ------------------------------------------------------------------
    # Snapshot maintenance
    # ------------------------------------------------------------------
    def _snapshot(self, t: float) -> _Snapshot:
        """The snapshot for ``snap(t)``: the latest one, or a new build."""
        ts = self.snap(t)
        latest = self._latest
        if latest is None or latest.time != ts:
            latest = self._latest = self._build(ts)
        return latest

    def _build(self, ts: float) -> _Snapshot:
        """Sample every trajectory once; rebucket only nodes that moved cells."""
        if self._ids_dense is None:
            self._ids_dense = all(nid == i for i, nid in enumerate(self._position_fns))
        if self._ids_dense:
            return self._build_array(ts)
        self.snapshots_built += 1
        base = self._latest
        positions: Dict[int, Vec2] = {}
        cell_of_point = self.grid.cell_of
        inactive = self._inactive
        if base is None:
            cells: Dict[Cell, List[int]] = {}
            cell_of: Dict[int, Cell] = {}
            for nid, fn in self._position_fns.items():
                p = fn(ts)
                positions[nid] = p
                if nid in inactive:
                    continue  # sampled (point queries) but never bucketed
                c = cell_of_point(p)
                cell_of[nid] = c
                bucket = cells.get(c)
                if bucket is None:
                    cells[c] = [nid]
                else:
                    bucket.append(nid)
            return _Snapshot(ts, positions, cells, cell_of)
        # Copy-on-write from the latest snapshot: bucket lists are shared
        # until a node crosses into or out of them.  Activity changes drop
        # the latest snapshot, so base and this build always agree on the
        # inactive set: an inactive node is in neither bucket map.
        cells = dict(base.cells)
        cell_of = dict(base.cell_of)
        touched: set = set()
        for nid, fn in self._position_fns.items():
            p = fn(ts)
            positions[nid] = p
            if nid in inactive:
                continue
            c = cell_of_point(p)
            old = cell_of[nid]
            if c == old:
                continue
            self.bucket_moves += 1
            self._mutable_bucket(cells, touched, old).remove(nid)
            self._mutable_bucket(cells, touched, c).append(nid)
            cell_of[nid] = c
        return _Snapshot(ts, positions, cells, cell_of)

    def _build_array(self, ts: float) -> _Snapshot:
        """Positions as columns + vectorized cell binning (dense ids).

        Positions come from one ``position()`` call per node.  Cell
        indices replicate ``UniformGrid._col``/``_row`` exactly (clamp,
        divide, truncate, clamp to the last cell — truncation equals floor
        for the non-negative clamped values), so both flavours bucket
        identically.  Against the latest snapshot only nodes whose packed
        cell code changed move buckets, copy-on-write.
        """
        self.snapshots_built += 1
        n = len(self._position_fns)
        xl = []
        yl = []
        for fn in self._position_fns.values():
            x, y = fn(ts)
            xl.append(x)
            yl.append(y)
        coords = np.column_stack((xl, yl))
        grid = self.grid
        cs = grid.cell_size
        col = np.minimum(
            (np.clip(coords[:, 0], 0.0, grid.width) / cs).astype(np.intp),
            grid.cols - 1,
        )
        row = np.minimum(
            (np.clip(coords[:, 1], 0.0, grid.height) / cs).astype(np.intp),
            grid.rows - 1,
        )
        codes = col * grid.rows + row
        if self._inactive:
            # Inactive nodes carry the -1 sentinel: never bucketed, and
            # (since activity changes drop the latest snapshot) never part
            # of an incremental diff either.
            codes[list(self._inactive)] = -1
        base = self._latest
        if base is None or base.cell_codes is None or base.cell_codes.shape[0] != n:
            cells: Dict[Cell, List[int]] = {}
            cl = col.tolist()
            rl = row.tolist()
            codes_list = codes.tolist()
            for nid in range(n):
                if codes_list[nid] < 0:
                    continue
                c = (cl[nid], rl[nid])
                bucket = cells.get(c)
                if bucket is None:
                    cells[c] = [nid]
                else:
                    bucket.append(nid)
            return _Snapshot.from_arrays(ts, coords, xl, yl, cells, codes)
        cells = dict(base.cells)
        touched: set = set()
        moved = np.nonzero(codes != base.cell_codes)[0]
        if moved.size:
            base_col = base.cell_codes // grid.rows
            base_row = base.cell_codes - base_col * grid.rows
            for nid in moved.tolist():
                self.bucket_moves += 1
                old = (int(base_col[nid]), int(base_row[nid]))
                new = (int(col[nid]), int(row[nid]))
                self._mutable_bucket(cells, touched, old).remove(nid)
                self._mutable_bucket(cells, touched, new).append(nid)
        return _Snapshot.from_arrays(ts, coords, xl, yl, cells, codes)

    @staticmethod
    def _mutable_bucket(cells: Dict[Cell, List[int]], touched: set, cell: Cell) -> List[int]:
        if cell not in touched:
            cells[cell] = list(cells.get(cell, ()))
            touched.add(cell)
        return cells[cell]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"TopologyIndex(nodes={len(self._position_fns)}, {self.grid!r}, "
            f"quantum={self.quantum:g}, anchored={self._anchor is not None})"
        )
