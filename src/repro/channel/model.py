"""The per-pair channel store queried by the MAC and routing layers.

:class:`ChannelModel` combines the distance-dependent mean SNR with
per-pair fading to produce each pair's instantaneous SNR, CSI class,
throughput and CSI hop distance.  Channels are symmetric —
``state(a, b, t) == state(b, a, t)`` — matching the paper's implicit
assumption that the CSI measured on a received packet predicts the
quality of the reverse transmission.

The fading state lives in one :class:`~repro.channel.bank.FadingBank`:
contiguous numpy AR(1) state arrays, one row per active pair, advanced
lazily with counter-based per-pair substreams.  Neighbour-set queries
(:meth:`ChannelModel.states`, :meth:`ChannelModel.csi_hop_distances`)
past :data:`SMALL_SET_CUTOFF` run as one array pipeline — batched
distances → vectorized path loss → bank sample → ``searchsorted``
classification — so the Python cost per query is O(1) in the neighbour
count.  The bank matches the per-pair
:class:`~repro.channel.fading.CompositeFadingProcess` in distribution
(pinned by ``tests/test_channel_vectorized.py``, which keeps that process
as its oracle).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.channel.abicm import AbicmScheme
from repro.channel.bank import FadingBank
from repro.channel.csi import (
    CLASS_BY_INDEX,
    HOP_DISTANCE_BY_INDEX,
    ChannelClass,
    CsiThresholds,
)
from repro.channel.propagation import PathLossModel
from repro.errors import ConfigurationError
from repro.geometry.vector import Vec2
from repro.sim.rng import RandomStreams, derive_seed

if TYPE_CHECKING:  # pragma: no cover
    from repro.topology import TopologyIndex

__all__ = ["ChannelModel", "ChannelConfig"]

PositionFn = Callable[[int, float], Vec2]

#: Below this neighbour count a batched query loops over the bank's
#: scalar fast path instead: numpy's per-call dispatch overhead beats the
#: work it saves on tiny sets (the crossover sits around 15-25 pairs).
#: Both paths are deterministic and consume the same per-pair counters,
#: but they are not bit-identical: the array pipeline's ``log10``,
#: ``exp`` and Box-Muller ops round differently in the last bits, so a
#: sample near a class threshold can land in the other class.
SMALL_SET_CUTOFF = 16


@dataclass(frozen=True)
class ChannelConfig:
    """All tunables of the physical channel in one place."""

    path_loss: PathLossModel = field(default_factory=PathLossModel)
    thresholds: CsiThresholds = field(default_factory=CsiThresholds)
    abicm: AbicmScheme = field(default_factory=AbicmScheme)
    shadow_sigma_db: float = 6.0
    shadow_tau_s: float = 10.0
    fast_sigma_db: float = 3.0
    fast_tau_s: float = 0.5

    def __post_init__(self) -> None:
        if self.shadow_sigma_db < 0 or self.fast_sigma_db < 0:
            raise ConfigurationError("fading sigmas must be >= 0")
        if self.shadow_tau_s <= 0 or self.fast_tau_s <= 0:
            raise ConfigurationError("fading coherence times must be positive")


class ChannelModel:
    """Symmetric, lazily-instantiated channels between node pairs.

    Args:
        config: channel tunables.
        streams: random stream factory; the fading bank derives its
            counter-based substream root from its master seed (stream
            ``"channel/bank"``).
        position_fn: callback ``(node_id, t) -> Vec2`` supplying exact node
            positions (the network layer provides this).
        topology: optional :class:`~repro.topology.TopologyIndex`; when
            attached, neighbour-set queries gather candidate positions and
            distances through its batched array path.
    """

    def __init__(
        self,
        config: ChannelConfig,
        streams: RandomStreams,
        position_fn: PositionFn,
        topology: Optional["TopologyIndex"] = None,
    ) -> None:
        self._config = config
        self._position_fn = position_fn
        self._topology = topology
        self._bank = FadingBank(
            derive_seed(streams.seed, "channel/bank"),
            shadow_sigma_db=config.shadow_sigma_db,
            shadow_tau_s=config.shadow_tau_s,
            fast_sigma_db=config.fast_sigma_db,
            fast_tau_s=config.fast_tau_s,
        )
        # Bound once: the single-pair body runs for every sampled link.
        self._sample_pair = self._bank.sample_pair
        self._mean_snr_db = config.path_loss.mean_snr_db
        self._classify = config.thresholds.classify
        # Memoised per-class lookups: IntEnum (or raw class value) indexes
        # a tuple, replacing dict hashing on the per-sample fast path.
        self._hop_by_class: Tuple[float, ...] = HOP_DISTANCE_BY_INDEX
        self._hop_array = np.array(HOP_DISTANCE_BY_INDEX)
        self._rate_by_class: Tuple[float, ...] = tuple(
            config.abicm.throughput(c) for c in sorted(ChannelClass)
        )
        #: Aggregate diagnostic: SNR samples taken (counted per batch, not
        #: inside the per-pair loop).
        self.samples_taken = 0

    @property
    def config(self) -> ChannelConfig:
        """The channel configuration in force."""
        return self._config

    @property
    def tx_range(self) -> float:
        """Hard transmission range in metres."""
        return self._config.path_loss.tx_range

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    def distance(self, a: int, b: int, t: float) -> float:
        """Distance between nodes ``a`` and ``b`` at time ``t`` (metres)."""
        return self._position_fn(a, t).distance_to(self._position_fn(b, t))

    def in_range(self, a: int, b: int, t: float) -> bool:
        """True if ``a`` and ``b`` are within transmission range at ``t``."""
        if a == b:
            return False
        return self._config.path_loss.in_range(self.distance(a, b, t))

    def within(self, a: int, b: int, t: float, range_m: float) -> bool:
        """True if ``a`` and ``b`` are within ``range_m`` metres at ``t``.

        Used by the MAC for carrier sensing and interference, whose reach
        exceeds the decode range (a transmitter too far away to decode can
        still raise the sensed energy and corrupt receptions).
        """
        if a == b:
            return False
        return self.distance(a, b, t) <= range_m

    # ------------------------------------------------------------------
    # Channel state (single pair)
    # ------------------------------------------------------------------
    def snr_db(self, a: int, b: int, t: float) -> float:
        """Instantaneous SNR (dB) of the a<->b channel at time ``t``."""
        self.samples_taken += 1
        mean = self._mean_snr_db(self.distance(a, b, t))
        return mean + self._sample_pair(a, b, t)

    def _pair_state(self, a: int, b: int, t: float) -> ChannelClass:
        """The single-pair body every per-link query shares: two position
        lookups, the distance, the mean SNR, one fading draw, classify."""
        pos = self._position_fn
        pa = pos(a, t)
        pb = pos(b, t)
        self.samples_taken += 1
        mean = self._mean_snr_db(math.hypot(pa[0] - pb[0], pa[1] - pb[1]))
        return self._classify(mean + self._sample_pair(a, b, t))

    def state(self, a: int, b: int, t: float) -> ChannelClass:
        """CSI class of the a<->b channel at time ``t``."""
        return self._pair_state(a, b, t)

    def throughput_bps(self, a: int, b: int, t: float) -> float:
        """Effective throughput (bps) after adaptive coding/modulation."""
        return self._rate_by_class[self._pair_state(a, b, t)]

    def csi_hop_distance(self, a: int, b: int, t: float) -> float:
        """CSI-based hop distance of the a<->b link at time ``t``."""
        return self._hop_by_class[self._pair_state(a, b, t)]

    def link_metrics(self, a: int, b: int, t: float) -> Tuple[float, float]:
        """One channel sample serving both routing accumulators:
        ``(csi_hop_distance, throughput_bps)`` of the a<->b link."""
        cls = self._pair_state(a, b, t)
        return self._hop_by_class[cls], self._rate_by_class[cls]

    def transmission_time(self, a: int, b: int, t: float, bits: int) -> float:
        """Seconds to transmit ``bits`` over the a<->b data channel at ``t``."""
        return self._config.abicm.transmission_time(self._pair_state(a, b, t), bits)

    def link_hop_distances(self, a: int, others: Sequence[int], t: float) -> List[float]:
        """CSI hop distances of the a<->b links for ``b`` in ``others``,
        in order: ``[self.csi_hop_distance(a, b, t) for b in others]``.

        Every link takes the single-pair formula, whatever the set size,
        so each value is bit-identical to a per-pair query; only ``a``'s
        position is fetched once.  This is the receiver side of one
        broadcast: every receiver samples the link the packet arrived on.
        """
        hop = self._hop_by_class
        return [hop[s] for s in self._pair_states_from(a, others, t)]

    # ------------------------------------------------------------------
    # Batched lookups (one array pipeline for a whole neighbour set)
    # ------------------------------------------------------------------
    def _batch_snr(self, a: int, others: Sequence[int], t: float) -> np.ndarray:
        """Vectorized fading pipeline: distances → mean SNR → bank sample."""
        if self._topology is not None:
            d = self._topology.distances_from(a, others, t)
        else:
            origin = self._position_fn(a, t)
            pfn = self._position_fn
            d = np.fromiter(
                (origin.distance_to(pfn(b, t)) for b in others),
                dtype=float,
                count=len(others),
            )
        snr = self._config.path_loss.mean_snr_db_array(d)
        snr += self._bank.sample_pairs(a, others, t)
        self.samples_taken += len(others)
        return snr

    def _pair_states_from(self, a: int, others: Sequence[int], t: float) -> List[ChannelClass]:
        """:meth:`_pair_state` of every a<->b pair, ``a`` fetched once."""
        if not others:
            return []
        pos = self._position_fn
        ax, ay = pos(a, t)
        mean = self._mean_snr_db
        classify = self._classify
        sample = self._sample_pair
        hypot = math.hypot
        out = []
        append = out.append
        for b in others:
            pb = pos(b, t)
            append(classify(mean(hypot(ax - pb[0], ay - pb[1])) + sample(a, b, t)))
        self.samples_taken += len(out)
        return out

    def states(self, a: int, others: Sequence[int], t: float) -> Dict[int, ChannelClass]:
        """CSI classes of every a<->b channel for ``b`` in ``others``.

        Equivalent to ``{b: self.state(a, b, t) for b in others}`` but,
        for sets past :data:`SMALL_SET_CUTOFF`, computed as one array
        pipeline — O(1) Python calls per query instead of O(neighbours)
        (tiny sets loop over the single-pair formula, which is cheaper
        than numpy dispatch).
        """
        if len(others) > SMALL_SET_CUTOFF:
            idx = self._config.thresholds.classify_indices(self._batch_snr(a, others, t))
            classes = CLASS_BY_INDEX
            return {b: classes[i] for b, i in zip(others, idx.tolist())}
        return dict(zip(others, self._pair_states_from(a, others, t)))

    def csi_hop_distances(self, a: int, others: Sequence[int], t: float) -> Dict[int, float]:
        """CSI hop distances of every a<->b link for ``b`` in ``others``."""
        if len(others) > SMALL_SET_CUTOFF:
            idx = self._config.thresholds.classify_indices(self._batch_snr(a, others, t))
            return dict(zip(others, self._hop_array[idx].tolist()))
        return dict(zip(others, self.link_hop_distances(a, others, t)))

    def csi_hop_map(
        self, adjacency: Dict[int, Sequence[int]], t: float
    ) -> Dict[int, Dict[int, float]]:
        """CSI hop distances of every link of a whole adjacency at ``t``.

        Equivalent to ``{a: self.csi_hop_distances(a, nbrs, t) for a, nbrs
        in adjacency.items()}`` but, with a topology index attached, the
        entire network scans as *one* flattened array pipeline: every
        (origin, neighbour) pair's distance, mean SNR, fading sample and
        class in single numpy passes.  Symmetric pairs appearing on both
        rows advance once and read the same sample, preserving
        ``state(a, b) == state(b, a)``.
        """
        if self._topology is None:
            return {
                a: self.csi_hop_distances(a, others, t) for a, others in adjacency.items()
            }
        coords, slot_of = self._topology.coords_view(t)
        rows_of = self._bank.rows
        row_parts = []
        a_slots: list = []
        counts: list = []
        b_flat: list = []
        for a, others in adjacency.items():
            if not others:
                continue
            a_slots.append(a if slot_of is None else slot_of[a])
            counts.append(len(others))
            b_flat.extend(others)
            row_parts.append(rows_of(a, others))
        if not row_parts:
            return {a: {} for a in adjacency}
        if slot_of is None:
            idx_b = np.asarray(b_flat, dtype=np.intp)
        else:
            idx_b = np.fromiter(
                (slot_of[b] for b in b_flat), dtype=np.intp, count=len(b_flat)
            )
        idx_a = np.repeat(np.asarray(a_slots, dtype=np.intp), counts)
        pa = coords[idx_a]
        pb = coords[idx_b]
        d = np.hypot(pb[:, 0] - pa[:, 0], pb[:, 1] - pa[:, 1])
        snr = self._config.path_loss.mean_snr_db_array(d)
        snr += self._bank.sample_rows(np.concatenate(row_parts), t)
        self.samples_taken += len(snr)
        hops = self._hop_array[self._config.thresholds.classify_indices(snr)].tolist()
        out: Dict[int, Dict[int, float]] = {}
        pos = 0
        for a, others in adjacency.items():
            n = len(others)
            out[a] = dict(zip(others, hops[pos : pos + n]))
            pos += n
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ChannelModel(pairs={self._bank.pair_count}, "
            f"samples={self.samples_taken})"
        )
