"""Tests for the vectorized channel pipeline (FadingBank + ChannelModel).

Four layers of guarantees:

* **Exact transitions** — given identical innovations, the bank applies
  the same AR(1) update as :class:`GaussMarkovProcess` (hypothesis
  property test, scalar and vectorized sampling paths).
* **Matched statistics** — the bank and the per-pair
  :class:`CompositeFadingProcess` oracle draw from different substream
  constructions, so their sample paths differ; the differential tests pin
  mean / variance / lag autocorrelation of both to the same theoretical
  values within CI bounds, and the class mix they visit to each other.
* **Determinism** — per-seed reproducibility, including batch-composition
  independence (a pair consumes the same draws whether sampled alone or
  inside a neighbour-set batch) and full-scenario byte-equality.
* **Pipeline equivalence** — batched (`states`, `csi_hop_distances`,
  `csi_hop_map`) and single-pair queries agree with each other and with
  the topology's batched geometry.
"""

from __future__ import annotations

import dataclasses
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channel.bank import FadingBank
from repro.channel.csi import ChannelClass
from repro.channel.fading import CompositeFadingProcess, GaussMarkovProcess
from repro.channel.model import ChannelConfig, ChannelModel
from repro.errors import ConfigurationError, SimulationError, TopologyError
from repro.geometry.field import Field
from repro.geometry.vector import Vec2
from repro.sim.rng import RandomStreams
from repro.topology import TopologyIndex


def make_positions(n, side=1000.0, seed=3):
    import random

    rnd = random.Random(seed)
    return {i: Vec2(rnd.uniform(0, side), rnd.uniform(0, side)) for i in range(n)}


def make_topology(positions, side=1000.0, radius=250.0):
    topo = TopologyIndex(Field(side, side), radius=radius)
    for nid, pos in positions.items():
        topo.add(nid, (lambda p: (lambda t: p))(pos))
    return topo


class _InnovationRng:
    """Feeds prescribed standard normals through the random.Random.gauss API."""

    def __init__(self, normals):
        self._it = iter(normals)

    def gauss(self, mu, sigma):
        return mu + sigma * next(self._it)


class TestExactTransition:
    """FadingBank applies GaussMarkovProcess's transition exactly."""

    @given(
        sigma=st.floats(min_value=0.1, max_value=12.0),
        tau=st.floats(min_value=0.05, max_value=20.0),
        steps=st.lists(st.floats(min_value=1e-4, max_value=30.0), min_size=1, max_size=12),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=60, deadline=None)
    def test_scalar_path_matches_gauss_markov(self, sigma, tau, steps, seed):
        bank = FadingBank(seed, shadow_sigma_db=sigma, shadow_tau_s=tau, fast_sigma_db=0.0)
        row = bank.row(0, 1)
        # Replay the bank's own counter-based innovations into the scalar
        # process: draw k feeds both at the same transition.
        key = bank._key_int[row]
        normals = [bank._draw_scalar(key, k)[0] for k in range(len(steps) + 1)]
        gm = GaussMarkovProcess(sigma, tau, _InnovationRng(normals))
        t = 0.0
        assert bank.sample_pair(0, 1, 0.0) == pytest.approx(gm.sample(0.0), rel=1e-12)
        for dt in steps:
            t += dt
            assert bank.sample_pair(0, 1, t) == pytest.approx(gm.sample(t), rel=1e-12, abs=1e-12)

    @given(
        sigma=st.floats(min_value=0.1, max_value=12.0),
        tau=st.floats(min_value=0.05, max_value=20.0),
        steps=st.lists(st.floats(min_value=1e-4, max_value=30.0), min_size=1, max_size=12),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=60, deadline=None)
    def test_vector_path_matches_gauss_markov(self, sigma, tau, steps, seed):
        bank = FadingBank(seed, shadow_sigma_db=sigma, shadow_tau_s=tau, fast_sigma_db=0.0)
        rows = bank.rows(0, [1])
        key = bank._key_int[int(rows[0])]
        normals = [bank._draw_scalar(key, k)[0] for k in range(len(steps) + 1)]
        gm = GaussMarkovProcess(sigma, tau, _InnovationRng(normals))
        t = 0.0
        for dt in steps:
            t += dt
            got = bank.sample_rows(rows, t)[0]
            assert got == pytest.approx(gm.sample(t), rel=1e-12, abs=1e-12)

    def test_backwards_sampling_rejected_like_scalar_process(self):
        bank = FadingBank(1)
        bank.sample_pair(0, 1, 5.0)
        with pytest.raises(SimulationError):
            bank.sample_pair(0, 1, 1.0)
        rows = bank.rows(0, [1, 2])
        bank.sample_rows(rows, 6.0)
        with pytest.raises(SimulationError):
            bank.sample_rows(rows, 2.0)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            FadingBank(1, shadow_sigma_db=-1.0)
        with pytest.raises(ConfigurationError):
            FadingBank(1, fast_tau_s=0.0)


class TestMatchedStatistics:
    """The bank and the per-pair fading process match in distribution
    (not samples)."""

    SIGMA_S, TAU_S = 4.0, 2.0
    SIGMA_F, TAU_F = 3.0, 0.4

    def _theory(self, dt):
        vs, vf = self.SIGMA_S**2, self.SIGMA_F**2
        rho = (vs * math.exp(-dt / self.TAU_S) + vf * math.exp(-dt / self.TAU_F)) / (vs + vf)
        return math.sqrt(vs + vf), rho

    def _series_stats(self, values, dt):
        arr = np.asarray(values)
        mean = arr.mean()
        std = arr.std()
        lag = np.corrcoef(arr[:-1], arr[1:])[0, 1]
        return mean, std, lag

    def _bank_series(self, seed, dt, n):
        bank = FadingBank(
            seed,
            shadow_sigma_db=self.SIGMA_S,
            shadow_tau_s=self.TAU_S,
            fast_sigma_db=self.SIGMA_F,
            fast_tau_s=self.TAU_F,
        )
        rows = bank.rows(0, [1])
        return [float(bank.sample_rows(rows, (i + 1) * dt)[0]) for i in range(n)]

    def _scalar_series(self, seed, dt, n):
        proc = CompositeFadingProcess(
            RandomStreams(seed).stream("channel/0-1"),
            shadow_sigma_db=self.SIGMA_S,
            shadow_tau_s=self.TAU_S,
            fast_sigma_db=self.SIGMA_F,
            fast_tau_s=self.TAU_F,
        )
        return [proc.sample((i + 1) * dt) for i in range(n)]

    def test_stationary_and_autocorrelation_match_theory_and_each_other(self):
        dt, n = 0.25, 60000
        std_theory, rho_theory = self._theory(dt)
        stats = {}
        for name, series in (
            ("bank", self._bank_series(17, dt, n)),
            ("scalar", self._scalar_series(17, dt, n)),
        ):
            mean, std, lag = self._series_stats(series, dt)
            # ~4-sigma CI for the mean of n strongly-correlated samples
            # (effective sample size reduced by (1+rho)/(1-rho)).
            n_eff = n * (1 - rho_theory) / (1 + rho_theory)
            assert abs(mean) < 4.0 * std_theory / math.sqrt(n_eff), name
            assert std == pytest.approx(std_theory, rel=0.05), name
            assert lag == pytest.approx(rho_theory, abs=0.03), name
            stats[name] = (mean, std, lag)
        assert stats["bank"][1] == pytest.approx(stats["scalar"][1], rel=0.05)
        assert stats["bank"][2] == pytest.approx(stats["scalar"][2], abs=0.04)

    def test_class_mix_matches_between_backends(self):
        """At a mid-range distance the bank-backed model visits the class
        mix of ``classify(mean_snr_db(150 m) + CompositeFadingProcess)``."""
        config = ChannelConfig()
        positions = {0: Vec2(0, 0), 1: Vec2(150, 0)}
        model = ChannelModel(config, RandomStreams(23), lambda nid, t: positions[nid])
        proc = CompositeFadingProcess(
            RandomStreams(23).stream("channel/0-1"),
            shadow_sigma_db=config.shadow_sigma_db,
            shadow_tau_s=config.shadow_tau_s,
            fast_sigma_db=config.fast_sigma_db,
            fast_tau_s=config.fast_tau_s,
        )
        mean = config.path_loss.mean_snr_db(150.0)
        n = 4000
        instants = [(i + 1) * 2.0 for i in range(n)]
        bank = Counter(model.state(0, 1, t) for t in instants)
        oracle = Counter(config.thresholds.classify(mean + proc.sample(t)) for t in instants)
        for cls in ChannelClass:
            assert bank[cls] / n == pytest.approx(oracle[cls] / n, abs=0.05), cls


class TestDeterminism:
    def test_same_seed_same_samples(self):
        a = FadingBank(99)
        b = FadingBank(99)
        rows_a = a.rows(0, [1, 2, 3])
        rows_b = b.rows(0, [1, 2, 3])
        for t in (0.0, 0.5, 1.25, 7.0):
            assert np.array_equal(a.sample_rows(rows_a, t), b.sample_rows(rows_b, t))

    def test_different_seeds_differ(self):
        a, b = FadingBank(1), FadingBank(2)
        assert a.sample_pair(0, 1, 1.0) != b.sample_pair(0, 1, 1.0)

    def test_batch_composition_independence(self):
        """A pair's draws do not depend on which batch samples it."""
        a = FadingBank(42)
        alone = [a.sample_pair(3, 7, t) for t in (0.0, 1.0, 2.0)]
        b = FadingBank(42)
        rows = b.rows(3, [1, 7, 9, 12])
        batched = [b.sample_rows(rows, t)[1] for t in (0.0, 1.0, 2.0)]
        assert alone == pytest.approx(batched, rel=1e-12)

    def test_allocation_order_independence(self):
        a = FadingBank(42)
        a.sample_pair(8, 9, 0.0)
        first = a.sample_pair(0, 1, 0.0)
        b = FadingBank(42)
        assert b.sample_pair(0, 1, 0.0) == first

    def test_symmetry(self):
        bank = FadingBank(5)
        assert bank.sample_pair(2, 6, 1.0) == bank.sample_pair(6, 2, 1.0)

    def test_scenario_runs_are_reproducible(self):
        from repro.experiments.scenario import ScenarioConfig, run_scenario

        config = ScenarioConfig(
            protocol="rica",
            n_nodes=12,
            n_flows=3,
            duration_s=3.0,
            seed=7,
        )
        first = dataclasses.asdict(run_scenario(config))
        second = dataclasses.asdict(run_scenario(config))
        assert first == second
        other = dataclasses.asdict(run_scenario(config.with_(seed=8)))
        assert other != first


class TestPipelineEquivalence:
    """Batched queries agree with single-pair queries and geometry."""

    def make_model(self, n=40, with_topology=True, seed=11):
        positions = make_positions(n)
        topo = make_topology(positions) if with_topology else None
        model = ChannelModel(
            ChannelConfig(),
            RandomStreams(seed),
            (topo.position if topo is not None else (lambda nid, t: positions[nid])),
            topology=topo,
        )
        return model, topo, positions

    def test_states_consistent_with_singles_at_same_time(self):
        model, _, _ = self.make_model()
        others = list(range(1, 25))
        batch = model.states(0, others, 3.0)
        for b in others:
            assert model.state(0, b, 3.0) is batch[b]

    def test_small_set_path_consistent_with_singles(self):
        """Sets below the cutoff loop over the scalar fast path; draws
        and results agree with single-pair queries."""
        from repro.channel.model import SMALL_SET_CUTOFF

        model, _, _ = self.make_model(seed=51)
        others = list(range(1, SMALL_SET_CUTOFF))  # below the cutoff
        batch = model.states(0, others, 1.0)
        single_model, _, _ = self.make_model(seed=51)
        for b in others:
            assert single_model.state(0, b, 1.0) is batch[b]

    def test_states_matches_model_without_topology(self):
        """The coords fast path and the position_fn fallback agree."""
        m1, _, _ = self.make_model(with_topology=True)
        m2, _, _ = self.make_model(with_topology=False)
        others = list(range(1, 30))
        for t in (0.0, 1.0, 2.5):
            assert m1.states(0, others, t) == m2.states(0, others, t)

    def test_csi_hop_distances_match_states(self):
        from repro.channel.csi import hop_distance

        m1, _, _ = self.make_model(seed=31)
        m2, _, _ = self.make_model(seed=31)
        others = list(range(1, 20))
        hops = m1.csi_hop_distances(0, others, 1.5)
        states = m2.states(0, others, 1.5)
        assert hops == {b: hop_distance(s) for b, s in states.items()}

    def test_csi_hop_map_equivalent_to_per_set_queries(self):
        m1, topo, _ = self.make_model(seed=13)
        m2, _, _ = self.make_model(seed=13)
        adj = topo.neighbor_map(2.0)
        bulk = m1.csi_hop_map(adj, 2.0)
        per_set = {a: m2.csi_hop_distances(a, nbrs, 2.0) for a, nbrs in adj.items()}
        assert bulk == per_set

    def test_csi_hop_map_symmetric(self):
        model, topo, _ = self.make_model()
        adj = topo.neighbor_map(1.0)
        bulk = model.csi_hop_map(adj, 1.0)
        for a, row in bulk.items():
            for b, hop in row.items():
                assert bulk[b][a] == hop

    def test_empty_neighbour_sets(self):
        model, _, _ = self.make_model()
        assert model.states(0, [], 1.0) == {}
        assert model.csi_hop_distances(0, [], 1.0) == {}
        assert model.csi_hop_map({0: [], 1: []}, 1.0) == {0: {}, 1: {}}

    def test_link_metrics_matches_components(self):
        m1, _, _ = self.make_model(seed=41)
        m2, _, _ = self.make_model(seed=41)
        hop, bw = m1.link_metrics(0, 5, 1.0)
        cls = m2.state(0, 5, 1.0)
        from repro.channel.csi import hop_distance

        assert hop == hop_distance(cls)
        assert bw == m2.config.abicm.throughput(cls)


class TestLinkPass:
    """``link_hop_distances`` is the single-pair query over a set: the
    same values, the same draws and the same bank state as one
    ``csi_hop_distance`` per link, whatever the set size."""

    def make_pair(self, seed=23):
        def one():
            model, _, _ = TestPipelineEquivalence().make_model(n=40, seed=seed)
            # Shared history: earlier samples of some of the links, one
            # of them through the array pipeline.
            model.csi_hop_distances(0, list(range(1, 30)), 0.5)
            model.csi_hop_distance(0, 3, 1.0)
            return model

        return one(), one()

    @pytest.mark.parametrize("size", [1, 5, 16, 17, 39])
    def test_matches_per_pair_queries(self, size):
        passed, per_pair = self.make_pair()
        others = list(range(39, 39 - size, -1))
        for t in (1.0, 1.0, 2.75):
            got = passed.link_hop_distances(0, others, t)
            assert got == [per_pair.csi_hop_distance(0, b, t) for b in others]
        assert passed.samples_taken == per_pair.samples_taken
        bank_a, bank_b = passed._bank, per_pair._bank
        assert bank_a.draws == bank_b.draws
        assert bank_a._row_of == bank_b._row_of
        n = bank_a.pair_count
        assert np.array_equal(bank_a._ctr[:n], bank_b._ctr[:n])
        assert np.array_equal(bank_a._x[:, :n], bank_b._x[:, :n])
        assert np.array_equal(bank_a._t[:n], bank_b._t[:n])
        # Both continue identically.
        assert [passed.csi_hop_distance(0, b, 4.0) for b in range(1, 40)] == [
            per_pair.csi_hop_distance(0, b, 4.0) for b in range(1, 40)
        ]

    def test_empty_set_samples_nothing(self):
        model, _ = self.make_pair()
        draws = model._bank.draws
        assert model.link_hop_distances(0, [], 3.0) == []
        assert model._bank.draws == draws


class TestTopologyBatchedQueries:
    def test_distances_from_matches_pointwise(self):
        positions = make_positions(60)
        topo = make_topology(positions)
        others = list(range(1, 60))
        for t in (0.0, 1.5):
            # Without a snapshot (pointwise fallback) ...
            d1 = topo.distances_from(0, others, t)
            expected = [topo.distance(0, b, t) for b in others]
            assert d1 == pytest.approx(expected)
            # ... and with one (array gather), repeatedly to cross the
            # adaptive coords threshold.
            topo.neighbors(0, t)
            for _ in range(4):
                d2 = topo.distances_from(0, others, t)
                assert d2 == pytest.approx(expected)

    def test_distances_from_sparse_ids(self):
        positions = {5: Vec2(0, 0), 17: Vec2(30, 40), 99: Vec2(300, 400)}
        topo = TopologyIndex(Field(1000, 1000), radius=250.0)
        for nid, pos in positions.items():
            topo.add(nid, (lambda p: (lambda t: p))(pos))
        topo.neighbors(5, 0.0)  # build the snapshot (non-dense ids)
        for _ in range(4):  # cross the coords threshold
            d = topo.distances_from(5, [17, 99], 0.0)
        assert d == pytest.approx([50.0, 500.0])

    def test_distances_from_unknown_id(self):
        positions = make_positions(5)
        topo = make_topology(positions)
        with pytest.raises(TopologyError):
            topo.distances_from(0, [1, 77], 0.0)
        topo.neighbors(0, 0.0)
        with pytest.raises(TopologyError):
            topo.distances_from(0, [1, 77], 0.0)

    def test_which_within_matches_within(self):
        positions = make_positions(50)
        topo = make_topology(positions)
        others = list(range(1, 50))
        mask = topo.which_within(0, others, 0.0, 300.0)
        expected = [topo.within(b, 0, 0.0, 300.0) for b in others]
        assert mask.tolist() == expected
        assert topo.any_within(0, others, 0.0, 300.0) == any(expected)
        assert not topo.any_within(0, [0], 0.0, 300.0)  # self is masked

    def test_coords_view_dense_and_sparse(self):
        positions = make_positions(10)
        topo = make_topology(positions)
        coords, slot_of = topo.coords_view(0.0)
        assert slot_of is None
        assert coords.shape == (10, 2)
        assert coords[3][0] == pytest.approx(positions[3].x)
