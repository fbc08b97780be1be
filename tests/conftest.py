"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams

from tests.helpers import build_static_network, make_deterministic_channel_config


def pytest_addoption(parser):
    parser.addoption(
        "--mac-backend",
        default="scalar",
        choices=("scalar", "batched"),
        help="MAC attempt-scheduler backend for scenario-level tests that "
        "honour it (the determinism pipeline); CI runs the tier-1 "
        "differential leg with 'batched'.",
    )


@pytest.fixture(scope="session")
def mac_backend(request):
    """The --mac-backend option (scenario-level backend differentials)."""
    return request.config.getoption("--mac-backend")


@pytest.fixture
def sim():
    """A fresh simulator."""
    return Simulator()


@pytest.fixture
def streams():
    """Deterministic random streams."""
    return RandomStreams(seed=1234)


@pytest.fixture
def det_channel_config():
    """Deterministic (fading-free) channel configuration."""
    return make_deterministic_channel_config()


@pytest.fixture
def line_network(sim, streams):
    """Five static nodes in a line, 150 m apart (class B links between
    neighbours, ~300 m two-hop distances are out of range)."""
    positions = [(i * 150.0, 0.0) for i in range(5)]
    return build_static_network(sim, streams, positions)
