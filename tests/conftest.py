"""Shared fixtures for the DPF reproduction test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro import Session, cm5, workstation
from repro.machine.presets import generic_cluster


@pytest.fixture
def session() -> Session:
    """A fresh session on a 32-node CM-5."""
    return Session(cm5(32))


@pytest.fixture
def single_node_session() -> Session:
    """A session on a single shared-memory node (no network traffic)."""
    return Session(workstation())


@pytest.fixture
def session_factory():
    """Factory producing fresh CM-5 sessions (for suite runs)."""
    return lambda: Session(cm5(32))


@pytest.fixture
def cluster_session() -> Session:
    return Session(generic_cluster(16))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)
