"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.photonics import devices


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic random generator for reproducible tests."""
    return np.random.default_rng(20190325)


@pytest.fixture
def coarse_profile() -> devices.RingProfile:
    """Ring technology of the Fig. 5 study (1 nm grid)."""
    return devices.COARSE_RING_PROFILE


@pytest.fixture
def dense_profile() -> devices.RingProfile:
    """Ring technology of the Fig. 6-7 studies (0.1-0.3 nm grid)."""
    return devices.DENSE_RING_PROFILE


@pytest.fixture(scope="module")
def low_margin_circuit():
    """Order-2 MRR-first design probed for link BER 1e-2, not 1e-6.

    Receiver noise flips tens of decisions per thousand clocks here, so
    noisy parity tests compare real flips; at the Section V-A point the
    BER is about 1e-111 and no decision ever changes.
    """
    design = repro.mrr_first_design(
        order=2, wl_spacing_nm=1.0, target_ber=1e-2
    )
    return repro.OpticalStochasticCircuit.from_design(
        design, repro.BernsteinPolynomial([0.25, 0.625, 0.375])
    )
