"""Shared fixtures for the test suite; shared generators are in ``helpers``."""

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
