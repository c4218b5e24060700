"""Shared fixtures for the test suite; shared generators are in ``helpers``."""

import os
import shutil
import tempfile

import numpy as np
import pytest


def pytest_configure(config):
    # Hypothesis writes a cache of collected constants even under
    # database=None, into ./.hypothesis unless this variable names another
    # place; it reads the variable on first use, which comes later.  A
    # temporary directory, removed when the run ends, leaves the working
    # tree as the run found it.
    if "HYPOTHESIS_STORAGE_DIRECTORY" not in os.environ:
        storage = tempfile.mkdtemp(prefix="outerinv-hypothesis-")
        config.add_cleanup(lambda: shutil.rmtree(storage, ignore_errors=True))
        os.environ["HYPOTHESIS_STORAGE_DIRECTORY"] = storage


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
