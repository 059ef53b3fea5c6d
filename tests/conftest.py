"""Shared fixtures: small deterministic matrices and hypothesis strategies.

The reusable helpers live in :mod:`repro.testing` (shared with
``benchmarks/conftest.py``); this file binds them as fixtures and adds
the ``--update-goldens`` flag for ``tests/test_goldens.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.formats.coo import COOMatrix
from repro.testing import random_coo  # noqa: F401  (re-export for tests)


def pytest_addoption(parser):
    parser.addoption(
        "--update-goldens",
        action="store_true",
        default=False,
        help="regenerate tests/goldens/*.json from the current code "
        "instead of asserting against them",
    )


@pytest.fixture
def update_goldens(request) -> bool:
    return bool(request.config.getoption("--update-goldens"))


@pytest.fixture(scope="session")
def full_context():
    """One full-suite evaluation context (every workload on every
    matrix, default config, no store), characterized once per session."""
    from repro.experiments import ExperimentContext

    return ExperimentContext()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def small_dense(rng) -> np.ndarray:
    """A 30x30 ~10%-dense matrix with a guaranteed empty row and column."""
    dense = (rng.random((30, 30)) < 0.1) * rng.uniform(0.5, 1.5, (30, 30))
    dense[7, :] = 0.0
    dense[:, 13] = 0.0
    return dense


@pytest.fixture
def small_coo(small_dense) -> COOMatrix:
    return COOMatrix.from_dense(small_dense)
