import numpy as np
import pytest

import psispec as ps
from psispec import prime_series
from psispec.cli import _synthetic_series

#: Segment length for tests that need many segments on a small grid.
SMALL_SEGMENT = 4096


@pytest.fixture(scope="session")
def zeros():
    """The bundled 2000-ordinate zero table."""
    return ps.load_zeros(ps.bundled_zeros_path())


@pytest.fixture
def small_segments(monkeypatch):
    """Sieve in segments of ``SMALL_SEGMENT`` integers, so that grids of a
    few thousand points already span several segments."""
    monkeypatch.setattr(prime_series, "_SEGMENT", SMALL_SEGMENT)


@pytest.fixture(scope="session")
def fluc_1e4():
    """Fluctuation series on [2, 10001], shared by several test modules."""
    return ps.fluctuation_series(10**4)


def ar1_sample(seed: int, n: int, coeff: float = 0.9) -> np.ndarray:
    """Seeded AR(1) draw y_t = coeff * y_{t-1} + eps_t used across tests."""
    return _synthetic_series("ar1", n, seed, coeff)
