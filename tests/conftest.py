import itertools

import numpy as np
import pytest

import psispec as ps
from psispec import cli, prime_series

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


#: Chunk size for reader tests that need many chunks in a small file: a
#: few ``sample`` rows, and not a whole number of them.
SMALL_CHUNK = 300


@pytest.fixture
def small_chunks(monkeypatch):
    """Read CSV tables in chunks of about ``SMALL_CHUNK`` bytes, so that a
    table of a few hundred rows already spans many chunks."""
    monkeypatch.setattr(cli, "_CHUNK_BYTES", SMALL_CHUNK)


@pytest.fixture(scope="session")
def fluc_1e4():
    """Fluctuation series on [2, 10001], shared by several test modules."""
    return ps.fluctuation_series(10**4)


def ar1_sample(seed: int, n: int, coeff: float = 0.9) -> np.ndarray:
    """Seeded AR(1) draw y_t = coeff * y_{t-1} + eps_t from y_0 = 0 over
    ``default_rng(seed).standard_normal(n)``, used across tests."""
    noise = np.random.default_rng(seed).standard_normal(n)
    steps = itertools.accumulate(
        noise.tolist(), lambda prev, e: coeff * prev + e, initial=0.0
    )
    return np.fromiter(steps, np.float64, count=n + 1)[1:]


def awkward_floats() -> np.ndarray:
    """Values where 17-digit formatting is easy to get wrong, each with
    both signs: decade edges 10^k for k = -5 ... 17 and their neighbours,
    exact ties at the 17th digit, zeros, nan, infinities, subnormals and
    the largest finite value."""
    edges = []
    for k in range(-5, 18):
        v = float(f"1e{k}")
        below, above = np.nextafter(v, 0.0), np.nextafter(v, np.inf)
        edges += [v, below, above, np.nextafter(below, 0.0), np.nextafter(above, np.inf)]
    # 18 significant digits ending in 5, exact in binary: round half to even
    ties = [123456789012345.125, 123456789012345.375, 123456789012345.625,
            123456789012345.875, 12345678901234.0625, 12345678901234.1875]
    special = [0.0, np.nan, np.inf, 5e-324, 2.2250738585072009e-308,
               2.2250738585072014e-308, 1.7976931348623157e308, 0.5, 2.0]
    values = np.array(edges + ties + special)
    return np.concatenate([values, -values])


def csv_rows(*columns):
    """Data rows as the CLI promises them: every value at 17 digits."""
    return "".join(
        ",".join(format(float(v), ".17g") for v in row) + "\n"
        for row in zip(*columns)
    )
