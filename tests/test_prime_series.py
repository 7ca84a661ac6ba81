import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import psispec as ps
from psispec.errors import DomainError, ResourceError

import oracles
from conftest import SMALL_SEGMENT


def test_worked_values_exact():
    p = ps.psi_series(12, x_start=1)
    assert abs(p.values[9] - math.log(2520)) < 1e-12
    assert abs(p.values[11] - math.log(27720)) < 1e-12
    assert abs(p.values[10] - 0.5 * (p.values[9] + p.values[11])) < 1e-12
    assert p.values[0] == 0.0
    assert abs(p.values[1] - 0.5 * math.log(2)) < 1e-15


def test_psi_matches_brute_force_grid():
    limit = 3000
    oracle = oracles.psi_grid_brute(limit)
    got = ps.psi_series(limit, x_start=1).values
    assert float(np.max(np.abs(got - oracle))) < 1e-10


def test_psi_spot_values_double_loop():
    for x in (2, 3, 4, 8, 9, 10, 30, 97, 1024, 9973):
        got = ps.psi_series(1, x_start=x).values[0]
        assert got == pytest.approx(oracles.psi_spot_brute(x), abs=1e-10)


def test_psi_nondecreasing():
    vals = ps.psi_series(5000, x_start=1).values
    assert np.all(np.diff(vals) >= 0.0)


def test_half_jump_identity():
    # stepping from q-1 to q collects the outgoing half of the jump at q-1
    # plus the incoming half of the jump at q (either may be zero):
    # psi(q) - psi(q-1) = lam(q)/2 + lam(q-1)/2
    limit = 2000
    lam = ps.sieve_prime_power_logs(limit)
    vals = ps.psi_series(limit, x_start=1).values
    steps = np.diff(vals)
    expected = 0.5 * (lam[1:limit] + lam[2 : limit + 1])
    assert np.allclose(steps, expected, rtol=0, atol=1e-10)


def test_total_increase_is_lambda_sum():
    limit = 10**4
    lam = ps.sieve_prime_power_logs(limit)
    vals = ps.psi_series(limit, x_start=1).values
    expected = math.fsum(lam.tolist()) - 0.5 * lam[limit]
    assert vals[-1] - vals[0] == pytest.approx(expected, abs=1e-10)


def test_sieve_small_tables():
    lam = ps.sieve_prime_power_logs(10)
    nz = {m for m in range(11) if lam[m] != 0.0}
    assert nz == {2, 3, 4, 5, 7, 8, 9}
    assert lam[8] == pytest.approx(math.log(2), rel=1e-15)
    assert lam[9] == pytest.approx(math.log(3), rel=1e-15)
    assert lam[4] == pytest.approx(math.log(2), rel=1e-15)
    lam2 = ps.sieve_prime_power_logs(2)
    assert np.flatnonzero(lam2).tolist() == [2]
    assert lam2[2] == pytest.approx(math.log(2), rel=1e-15)


def test_sieve_total_to_1e4():
    lam = ps.sieve_prime_power_logs(10**4)
    total = math.fsum(lam.tolist())
    oracle = math.fsum(oracles.mangoldt_by_trial_division(10**4))
    assert total == pytest.approx(oracle, abs=1e-10)
    assert total == pytest.approx(10013.396693263114, abs=1e-9)


def test_pnt_deviation():
    vals = ps.psi_series(10**4, x_start=1).values
    dev = abs(vals[-1] / 10**4 - 1.0)
    assert dev < 0.03
    assert dev == pytest.approx(0.0013396693263114, abs=1e-12)


def test_smooth_part_matches_series_oracle():
    worst = max(
        abs(ps.smooth_part(float(x)) - oracles.smooth_series_50(float(x)))
        for x in range(2, 1001)
    )
    assert worst < 1e-12


def test_smooth_part_values():
    assert ps.smooth_part(2.0) == pytest.approx(0.30596396981654506, abs=1e-12)
    assert ps.smooth_part(10.0) == pytest.approx(8.167148101517405, abs=1e-12)


def test_smooth_part_asymptote():
    x = 1e3
    diff = ps.smooth_part(x) - (x - math.log(2.0 * math.pi))
    assert diff == pytest.approx(5.0000025e-7, rel=1e-6)


def test_smooth_part_array_and_domain():
    arr = ps.smooth_part(np.array([2.0, 10.0]))
    assert arr.shape == (2,)
    assert arr[1] == pytest.approx(8.167148101517405, abs=1e-12)
    with pytest.raises(DomainError):
        ps.smooth_part(1.0)
    with pytest.raises(DomainError):
        ps.smooth_part(0.25)
    with pytest.raises(DomainError):
        ps.smooth_part(np.array([3.0, 1.0]))
    for bad in (math.nan, -math.inf):
        with pytest.raises(DomainError):
            ps.smooth_part(bad)
        with pytest.raises(DomainError):
            ps.smooth_part(np.array([3.0, bad]))


def test_fluctuation_values(fluc_1e4):
    fl = fluc_1e4
    assert fl.x_start == 2 and fl.dx == 1.0 and fl.n == 10**4
    assert fl.values[0] == pytest.approx(0.04060962046342759, abs=1e-12)
    assert fl.values[8] == pytest.approx(-0.33513392101193595, abs=1e-12)
    # oscillates around zero; envelope frozen from the direct computation
    assert abs(fl.values.mean()) < np.abs(fl.values).max()
    assert np.abs(fl.values).max() == pytest.approx(47.0104236242405, abs=1e-8)


def test_fluctuation_is_difference_by_construction():
    fl = ps.fluctuation_series(500)
    p = ps.psi_series(500)
    assert np.array_equal(fl.values, p.values - ps.smooth_part(p.x))
    assert np.array_equal(fl.x, p.x)


def test_fluctuation_at_on_and_off_grid():
    assert ps.fluctuation_at(10.0) == pytest.approx(
        -0.33513392101193595, abs=1e-12
    )
    # off the grid the jump at floor(x) counts in full
    psi7 = ps.psi_series(1, x_start=7).values[0]
    expected = psi7 + 0.5 * math.log(7) - ps.smooth_part(7.5)
    assert ps.fluctuation_at(7.5) == pytest.approx(expected, abs=1e-12)
    arr = ps.fluctuation_at(np.array([2.5, 10.0, 10.5]))
    assert arr.shape == (3,)
    assert arr[1] == pytest.approx(-0.33513392101193595, abs=1e-12)


@pytest.mark.filterwarnings("error")
def test_domain_errors():
    with pytest.raises(DomainError):
        ps.psi_series(0)
    with pytest.raises(DomainError):
        ps.psi_series(5, x_start=0)
    with pytest.raises(DomainError):
        ps.fluctuation_series(5, x_start=1)
    with pytest.raises(DomainError):
        ps.sieve_prime_power_logs(1)
    with pytest.raises(DomainError):
        ps.fluctuation_at(1.5)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            ps.fluctuation_at(bad)
        with pytest.raises(DomainError):
            ps.fluctuation_at([2.5, bad])


def test_resource_guard_on_huge_grid():
    with pytest.raises(ResourceError):
        ps.psi_series(10, x_start=2**53)
    with pytest.raises(ResourceError):
        ps.sieve_prime_power_logs(2**53 + 2)


@given(
    x_start=st.integers(min_value=2, max_value=5000),
    n=st.integers(min_value=1, max_value=200),
)
@settings(max_examples=25, deadline=None)
def test_windows_agree_with_full_prefix(x_start, n):
    window = ps.psi_series(n, x_start=x_start).values
    full = ps.psi_series(x_start + n, x_start=1).values
    sliced = full[x_start - 1 : x_start - 1 + n]
    assert float(np.max(np.abs(window - sliced))) < 1e-10


# ---------------------------------------------------------------------------
# Precision at scale and the streaming segment core
# ---------------------------------------------------------------------------


def test_psi_within_3_ulp_at_1e7():
    # Without the Kahan carry across chunk totals the error here is several
    # times larger; at 10^5 points it stays below every other tolerance.
    limit = 10**7
    got = ps.psi_series(limit, x_start=1).values
    worst = 0.0
    for m0, ref in oracles.psi_longdouble(limit):
        block = got[m0 - 1 : m0 - 1 + ref.size].astype(np.longdouble)
        worst = max(worst, float(np.max(np.abs(block - ref))))
    assert worst <= 3 * np.spacing(got[-1])


def test_grid_segments_tile_the_grid(small_segments):
    n, x_start = 3 * SMALL_SEGMENT + 77, 5000
    starts, sizes = [], []
    for x0, lam, psi in ps.grid_segments(n, x_start, fluctuation=False):
        assert lam.size == psi.size <= SMALL_SEGMENT
        starts.append(x0)
        sizes.append(psi.size)
    assert starts[0] == x_start
    assert np.array_equal(np.diff(starts), sizes[:-1])
    assert sum(sizes) == n
    for x0, lam, fluc in ps.grid_segments(n, x_start):
        assert lam is None


def test_windows_are_bit_identical_to_full_prefix(small_segments):
    full = ps.psi_series(4 * SMALL_SEGMENT, x_start=1).values
    for x_start, n in ((1, 10), (2, 4096), (4097, 3), (4098, 5000), (9000, 7000)):
        window = ps.psi_series(n, x_start=x_start).values
        assert np.array_equal(window, full[x_start - 1 : x_start - 1 + n])


def test_fluctuation_at_is_bit_identical_across_segments(small_segments):
    n = 3 * SMALL_SEGMENT + 77
    fl = ps.fluctuation_series(n).values
    psi = ps.psi_series(n).values
    lam = ps.sieve_prime_power_logs(n + 1)
    # segment edges (blocks start at 2, 4098, 8194, ...), out of order
    m = np.array([8194, 2, 4097, 4098, 8193, n + 1, 3, 4099, 12000, 4097])
    on_grid = ps.fluctuation_at(m.astype(np.float64))
    assert np.array_equal(on_grid, fl[m - 2])
    half = m + 0.5
    off_grid = ps.fluctuation_at(half)
    assert np.array_equal(off_grid, psi[m - 2] + 0.5 * lam[m] - ps.smooth_part(half))


def test_fluctuation_at_sieves_once(monkeypatch):
    from psispec import _kernels

    sieved = []
    segment = _kernels.mangoldt_segment

    def counting(lo, hi, *args):
        sieved.append(hi - lo)
        return segment(lo, hi, *args)

    monkeypatch.setattr(_kernels, "mangoldt_segment", counting)
    ps.fluctuation_at([3_000_000.5, 2.5, 1_234_567.0])
    assert sum(sieved) == 3_000_000 - 1


def test_fluctuation_at_memory_is_one_segment():
    tracemalloc.start()
    try:
        ps.fluctuation_at(3 * 2**20 + 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48 * 2**20


def test_empty_points_give_empty_arrays(zeros):
    for out in (ps.fluctuation_at([]), ps.psi_fluc_from_zeros([], zeros, 10)):
        assert isinstance(out, np.ndarray)
        assert out.dtype == np.float64 and out.shape == (0,)
