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


def library_lam(limit: int) -> np.ndarray:
    """Lambda(0..limit) as the library's sieve yields it, segment by segment."""
    blocks = (lam for _, lam, _ in ps.psi_rows(limit, 1))
    return np.concatenate([[0.0], *blocks])


def test_worked_values_exact():
    p = ps.psi_series(12, x_start=1)
    assert abs(p[9] - math.log(2520)) < 1e-12
    assert abs(p[11] - math.log(27720)) < 1e-12
    assert abs(p[10] - 0.5 * (p[9] + p[11])) < 1e-12
    assert p[0] == 0.0
    assert abs(p[1] - 0.5 * math.log(2)) < 1e-15


def test_psi_matches_brute_force_grid():
    limit = 3000
    oracle = oracles.psi_grid_brute(limit)
    got = ps.psi_series(limit, x_start=1)
    assert float(np.max(np.abs(got - oracle))) < 1e-10


def test_psi_spot_values_double_loop():
    for x in (2, 3, 4, 8, 9, 10, 30, 97, 1024, 9973):
        got = ps.psi_series(1, x_start=x)[0]
        assert got == pytest.approx(oracles.psi_spot_brute(x), abs=1e-10)


def test_psi_nondecreasing():
    vals = ps.psi_series(5000, x_start=1)
    assert np.all(np.diff(vals) >= 0.0)


def test_half_jump_identity():
    # stepping from q-1 to q collects the outgoing half of the jump at q-1
    # plus the incoming half of the jump at q (either may be zero):
    # psi(q) - psi(q-1) = lam(q)/2 + lam(q-1)/2
    limit = 2000
    lam = oracles.mangoldt_sieve(limit)
    vals = ps.psi_series(limit, x_start=1)
    steps = np.diff(vals)
    expected = 0.5 * (lam[1:limit] + lam[2 : limit + 1])
    assert np.allclose(steps, expected, rtol=0, atol=1e-10)


def test_total_increase_is_lambda_sum():
    limit = 10**4
    lam = oracles.mangoldt_sieve(limit)
    vals = ps.psi_series(limit, x_start=1)
    expected = math.fsum(lam.tolist()) - 0.5 * lam[limit]
    assert vals[-1] - vals[0] == pytest.approx(expected, abs=1e-10)


def test_sieve_small_tables():
    lam = library_lam(10)
    nz = {m for m in range(11) if lam[m] != 0.0}
    assert nz == {2, 3, 4, 5, 7, 8, 9}
    assert lam[8] == pytest.approx(math.log(2), rel=1e-15)
    assert lam[9] == pytest.approx(math.log(3), rel=1e-15)
    assert lam[4] == pytest.approx(math.log(2), rel=1e-15)
    lam2 = library_lam(2)
    assert np.flatnonzero(lam2).tolist() == [2]
    assert lam2[2] == pytest.approx(math.log(2), rel=1e-15)


def test_sieve_total_to_1e4():
    lam = library_lam(10**4)
    total = math.fsum(lam.tolist())
    oracle = math.fsum(oracles.mangoldt_by_trial_division(10**4))
    assert total == pytest.approx(oracle, abs=1e-10)
    assert total == pytest.approx(10013.396693263114, abs=1e-9)


def test_pnt_deviation():
    vals = ps.psi_series(10**4, x_start=1)
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
    assert fl.shape == (10**4,)
    assert fl[0] == pytest.approx(0.04060962046342759, abs=1e-12)
    assert fl[8] == pytest.approx(-0.33513392101193595, abs=1e-12)
    # oscillates around zero; envelope frozen from the direct computation
    assert abs(fl.mean()) < np.abs(fl).max()
    assert np.abs(fl).max() == pytest.approx(47.0104236242405, abs=1e-8)


def test_fluctuation_is_difference_by_construction(small_segments):
    # from 2, and from off a row edge above three whole rows, which pay
    # the carry their sum alone, over a grid that crosses a segment edge
    for n, x_start in ((500, 2), (2 * SMALL_SEGMENT, 3 * ps._kernels.ROW_LEN + 5)):
        fl = ps.fluctuation_series(n, x_start)
        p = ps.psi_series(n, x_start)
        x = x_start + np.arange(n)
        assert np.array_equal(fl, p - ps.smooth_part(x))


def test_fluctuation_at_on_and_off_grid():
    assert ps.fluctuation_at(10.0) == pytest.approx(
        -0.33513392101193595, abs=1e-12
    )
    # off the grid the jump at floor(x) counts in full
    psi7 = ps.psi_series(1, x_start=7)[0]
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
    # the row generators check their grid when called, before any row
    for bad in (lambda: ps.psi_rows(0), lambda: ps.fluctuation_rows(5, 1)):
        with pytest.raises(DomainError):
            bad()
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


def test_a_grid_too_large_to_allocate_is_a_resource_error():
    # numpy refuses 8 PiB of float64 at once, before any sieving
    with pytest.raises(ResourceError, match="cannot allocate grid of 1125899906842624 points"):
        ps.psi_series(2**50)


@given(
    x_start=st.integers(min_value=2, max_value=5000),
    n=st.integers(min_value=1, max_value=200),
)
@settings(max_examples=25, deadline=None)
def test_windows_agree_with_full_prefix(x_start, n):
    window = ps.psi_series(n, x_start=x_start)
    full = ps.psi_series(x_start + n, x_start=1)
    sliced = full[x_start - 1 : x_start - 1 + n]
    assert float(np.max(np.abs(window - sliced))) < 1e-10


# ---------------------------------------------------------------------------
# Precision at scale and the streaming segment core
# ---------------------------------------------------------------------------


def test_psi_within_3_ulp_at_1e7():
    # Without the Kahan carry across chunk totals the error here is several
    # times larger; at 10^5 points it stays below every other tolerance.
    limit = 10**7
    got = ps.psi_series(limit, x_start=1)
    worst = 0.0
    for m0, ref in oracles.psi_longdouble(limit):
        block = got[m0 - 1 : m0 - 1 + ref.size].astype(np.longdouble)
        worst = max(worst, float(np.max(np.abs(block - ref))))
    assert worst <= 3 * np.spacing(got[-1])


def test_rows_tile_the_grid(small_segments):
    n, x_start = 3 * SMALL_SEGMENT + 77, 5000
    base = ps.prime_series._base_primes(x_start + n - 1)
    psi_rows = list(ps.psi_rows(n, x_start))
    for x0, lam, values in psi_rows:
        assert lam.size == values.size <= ps._kernels.ROW_LEN
        support = ps._kernels.mangoldt_segment(x0, x0 + lam.size, *base)
        want = ps._kernels.densify(*support, lam.size)
        assert lam.tobytes() == want.tobytes()
    fluc_rows = []
    for x, psi, smooth, fluc in ps.fluctuation_rows(n, x_start):
        assert x.size == psi.size == smooth.size == fluc.size <= ps._kernels.ROW_LEN
        assert np.array_equal(x, x[0] + np.arange(x.size))
        fluc_rows.append((int(x[0]), fluc))
    for rows in ([(x0, psi) for x0, _, psi in psi_rows], fluc_rows):
        starts = [x0 for x0, _ in rows]
        sizes = [values.size for _, values in rows]
        assert starts[0] == x_start
        # every later row starts on a row edge, counted from 2
        assert all(x0 % ps._kernels.ROW_LEN == 2 for x0 in starts[1:])
        assert np.array_equal(np.diff(starts), sizes[:-1])
        assert sum(sizes) == n


def test_psi_rows_hold_no_dense_lambda():
    tracemalloc.start()
    try:
        for _ in ps.psi_rows(3 * 2**20):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a segment's strike flags (256 KiB), its support and one row at a
    # time: 0.56 MiB; 2.8 MiB while each segment's Lambda was laid out
    # whole in 2 MiB of float64
    assert peak < 2**20


def test_windows_are_bit_identical_to_full_prefix(small_segments):
    full = ps.psi_series(10**6 + 20_000, x_start=1)
    # the rows below a window move the carry by their sums alone; below
    # 999999, 244 of them, a sum of their support alone would move bits
    windows = ((1, 10), (2, 4096), (4097, 3), (4098, 5000), (9000, 7000),
               (999_999, 20_000))
    for x_start, n in windows:
        window = ps.psi_series(n, x_start=x_start)
        assert np.array_equal(window, full[x_start - 1 : x_start - 1 + n])


@pytest.mark.parametrize("segment", [SMALL_SEGMENT, 1 << 20])
def test_segment_length_leaves_every_bit(monkeypatch, segment):
    # segments are whole prefix chunks, so the chunks, and psi, do not move;
    # the grid starts off an edge and crosses 2**18 and many 4096 edges
    n, x_start = (1 << 18) + 9_000, (1 << 18) - 4_321
    want = ps.psi_series(n, x_start), ps.fluctuation_series(n, x_start)
    assert ps.prime_series._SEGMENT == 1 << 18
    monkeypatch.setattr(ps.prime_series, "_SEGMENT", segment)
    got = ps.psi_series(n, x_start), ps.fluctuation_series(n, x_start)
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()


def test_fluctuation_at_is_bit_identical_across_segments(small_segments):
    n = 3 * SMALL_SEGMENT + 77
    fl = ps.fluctuation_series(n)
    psi = ps.psi_series(n)
    lam = library_lam(n + 1)
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
    # 0.5 MiB with segments of 2**18 integers (2.8 MiB while a segment's
    # Lambda was laid out whole)
    assert peak < 16 * 2**20


def test_fluctuation_at_takes_no_half_of_lambda():
    tracemalloc.start()
    try:
        ps.fluctuation_at(3 * 2**20 + 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a segment's strike flags and support and its rows of 4096, 0.5 MiB;
    # 2.8 MiB with a segment of Lambda laid out whole, 4.3 MiB while psi
    # took a second array of a segment, 6.3 MiB while the prefix took
    # 0.5 * Lambda in a third array
    assert peak < 5 * 2**20


def traced_peak(function, *args):
    """The tracemalloc peak of ``function(*args)``, in bytes."""
    tracemalloc.start()
    try:
        function(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_burg_fit_over_the_sieve_holds_one_segment():
    n = 3 * 2**20
    series = ps.BlockSeries(blocks=(f for *_, f in ps.fluctuation_rows(n)), n=n)
    # 0.6 MiB: a segment's strike flags and support and a few rows; 2.9
    # MiB with a segment of Lambda laid out whole; 4.8 MiB while the block
    # a consumer held kept the segment before alive through the sieve
    assert traced_peak(ps.burg_fit, series) < 3.5 * 2**20


def test_fluctuation_at_over_the_whole_grid_holds_one_segment():
    # 0.5 MiB; 2.8 MiB with a segment of Lambda laid out whole; 8.0 MiB
    # while psi took a second array of a segment and the segment before
    # was alive through the sieve
    assert traced_peak(ps.fluctuation_at, [2.5, 3 * 2**20 + 0.5]) < 3.5 * 2**20


def test_empty_points_give_empty_arrays(zeros):
    for out in (ps.fluctuation_at([]), ps.psi_fluc_from_zeros([], zeros[:10])):
        assert isinstance(out, np.ndarray)
        assert out.dtype == np.float64 and out.shape == (0,)


@pytest.mark.parametrize("x_start", [2**18 - 3000, 10**6, 10**9])
def test_smooth_part_keeps_the_bits_of_the_full_formula(x_start):
    # windows that straddle 2**18, where the log term stops changing a bit,
    # and lie above it; integers and points between them
    x = x_start + np.arange(6000.0)
    x = np.concatenate([x, x + 0.5, x + 0.25, x[::-1]])
    full = x - 0.5 * np.log1p(-1.0 / (x * x)) - math.log(2.0 * math.pi)
    assert ps.smooth_part(x).tobytes() == full.tobytes()
    for part in (x[x < 2**18], x[x >= 2**18]):
        want = part - 0.5 * np.log1p(-1.0 / (part * part)) - math.log(2.0 * math.pi)
        assert ps.smooth_part(part).tobytes() == want.tobytes()
        assert [ps.smooth_part(v) for v in part[:50].tolist()] == want[:50].tolist()
