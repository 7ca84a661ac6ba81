"""The six kernels against independent scalar references."""

import math
import re
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import psispec as ps
from psispec import _kernels as kern
from psispec.prime_series import _base_primes

from conftest import ar1_sample, awkward_floats, csv_rows
from oracles import (
    burg_scalar,
    mangoldt_by_factoring,
    mangoldt_by_trial_division,
    mangoldt_segment_by_loop,
    mangoldt_sieve,
    zero_pair_sum_kahan,
    zero_pair_sum_mpmath,
)


def _assert_same_mangoldt(got, expected):
    expected = np.asarray(expected)
    assert np.array_equal(got == 0.0, expected == 0.0)
    assert np.allclose(got, expected, rtol=1e-15, atol=0)


def _lam(lo, hi, base):
    """Lambda on [lo, hi), laid out from the sieve's support."""
    return kern.densify(*kern.mangoldt_segment(lo, hi, *base), hi - lo)


@pytest.mark.parametrize("lo, hi", [(1, 513), (2, 10_001)])
def test_mangoldt_segment_matches_trial_division(lo, hi):
    lam = _lam(lo, hi, _base_primes(hi - 1))
    _assert_same_mangoldt(lam, mangoldt_by_trial_division(hi - 1)[lo:hi])


def test_mangoldt_segment_near_1e6_matches_factoring():
    lo, hi = 999_950, 1_000_051
    lam = _lam(lo, hi, _base_primes(hi - 1))
    expected = [mangoldt_by_factoring(m) for m in range(lo, hi)]
    # the range holds nine primes among its composites
    assert sum(v > 0.0 for v in expected) == 9
    _assert_same_mangoldt(lam, expected)


@pytest.mark.parametrize("lo", [0, 1, 2, 5, 12, 100])
@pytest.mark.parametrize("n", [1, 7, 64, 5000])
def test_mangoldt_segment_keeps_the_small_primes(lo, n):
    # a grid up to 8 or 12 has only 2 as a base prime: 3 ... 13 are in no
    # table and must survive as primes, and 2 ... 13 must not be struck as
    # multiples of themselves by their own slice or scatter
    hi = lo + n
    lam = _lam(lo, hi, _base_primes(hi - 1))
    assert lam.tobytes() == mangoldt_segment_by_loop(lo, hi).tobytes()


@pytest.mark.parametrize(
    "lo, n",
    [
        (10**7 + 12_345, 1 << 16),
        (10**10 - 4_321, 1 << 14),
        (10**12 + 777, 1 << 13),
    ],
)
def test_mangoldt_segment_is_bit_identical_to_the_per_prime_loop(lo, n):
    # both tiers strike: p < n/64 by slices, and the rest, up to
    # 10**6 at 10**12, by one scatter; the base tables may reach further
    # than the segment needs, as they do for every segment but the last
    hi = lo + n
    got = _lam(lo, hi, _base_primes(hi + 10**6))
    assert got.tobytes() == mangoldt_segment_by_loop(lo, hi).tobytes()


def test_mangoldt_segment_near_the_square_of_a_sparse_prime():
    # 1_000_003 is prime and strikes a segment of 2**18 integers once at
    # most: first at its own square, which carries log p from the table
    p = 1_000_003
    half, window = 1 << 17, 100
    lo = p * p - half
    lam = _lam(lo, lo + 2 * half, _base_primes(lo + 2 * half))
    got = lam[half - window : half + window + 1]
    expected = [mangoldt_by_factoring(m) for m in range(p * p - window, p * p + window + 1)]
    assert got[window] == math.log(p)
    # four primes besides p * p
    assert sum(v > 0.0 for v in expected) == 5
    _assert_same_mangoldt(got, expected)


@pytest.mark.parametrize(
    "lo, hi",
    [
        (2, 10_001),
        (999_950, 1_000_051),
        (10**10 - 4_321, 10**10 - 4_321 + (1 << 14)),
        (10**12 + 777, 10**12 + 777 + (1 << 13)),
        # around the square of the sparse prime 1_000_003
        (1_000_003**2 - (1 << 17), 1_000_003**2 + (1 << 17)),
    ],
)
def test_support_is_lambda_where_nonzero(lo, hi):
    support, values = kern.mangoldt_segment(lo, hi, *_base_primes(hi + 10**6))
    want = mangoldt_segment_by_loop(lo, hi)
    assert np.array_equal(support, np.flatnonzero(want))
    assert np.all(np.diff(support) > 0) and np.all(values != 0.0)
    assert kern.densify(support, values, hi - lo).tobytes() == want.tobytes()


def test_prefix_matches_fsum():
    lam = mangoldt_sieve(10**5)[1:]
    out, s, c = kern.half_jump_prefix(lam, 0.0, 0.0)
    assert abs((s - c) - math.fsum(lam.tolist())) < 1e-10
    for i in (10, 5000, 99_998):
        exact = math.fsum(lam[: i + 1].tolist()) - 0.5 * lam[i]
        assert abs(out[i] - exact) < 1e-10


def test_prefix_carry_chains_across_segments():
    lam = mangoldt_sieve(20_000)[1:]
    whole, _, _ = kern.half_jump_prefix(lam, 0.0, 0.0)
    mid = lam.size // 2
    first, s, c = kern.half_jump_prefix(lam[:mid], 0.0, 0.0)
    second, _, _ = kern.half_jump_prefix(lam[mid:].copy(), s, c)
    glued = np.concatenate([first, second])
    assert float(np.max(np.abs(glued - whole))) < 1e-10


@pytest.mark.parametrize("n", [1, 4095, 4096])
def test_prefix_over_its_input_keeps_every_bit(n):
    lo, mid = 10**6, 10**6 + 2**18
    base = _base_primes(mid + 2**18)
    s = c = 0.0
    for row in np.split(_lam(lo, mid, base), 2**18 // kern.ROW_LEN):
        _, s, c = kern.half_jump_prefix(row, s, c)
    assert c != 0.0  # the carry is a pair, not a plain total
    lam = _lam(mid, mid + n, base)
    fresh, _, _ = kern.half_jump_prefix(lam, s, c)
    assert not np.shares_memory(fresh, lam)
    assert lam.tobytes() == _lam(mid, mid + n, base).tobytes()


def test_psi_route_leaves_lambda_untouched():
    n, x_start = 2**18 + 5000, 1000
    base = _base_primes(x_start + n - 1)
    blocks = list(ps.psi_rows(n, x_start))
    # one row from x_start, then one per row edge counted from 2
    assert len(blocks) == (x_start + n - 1 - 2) // kern.ROW_LEN + 1
    for x0, lam, psi in blocks:
        assert not np.shares_memory(lam, psi)
        want = _lam(x0, x0 + lam.size, base)
        assert lam.tobytes() == want.tobytes()


@pytest.mark.parametrize("x_start", [2, 1000, 2**18 + 4097])
def test_sieve_calls_the_prefix_once_per_row(monkeypatch, x_start):
    n, calls = 3 * 2**18 + 5, []

    def spy(lam, s, c):
        calls.append(lam.size)
        return prefix(lam, s, c)

    prefix = kern.half_jump_prefix
    monkeypatch.setattr(kern, "half_jump_prefix", spy)
    for _ in ps.psi_rows(n, x_start=x_start):
        pass
    # every segment from 2 is cut into rows, and the rows that meet the
    # grid go through the prefix; those that end below x_start do not
    limit, row = x_start + n - 1, kern.ROW_LEN
    want = []
    for lo in range(2, limit + 1, ps.prime_series._SEGMENT):
        size = min(ps.prime_series._SEGMENT, limit + 1 - lo)
        want += [
            min(row, size - i) for i in range(0, size, row)
            if lo + i + min(row, size - i) > x_start
        ]
    assert max(calls) <= row
    assert calls == want


def _burg1_over_rows(y, sizes):
    """``(coeffs, noise_var)`` of the order-1 fit of ``y``, whose mean is
    0, from the kernel's sums chained over rows of the given sizes."""
    sums, last = [(0.0, 0.0)] * 4, None
    for row in np.split(y, np.cumsum(sizes)[:-1]):
        sums = kern.burg_recursion(row, sums, last)
        last = float(row[-1])
    xx, ff, bb, fb = (s - c for s, c in sums)
    k = -2.0 * fb / (ff + bb)
    return np.array([k]), xx / y.size * (1.0 - k * k)


def test_burg_matches_scalar_recursion():
    y = ps.remove_mean(ar1_sample(42, 20_000, coeff=0.8))
    a_ref, e_ref = burg_scalar(y, 1)
    # one row, uneven rows with one-sample rows at both ends, and the
    # reader's rows
    for sizes in ([20_000], [1, 4096, 3, 7000, 8899, 1], [4096] * 4 + [3616]):
        a, e = _burg1_over_rows(y, sizes)
        assert np.allclose(a, a_ref, rtol=1e-9, atol=1e-12)
        assert e == pytest.approx(e_ref, rel=1e-9)


def test_burg_matches_scalar_recursion_small():
    y = ps.remove_mean(ar1_sample(7, 512, coeff=0.5))
    a, e = _burg1_over_rows(y, [512])
    a_ref, e_ref = burg_scalar(y, 1)
    assert np.allclose(a, a_ref, rtol=1e-10, atol=1e-13)
    assert e == pytest.approx(e_ref, rel=1e-10)


def test_zero_pair_sum_matches_kahan_loop(zeros):
    xs = 5.5 + 26.0 * np.arange(20)
    t_desc = zeros.ordinates[::-1].copy()
    got = kern.zero_pair_sum(xs, t_desc)
    expected = zero_pair_sum_kahan(xs, t_desc)
    assert np.allclose(got, expected, rtol=1e-12, atol=1e-12)


def _pair_sum_points():
    # 150 points: the default tile of 65 rows and a tile of 7 rows both
    # leave a short last tile
    return 1000.5 + 37.0 * np.arange(150)


@pytest.mark.parametrize("tile_rows", [1, 7, None])
def test_zero_pair_sum_bits_independent_of_tiles(
    zeros, monkeypatch, tile_rows
):
    xs = _pair_sum_points()
    t_desc = zeros.ordinates[::-1].copy()
    with monkeypatch.context() as m:
        m.setattr(kern, "_TILE_TERMS", xs.size * t_desc.size)
        whole = kern.zero_pair_sum(xs, t_desc)
    if tile_rows is not None:
        monkeypatch.setattr(kern, "_TILE_TERMS", tile_rows * t_desc.size)
    got = kern.zero_pair_sum(xs, t_desc)
    assert np.array_equal(got, whole)


def test_zero_pair_sum_empty_and_single_point(zeros):
    t_desc = zeros.ordinates[::-1].copy()
    assert kern.zero_pair_sum(np.empty(0), t_desc).shape == (0,)
    one = kern.zero_pair_sum(np.array([10.5]), t_desc)
    assert one.shape == (1,)
    expected = zero_pair_sum_kahan([10.5], t_desc)
    assert np.allclose(one, expected, rtol=1e-12, atol=1e-12)


def test_zero_pair_sum_matches_kahan_loop_near_1e6(zeros):
    xs = 1_000_000.5 + np.arange(200)
    t_desc = zeros.ordinates[::-1].copy()
    got = kern.zero_pair_sum(xs, t_desc)
    expected = zero_pair_sum_kahan(xs, t_desc)
    assert np.allclose(got, expected, rtol=1e-12, atol=1e-12)


def _count_direct_rows(monkeypatch):
    """Count the points that the zero sum evaluates term by term."""
    rows = []
    direct = kern._direct_sums

    def counted(lx, t_desc):
        rows.append(lx.size)
        return direct(lx, t_desc)

    monkeypatch.setattr(kern, "_direct_sums", counted)
    return rows


def test_zero_sum_routes_match_a_30_digit_sum(zeros, monkeypatch):
    pytest.importorskip("mpmath")
    grid = 1_000_000.5 + np.arange(5000)
    at = np.array([0, 1, 613, 1777, 2500, 3331, 4096, 4999])
    t_desc = zeros.ordinates[::-1].copy()
    rows = _count_direct_rows(monkeypatch)
    interpolated = kern.zero_pair_sum(grid, t_desc)
    # the grid spans one or two windows, each summed at its 40 nodes only
    assert sum(rows) <= 2 * kern._NODES
    direct = kern.zero_pair_sum(grid[at], t_desc)
    assert rows[-1] == at.size
    expected = zero_pair_sum_mpmath(grid[at], t_desc)
    scale = np.max(np.abs(interpolated))
    err_direct = np.max(np.abs(direct - expected))
    err_interpolated = np.max(np.abs(interpolated[at] - expected))
    assert err_direct <= 1e-12 * scale
    assert err_interpolated <= 1e-12 * scale
    assert err_interpolated <= 2.0 * err_direct


def _run(n):
    """``n`` points within one window near 2 * 10^4."""
    return 20_050.5 + 0.25 * np.arange(n)


def _mixed_points():
    # dense runs (one of them across a window edge), sparse points,
    # repeated points and a run of exactly 2M points in one window
    return np.concatenate([
        1_000_000.5 + np.arange(3000),
        5.5 + 26.0 * np.arange(20),
        np.full(5, 777.25),
        _run(2 * kern._NODES),
        1e9 + 7.0 * np.arange(300),
    ])


@pytest.mark.parametrize("tile_rows", [1, 7, None])
def test_zero_pair_sum_independent_of_order_and_tiles(zeros, monkeypatch, tile_rows):
    xs = _mixed_points()
    t_desc = zeros.ordinates[::-1].copy()
    whole = kern.zero_pair_sum(xs, t_desc)
    if tile_rows is not None:
        # 7 rows per barycentric tile; 1 row per tile of the direct route
        monkeypatch.setattr(kern, "_TILE_TERMS", tile_rows * kern._NODES)
    perm = np.random.default_rng(tile_rows).permutation(xs.size)
    got = np.empty_like(whole)
    got[perm] = kern.zero_pair_sum(xs[perm], t_desc)
    assert np.array_equal(got, whole)


def test_sparse_points_keep_the_direct_bits(zeros):
    t_desc = zeros.ordinates[::-1].copy()
    xs = _mixed_points()
    got = kern.zero_pair_sum(xs, t_desc)
    # beside dense windows, the sparse points, the repeated ones and the
    # run of 2M points keep the bits each has on its own
    outside = xs < 999_999
    alone = [kern.zero_pair_sum(np.array([x]), t_desc)[0] for x in xs[outside]]
    assert np.array_equal(got[outside], alone)
    sparse = 5.5 + 26.0 * np.arange(20)
    assert np.array_equal(kern.zero_pair_sum(sparse, t_desc), alone[:20])


@pytest.mark.parametrize("n_run, rows", [(80, [100]), (81, [40, 20])])
def test_a_window_of_more_than_2m_points_is_interpolated(
    zeros, monkeypatch, n_run, rows
):
    xs = np.concatenate([5.5 + 26.0 * np.arange(20), _run(n_run)])
    counted = _count_direct_rows(monkeypatch)
    kern.zero_pair_sum(xs, zeros.ordinates[::-1].copy())
    assert counted == rows


def test_zero_pair_sum_of_no_zeros_or_no_points(zeros):
    no_zeros = np.empty(0)
    grid = 1_000_000.5 + np.arange(500)
    assert np.array_equal(kern.zero_pair_sum(grid, no_zeros), np.zeros(grid.size))
    for t_desc in (no_zeros, zeros.ordinates[::-1].copy()):
        out = kern.zero_pair_sum(np.empty(0), t_desc)
        assert out.shape == (0,) and out.dtype == np.float64


def test_barycentric_reproduces_polynomials_and_nodes():
    nodes = 13.8 + 0.003 * kern._chebyshev()[0]
    poly = np.polynomial.Polynomial([0.3, -2.0, 0.5, 4.0, -1.0, 2.5])
    values = poly((nodes - 13.8) / 0.003)
    ls = np.concatenate([13.797 + 0.006 * np.random.default_rng(0).random(200), nodes])
    got = kern._barycentric(ls, nodes, values)
    assert np.allclose(got, poly((ls - 13.8) / 0.003), rtol=0, atol=1e-13)
    # a point on a node takes the node's value, without dividing by zero
    assert np.array_equal(got[200:], values)


def test_format_rows_awkward_values():
    values = awkward_floats()
    assert kern.format_rows([values]) == csv_rows(values)
    # the ties round half to even: ...12|5 stays, ...37|5 goes up
    assert kern.format_rows([np.array([123456789012345.125, 123456789012345.375])]) == (
        "123456789012345.12\n123456789012345.38\n"
    )


def test_format_rows_columns_and_empty():
    x = np.arange(2.0, 40.0)
    columns = [x, np.sqrt(x), -x / 7.0, x * 1e-3]
    assert kern.format_rows(columns) == csv_rows(*columns)
    assert kern.format_rows([np.empty(0), np.empty(0)]) == ""


def test_format_rows_chunk_fits_in_l2():
    # one block of ``sample`` rows, as ``cli._write_table`` formats them
    x = np.arange(2.0, 4098.0)
    psi, smooth = ps.psi_series(4096), ps.smooth_part(x)
    columns = [x, psi, smooth, psi - smooth]
    want = kern.format_rows(columns)  # builds the tables outside the trace
    tracemalloc.start()
    try:
        got = kern.format_rows(columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want == csv_rows(*columns)
    # 1.7 MiB, each temporary dropped once the layout is past it; 3.85 MiB
    # when every one lived until the text was built
    assert peak < 3 * 2**20


@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=50))
@settings(max_examples=200, deadline=None)
def test_format_rows_matches_format_on_bit_patterns(bits):
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    assert kern.format_rows([values]) == csv_rows(values)


@given(st.lists(st.floats(1e-4, 1e17) | st.floats(-1e17, -1e-4), min_size=1, max_size=50))
@settings(max_examples=200, deadline=None)
def test_format_rows_matches_format_in_fixed_notation(floats):
    values = np.array(floats)
    assert kern.format_rows([values]) == csv_rows(values)


def _read_back(texts):
    """``parse_rows`` of one-column rows ``texts``."""
    data = "".join(f"{t}\n" for t in texts).encode()
    return kern.parse_rows(data, 1, (0,))


def _assert_reads_as_float(texts):
    (got,) = _read_back(texts)
    want = np.array([float(t) for t in texts])
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


def _decimal_ties():
    """Exact decimal midpoints between neighbouring float64 values: above
    2**e, below 2**e, and inside the binade at an even and an odd
    significand, for e = 40 ... 63; up to 2**52 they have a fraction."""
    ties = []
    for e in range(40, 64):
        top = Decimal(2) ** e
        ulp = Decimal(2) ** (e - 52)
        ties += [top - ulp / 4, top + ulp / 2, top + ulp * Decimal("1.5")]
        ties += [top * 2 - ulp / 2, top + ulp * Decimal("1000.5")]
    return [format(t.normalize(), "f") for t in ties]


def _next_to_powers_of_two():
    texts = []
    for e in range(-13, 57):
        v = 2.0**e
        for w in (np.nextafter(v, 0.0), v, np.nextafter(v, np.inf)):
            texts += [format(w, ".17g"), repr(float(w))]
    return [t for t in texts if "e" not in t]


def test_parse_rows_awkward_fields():
    ties = _decimal_ties()
    # the exact tie 2**53 + 1 rounds to the even 2**53, 2**53 + 3 up to
    # 2**53 + 4
    assert "9007199254740993" in ties and "9007199254740995" in ties
    fields = ["-0", "-0.000", "0", "0.0", "-0." + "0" * 11, "0." + "0" * 22]
    fields += ["1", "-2", "1024"]
    fields += ["1234567890123456789", "9999999999999999999", "-0.1234567890123456789"]
    fields += ["0.0000000000000000000001", "-0.0000012345678901234567",
               "0.1234567890123456789012", "1234567890123456789.0000000000000000000001"]
    fields += ["9" * 22, "12345678901234567890", "0.30000000000000004"]
    texts = fields + ties + _next_to_powers_of_two()
    _assert_reads_as_float(texts)
    (signs,) = _read_back(["-0", "-0.000", "0"])
    assert np.signbit(signs).tolist() == [True, True, False]
    (ties_read,) = _read_back(["9007199254740993", "9007199254740995"])
    assert ties_read.tolist() == [2.0**53, 2.0**53 + 4]


def test_parse_rows_reads_back_format_rows():
    values = awkward_floats()
    canonical = re.compile(r"-?[0-9]+(\.[0-9]+)?\n")
    lines = kern.format_rows([values]).splitlines(keepends=True)
    fixed = [line for line in lines if canonical.fullmatch(line)]
    assert len(fixed) > len(lines) // 2
    (got,) = kern.parse_rows("".join(fixed).encode(), 1, (0,))
    want = np.array([float(line) for line in fixed])
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()
    for line in lines:
        if line not in fixed:
            assert kern.parse_rows(line.encode(), 1, (0,)) is None


#: Integers of 1 ... 19 digits, each length equally likely.
_SIGNIFICANDS = st.integers(1, 19).flatmap(lambda n: st.integers(10 ** (n - 1), 10**n - 1))


@given(st.lists(
    st.tuples(st.booleans(), _SIGNIFICANDS, st.integers(0, 22)),
    min_size=1, max_size=50,
))
@settings(max_examples=300, deadline=None)
def test_parse_rows_matches_float_on_digit_strings(fields):
    texts = []
    for negative, digits, k in fields:
        text = str(digits).rjust(k + 1, "0")
        if k:
            text = text[:-k] + "." + text[-k:]
        texts.append("-" * negative + text)
    _assert_reads_as_float(texts)


@given(st.lists(
    st.floats(1e-4, 1e17, exclude_max=True) | st.floats(-1e17, -1e-4, exclude_min=True),
    min_size=1, max_size=50,
))
@settings(max_examples=200, deadline=None)
def test_parse_rows_matches_float_on_17_digit_and_shortest_text(floats):
    _assert_reads_as_float([format(v, ".17g") for v in floats])
    shortest = [repr(v) for v in floats]
    fixed = [t for t in shortest if "e" not in t]
    if fixed:
        _assert_reads_as_float(fixed)
    if len(fixed) < len(shortest):
        assert _read_back(shortest) is None


@pytest.mark.parametrize(
    "data",
    ["1.2.3\n", "--5\n", "-\n", ".5\n", "5.\n", "5-3\n", "-.5\n", "+5\n",
     " 5\n", "5 \n", "1e5\n", "nan\n", "inf\n", "5\r\n", "5 # note\n",
     "\n", "5\n\n6\n", "5", "1" * 23 + "\n", "0." + "1" * 23 + "\n",
     "1,2\n", "1\n2,3\n"],
)
def test_parse_rows_refuses_non_canonical_text(data):
    assert kern.parse_rows(data.encode(), 1, (0,)) is None


def test_parse_rows_columns_rows_and_empty():
    rows = ["2,0.5,-1,3.25", "-3,1e-5,0.125,-7", "4,2,3,5"]
    data = "".join(row + "\n" for row in rows).encode()
    # the second row's 1e-5 makes the text non-canonical
    assert kern.parse_rows(data, 4, (0, 3)) is None
    data = data.replace(b"1e-5", b"0.00001")
    want = np.loadtxt(data.decode().splitlines(), delimiter=",")
    got = kern.parse_rows(data, 4, (3, 0, 2))
    assert [c.tolist() for c in got] == [want[:, 3].tolist(), want[:, 0].tolist(), want[:, 2].tolist()]
    assert kern.parse_rows(data, 3, (0,)) is None
    assert kern.parse_rows(data, 6, (0,)) is None
    assert [c.size for c in kern.parse_rows(b"", 4, (0, 3))] == [0, 0]
