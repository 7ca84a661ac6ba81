"""The five kernels against independent scalar references."""

import math

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
    zero_pair_sum_kahan,
)


def _assert_same_mangoldt(got, expected):
    expected = np.asarray(expected)
    assert np.array_equal(got == 0.0, expected == 0.0)
    assert np.allclose(got, expected, rtol=1e-15, atol=0)


@pytest.mark.parametrize("lo, hi", [(1, 513), (2, 10_001)])
def test_mangoldt_segment_matches_trial_division(lo, hi):
    primes, logs = _base_primes(hi - 1)
    lam = kern.mangoldt_segment(lo, hi, primes, logs)
    _assert_same_mangoldt(lam, mangoldt_by_trial_division(hi - 1)[lo:hi])


def test_mangoldt_segment_near_1e6_matches_factoring():
    lo, hi = 999_950, 1_000_051
    primes, logs = _base_primes(hi - 1)
    lam = kern.mangoldt_segment(lo, hi, primes, logs)
    expected = [mangoldt_by_factoring(m) for m in range(lo, hi)]
    # the range holds nine primes among its composites
    assert sum(v > 0.0 for v in expected) == 9
    _assert_same_mangoldt(lam, expected)


def test_prefix_matches_fsum():
    lam = ps.sieve_prime_power_logs(10**5)[1:]
    out, s, c = kern.half_jump_prefix(lam, 0.0, 0.0)
    assert abs((s - c) - math.fsum(lam.tolist())) < 1e-10
    for i in (10, 5000, 99_998):
        exact = math.fsum(lam[: i + 1].tolist()) - 0.5 * lam[i]
        assert abs(out[i] - exact) < 1e-10


def test_prefix_carry_chains_across_segments():
    lam = ps.sieve_prime_power_logs(20_000)[1:]
    whole, _, _ = kern.half_jump_prefix(lam, 0.0, 0.0)
    mid = lam.size // 2
    first, s, c = kern.half_jump_prefix(lam[:mid], 0.0, 0.0)
    second, _, _ = kern.half_jump_prefix(lam[mid:].copy(), s, c)
    glued = np.concatenate([first, second])
    assert float(np.max(np.abs(glued - whole))) < 1e-10


def test_burg_matches_scalar_recursion():
    y = ps.remove_mean(ar1_sample(42, 20_000, coeff=0.8))
    for order in (1, 2, 5):
        a, e = kern.burg_recursion(y, order)
        a_ref, e_ref = burg_scalar(y, order)
        assert np.allclose(a, a_ref, rtol=1e-9, atol=1e-12)
        assert e == pytest.approx(e_ref, rel=1e-9)


def test_burg_matches_scalar_recursion_small():
    y = ps.remove_mean(ar1_sample(7, 512, coeff=0.5))
    a, e = kern.burg_recursion(y, 3)
    a_ref, e_ref = burg_scalar(y, 3)
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
