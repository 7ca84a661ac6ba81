import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import psispec as ps
from psispec.errors import DataFormatError, DomainError
from psispec.zeta import TWO_PI

import oracles


# ---------------------------------------------------------------------------
# Zero table parsing and provenance
# ---------------------------------------------------------------------------


def test_bundled_table(zeros):
    assert zeros.count == 2000
    assert zeros.ordinates[0] == pytest.approx(14.134725142, abs=1e-9)
    assert zeros.ordinates[0] > 14.0
    assert np.all(np.diff(zeros.ordinates) > 0)
    assert np.all(zeros.ordinates > 0)
    assert zeros.ordinates[-1] == pytest.approx(2515.2864829, abs=1e-6)


@pytest.mark.parametrize("index", [0, 1, 2, 99, 499, 999, 1499, 1999])
def test_bundled_ordinates_are_genuine_zeros(zeros, index):
    pytest.importorskip("mpmath")
    assert oracles.is_zeta_zero_ordinate(float(zeros.ordinates[index]))


def test_parse_with_comments_and_blanks(tmp_path):
    p = tmp_path / "z.txt"
    p.write_text("# header\n\n14.134725142\n# middle\n21.022039639\n\n")
    z = ps.load_zeros(p)
    assert z.count == 2
    assert z.source == str(p)


def test_parse_takes_comments_after_an_ordinate(tmp_path):
    p = tmp_path / "z.txt"
    p.write_text("14.134725142 # first zero\n21.022039639#second\n# c\n25.0 # x\n")
    assert ps.load_zeros(p).ordinates.tolist() == [14.134725142, 21.022039639, 25.0]
    # the lines after a trailing comment keep their numbers
    p.write_text("14.134725142 # first zero\n21.0 # 2\n\n3e1#\n20.0 # 5\n")
    with pytest.raises(DataFormatError, match="line 5: ordinates must be"):
        ps.load_zeros(p)
    p.write_text("14.134725142 # first zero\n21.0, 25.0 # two\n")
    with pytest.raises(DataFormatError, match="line 2: not a decimal ordinate"):
        ps.load_zeros(p)


def test_parse_rejects_descending(tmp_path):
    p = tmp_path / "z.txt"
    p.write_text("21.0\n14.1\n")
    with pytest.raises(DataFormatError, match="line 2"):
        ps.load_zeros(p)


def test_parse_rejects_non_numeric(tmp_path):
    p = tmp_path / "z.txt"
    p.write_text("14.13\nnot-a-number\n")
    with pytest.raises(DataFormatError, match="line 2"):
        ps.load_zeros(p)


@pytest.mark.parametrize(
    "text, line",
    [
        # float reads it as 1.41e16, so the next ordinate would be named
        ("14_134725141734693\n21.0\n", 1),
        ("14.13\n\u0662\u0661.02\n", 2),
        ("14.13\n21.0\n\uff12\uff15.01\n", 3),
        ("14.13\n21.0,25.01\n", 2),
    ],
)
def test_parse_rejects_digit_separators_and_other_scripts(tmp_path, text, line):
    p = tmp_path / "z.txt"
    p.write_text(text, encoding="utf-8")
    with pytest.raises(DataFormatError, match=f"line {line}: not a decimal ordinate"):
        ps.load_zeros(p)


def test_parse_rejects_nonpositive(tmp_path):
    p = tmp_path / "z.txt"
    p.write_text("# c\n-3.0\n")
    with pytest.raises(DataFormatError, match="line 2"):
        ps.load_zeros(p)


def test_parse_rejects_small_first_ordinate(tmp_path):
    p = tmp_path / "z.txt"
    p.write_text("5.0\n21.0\n")
    with pytest.raises(DataFormatError, match="line 1"):
        ps.load_zeros(p)


def test_parse_numbers_lines_at_newlines_only(tmp_path):
    # a form feed or a vertical tab ends no line; "\r" and "\r\n" do
    p = tmp_path / "z.txt"
    p.write_bytes(b"# page\x0cbreak\r14.13\x0b\r\n21.0\r13.0\n")
    with pytest.raises(DataFormatError, match="line 4: ordinates must be"):
        ps.load_zeros(p)
    p.write_bytes(b"# page\x0cbreak\r14.13\r\n21.0\xff\n")
    with pytest.raises(DataFormatError, match="line 3: not UTF-8 text"):
        ps.load_zeros(p)


def test_parse_rejects_empty_and_missing(tmp_path):
    p = tmp_path / "empty.txt"
    p.write_text("# only comments\n\n")
    with pytest.raises(DataFormatError, match="no ordinates"):
        ps.load_zeros(p)
    with pytest.raises(DataFormatError, match="not found"):
        ps.load_zeros(tmp_path / "missing.txt")


# ---------------------------------------------------------------------------
# Zero count against the average density (1/(2 pi)) ln(t/(2 pi))
# ---------------------------------------------------------------------------


def test_density_integral_matches_count(zeros):
    def integral(t):  # closed form of the density antiderivative
        return (t * math.log(t / TWO_PI) - t) / TWO_PI

    count = int((zeros.ordinates <= 100.0).sum())
    predicted = integral(100.0) - integral(TWO_PI)
    assert count == 29
    assert abs(count - predicted) <= 2.0


def test_density_count_consistency_to_table_top(zeros):
    """Count vs integral stays within a slowly growing error up the table."""

    def integral(t):
        return (t * math.log(t / TWO_PI) - t) / TWO_PI

    for top in (100.0, 500.0, 1000.0, 2500.0):
        count = int((zeros.ordinates <= top).sum())
        predicted = integral(top) - integral(TWO_PI)
        assert abs(count - predicted) < 2.0 + top / 500.0


# ---------------------------------------------------------------------------
# Truncated reconstruction
# ---------------------------------------------------------------------------


def test_reconstruction_empty_sum(zeros):
    for x in (2.0, 10.0, 499.5):
        assert ps.psi_fluc_from_zeros(x, zeros, 0) == 0.0


def test_reconstruction_at_half_jump_point(zeros):
    direct = -0.33513392101193595  # fluctuation at x = 10
    recon = ps.psi_fluc_from_zeros(10.0, zeros, 2000)
    assert abs(recon - direct) < 0.01


def test_reconstruction_converges_off_grid(zeros):
    direct = ps.fluctuation_at(10.5)
    err_10 = abs(ps.psi_fluc_from_zeros(10.5, zeros, 10) - direct)
    err_2000 = abs(ps.psi_fluc_from_zeros(10.5, zeros, 2000) - direct)
    assert err_2000 < err_10
    assert err_2000 < 0.05


def test_reconstruction_convergence_single_point(zeros):
    direct = ps.fluctuation_at(100.5)
    errs = [
        abs(ps.psi_fluc_from_zeros(100.5, zeros, k) - direct)
        for k in (50, 500, 2000)
    ]
    assert errs[2] < errs[0]


@pytest.mark.filterwarnings("error")
def test_reconstruction_validation(zeros):
    with pytest.raises(DomainError):
        ps.psi_fluc_from_zeros(10.0, zeros, 2001)
    with pytest.raises(DomainError):
        ps.psi_fluc_from_zeros(10.0, zeros, -1)
    with pytest.raises(DomainError):
        ps.psi_fluc_from_zeros(1.5, zeros, 10)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            ps.psi_fluc_from_zeros(bad, zeros, 10)
        with pytest.raises(DomainError):
            ps.psi_fluc_from_zeros(np.array([2.5, bad]), zeros, 10)


def test_reconstruction_array_input(zeros):
    xs = np.array([2.5, 10.5, 100.5])
    out = ps.psi_fluc_from_zeros(xs, zeros, 100)
    assert out.shape == (3,)
    assert out[1] == pytest.approx(
        ps.psi_fluc_from_zeros(10.5, zeros, 100), abs=1e-12
    )


@pytest.mark.parametrize(
    "x",
    [
        np.array([[10.5, 11.5], [12.5, 13.5]]),
        np.array(10.5),
        # dense enough in ln x to take the interpolated route
        (1_000_000.5 + np.arange(240)).reshape(2, 3, 40),
    ],
)
def test_reconstruction_keeps_the_shape_of_its_input(zeros, x):
    out = ps.psi_fluc_from_zeros(x, zeros, 2000)
    assert np.shape(out) == np.shape(ps.fluctuation_at(x)) == x.shape
    flat = ps.psi_fluc_from_zeros(x.ravel(), zeros, 2000)
    assert np.array_equal(np.ravel(out), flat)


@given(
    x=st.floats(min_value=2.0, max_value=1000.0),
    k=st.integers(min_value=1, max_value=2000),
)
@settings(max_examples=30, deadline=None)
def test_conjugate_pair_realness(zeros, x, k):
    """The real closed form equals -2 Re(sum x^rho / rho) over rho = 1/2 + i t."""
    closed = ps.psi_fluc_from_zeros(x, zeros, k)
    rho = 0.5 + 1j * zeros.ordinates[:k]
    complex_route = -2.0 * float(np.sum((x**rho / rho).real))
    assert abs(closed - complex_route) < 1e-12 * max(1.0, abs(closed))


# ---------------------------------------------------------------------------
# Analytic asymptotics
# ---------------------------------------------------------------------------


def test_mag_psd_identity():
    mag = oracles.fourier_mag_asymptotic
    for f in (10.0, 100.0, 1000.0):
        ratio = 2.0 * mag(f) ** 2 / ps.analytic_psd(f)
        assert ratio == pytest.approx(f * f / (0.25 + f * f), rel=1e-12)
        assert 1.0 - 1.0 / (f * f) <= ratio <= 1.0
    assert 2.0 * mag(100.0) ** 2 / ps.analytic_psd(100.0) == pytest.approx(
        0.999975, abs=1e-6
    )


@pytest.mark.filterwarnings("error")
def test_psd_values_and_domain():
    assert ps.analytic_psd(TWO_PI) == 0.0
    expected = 2.0 * math.log(0.1 / TWO_PI) ** 2 / 0.01
    assert ps.analytic_psd(0.1) == pytest.approx(expected, rel=1e-15)
    assert ps.analytic_psd(0.1) == pytest.approx(3.43e3, rel=5e-3)
    with pytest.raises(DomainError):
        ps.analytic_psd(0.0)
    with pytest.raises(DomainError):
        ps.analytic_psd(-2.0)
    with pytest.raises(DomainError):
        ps.analytic_psd(np.array([1.0, math.nan]))
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(DomainError):
            ps.analytic_psd(bad)
    with pytest.raises(DomainError):
        ps.analytic_psd(np.array([1.0, math.inf]))


def _local_slope(f, h=1.001):
    hi = ps.analytic_psd(f * h)
    lo = ps.analytic_psd(f / h)
    return math.log(hi / lo) / (2.0 * math.log(h))


def test_psd_local_slope_approaches_minus_two_from_above():
    slopes = [_local_slope(f) for f in (1e2, 1e4, 1e6)]
    for f, s in zip((1e2, 1e4, 1e6), slopes):
        assert s == pytest.approx(-2.0 + 2.0 / math.log(f / TWO_PI), abs=1e-5)
        assert s > -2.0  # approaches -2 from above
    gaps = [abs(s + 2.0) for s in slopes]
    assert gaps[2] < gaps[1] < gaps[0]


def test_analytic_spectrum_grid():
    spec = ps.analytic_spectrum(TWO_PI, 100.0, n_freq=64)
    assert spec.freqs[0] == TWO_PI and spec.freqs[-1] == 100.0
    assert spec.power[0] == 0.0
    assert np.all(spec.power >= 0.0)
    assert np.all(np.diff(spec.freqs) > 0)
    with pytest.raises(DomainError):
        ps.analytic_spectrum(0.0, 1.0)
    with pytest.raises(DomainError):
        ps.analytic_spectrum(0.5, 0.1)
    with pytest.raises(DomainError):
        ps.analytic_spectrum(1e-3, 1e-1, n_freq=1)


def test_analytic_spectrum_needs_a_finite_band():
    with pytest.raises(DomainError, match="f_max must be finite"):
        ps.analytic_spectrum(1.0, math.inf)
    with pytest.raises(DomainError):
        ps.analytic_spectrum(math.nan, 1.0)


def test_scalar_inputs_give_floats_and_sequences_give_arrays(zeros):
    funcs = [
        ps.smooth_part,
        ps.fluctuation_at,
        lambda x: ps.psi_fluc_from_zeros(x, zeros, 100),
        ps.analytic_psd,
    ]
    for fn in funcs:
        for scalar in (10.5, 10, np.float64(10.5), np.array(10.5)):
            assert type(fn(scalar)) is float
        for seq in ([10.5, 20.5], np.array([10.5, 20.5])):
            out = fn(seq)
            assert isinstance(out, np.ndarray) and out.shape == (2,)
        out = fn([10.5])
        assert isinstance(out, np.ndarray) and out.shape == (1,)
