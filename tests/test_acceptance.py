"""Acceptance gate: the ten shipping criteria, one pass/fail line each.

Run with ``pytest -v`` (the project config adds ``-rA`` so every line below
lands in the captured-output section of the report). Each test prints

    criterion N: PASS - <measured values>

or the matching FAIL line, then asserts.
"""

import math

import numpy as np
import pytest

import oracles
import psispec as ps
from conftest import ar1_sample


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def demeaned():
    return {
        n: ps.remove_mean(ps.fluctuation_series(n))
        for n in (10**3, 10**4, 10**5)
    }


@pytest.fixture(scope="module")
def mem_spectra(demeaned):
    return {
        n: ps.ar_psd(ps.burg_fit(y)) for n, y in demeaned.items()
    }


@pytest.fixture(scope="module")
def fits(mem_spectra):
    return {n: ps.fit_power_law(spec) for n, spec in mem_spectra.items()}


@pytest.fixture(scope="module")
def fit_1e6():
    y = ps.remove_mean(ps.fluctuation_series(10**6))
    return ps.fit_power_law(ps.ar_psd(ps.burg_fit(y)))


def test_criterion_1_exact_psi_values():
    grid = ps.psi_series(11)  # x = 2 .. 12
    psi10, psi11, psi12 = grid[8], grid[9], grid[10]
    e10 = abs(psi10 - math.log(2520.0))
    e12 = abs(psi12 - math.log(27720.0))
    e11 = abs(psi11 - 0.5 * (math.log(2520.0) + math.log(27720.0)))
    ok = e10 < 1e-12 and e11 < 1e-12 and e12 < 1e-12
    _report(
        1,
        ok,
        f"psi(10)-ln2520 = {e10:.2e}, psi(12)-ln27720 = {e12:.2e}, "
        f"psi(11)-midpoint = {e11:.2e} (tol 1e-12)",
    )


def test_criterion_2_sieve_matches_brute_force():
    limit = 10**4
    brute = oracles.psi_grid_brute(limit)  # psi(1 .. limit)
    grid = ps.psi_series(limit - 1)  # x = 2 .. limit
    dev = float(np.max(np.abs(grid - brute[1:])))
    ok = dev < 1e-10
    _report(
        2, ok, f"max |psi_sieve - psi_brute| over x <= 1e4 is {dev:.3e} (tol 1e-10)"
    )


def test_criterion_3_headline_exponent(fits, fit_1e6):
    b5 = fits[10**5].exponent
    b6 = fit_1e6.exponent
    ok = -2.1 <= b5 <= -1.9 and -2.1 <= b6 <= -1.9
    _report(
        3, ok, f"b(N=1e5) = {b5:.4f}, b(N=1e6) = {b6:.4f} (need [-2.1, -1.9])"
    )


def test_criterion_4_estimator_consistency(demeaned, mem_spectra):
    welch = ps.welch_psd(demeaned[10**5])
    mem = mem_spectra[10**5]
    mask = (welch.freqs >= 1e-3) & (welch.freqs <= 1e-1) & (welch.power > 0)
    log_f = np.log10(welch.freqs[mask])
    log_mem = np.interp(log_f, np.log10(mem.freqs), np.log10(mem.power))
    med = float(np.median(np.abs(log_mem - np.log10(welch.power[mask]))))
    ok = med < 0.5
    _report(
        4,
        ok,
        f"median |log10 P_mem - log10 P_welch| over [1e-3, 1e-1] at N=1e5 "
        f"is {med:.4f} (tol 0.5)",
    )


def test_criterion_5_amplitude_grows_with_sample_size(fits):
    f_mid = math.sqrt(1e-3 * 1e-1)  # geometric centre of the fit band
    amp = {n: fits[n].amplitude * f_mid ** fits[n].exponent
           for n in (10**3, 10**4, 10**5)}
    ok = amp[10**3] < amp[10**4] < amp[10**5]
    _report(
        5,
        ok,
        f"in-band fitted amplitude P(1e-2): N=1e3 {amp[10**3]:.1f} < "
        f"N=1e4 {amp[10**4]:.1f} < N=1e5 {amp[10**5]:.1f}",
    )


def test_criterion_6_aliasing_tail_lift(mem_spectra, fits):
    """MEM(1)'s tail above its own fitted line: the lift of an AR(1) shape,
    which has no zero.  The emitted half-jump series dips in its tail
    (criterion 10), which this lens cannot show."""
    spec = mem_spectra[10**5]
    fit = fits[10**5]
    mask = (spec.freqs >= 0.3) & (spec.freqs <= 0.5)
    line = fit.amplitude * spec.freqs[mask] ** fit.exponent
    resid = np.log10(spec.power[mask]) - np.log10(line)
    mean_resid = float(np.mean(resid))
    ok = mean_resid > 0.0
    _report(
        6,
        ok,
        f"mean log10 residual of MEM(1)'s AR(1) shape above its fitted line "
        f"over [0.3, 0.5] is {mean_resid:+.4f} (need > 0)",
    )


def test_criterion_7_zero_sum_cross_validation(zeros):
    pts = 5.5 + 26.0 * np.arange(20)  # 20 half-integer points in [2, 500]
    direct = ps.fluctuation_at(pts)
    err = {
        k: float(np.mean(np.abs(ps.psi_fluc_from_zeros(pts, zeros[:k]) - direct)))
        for k in (10, 100, 2000)
    }
    recon = ps.psi_fluc_from_zeros(pts, zeros)
    corr = float(np.corrcoef(recon, direct)[0, 1])
    ok = err[10] > err[100] > err[2000] and corr > 0.9
    _report(
        7,
        ok,
        f"mean |recon - direct|: K=10 {err[10]:.4f} > K=100 {err[100]:.4f} > "
        f"K=2000 {err[2000]:.4f}; corr at K=2000 is {corr:.4f} (need > 0.9)",
    )


def test_criterion_8_analytic_consistency():
    parts = []
    ratios_ok = True
    for f in (10.0, 1e2, 1e3):
        ratio = 2.0 * oracles.fourier_mag_asymptotic(f) ** 2 / ps.analytic_psd(f)
        ratios_ok = ratios_ok and (1.0 - 1.0 / f**2) <= ratio <= 1.0
        parts.append(f"ratio({f:g}) = {ratio:.8f}")
    h = 1.001
    devs = []
    for f in (1e2, 1e4, 1e6):
        s = (
            math.log10(ps.analytic_psd(f * h)) - math.log10(ps.analytic_psd(f / h))
        ) / (math.log10(f * h) - math.log10(f / h))
        devs.append(abs(s + 2.0))
    slopes_ok = devs[0] > devs[1] > devs[2]
    ok = ratios_ok and slopes_ok
    _report(
        8,
        ok,
        "; ".join(parts)
        + f" (need within [1 - 1/f^2, 1]); |slope+2| {devs[0]:.4f} > "
        f"{devs[1]:.4f} > {devs[2]:.4f}",
    )


def test_criterion_9_spectral_normalization():
    rng = np.random.default_rng(2718)
    w = rng.standard_normal(2**17)
    spec = ps.welch_psd(w)
    df = spec.freqs[1] - spec.freqs[0]
    variance = float(w.var())
    rel = abs(float(np.sum(spec.power) * df) - variance) / variance
    y = ps.remove_mean(ar1_sample(1234, 10**4))
    a_burg = ps.burg_fit(y).coeff
    a_yw = oracles.yule_walker(y, order=1)[0]
    diff = abs(abs(a_burg) - abs(a_yw))
    ok = rel < 0.05 and diff < 0.05
    _report(
        9,
        ok,
        f"Welch integral vs variance: rel err {rel:.5f} (tol 0.05); "
        f"Burg |a1| = {abs(a_burg):.5f} vs Yule-Walker {abs(a_yw):.5f}, "
        f"diff {diff:.5f} (tol 0.05)",
    )


def test_criterion_10_welch_tail_follows_the_half_jump_law():
    """Welch's tail against P(f) = (ln(Nf) - 1) cos^2(pi f) / (2 sin^2(pi f)).

    Each step of the emitted psi averages two terms of Lambda, with power
    gain cos^2(pi f), which is 0 at f = 1/2.  Over [0.3, 0.5), the f = 0.5
    bin left out, the mean log10(P / law) measured -0.173 at N = 1e5 and
    -0.124 at 1e6, and -1.46 and -1.41 against the law without cos^2: the
    half-jump dip.
    """
    ok = True
    parts = []
    for exp in (5, 6):
        n = 10**exp
        spec = ps.welch_psd(ps.fluctuation_series(n), segment_len=4096)
        tail = (spec.freqs >= 0.3) & (spec.freqs < 0.5)
        f, power = spec.freqs[tail], spec.power[tail]
        walk = (np.log(n * f) - 1.0) / (2.0 * np.sin(np.pi * f) ** 2)
        law = walk * np.cos(np.pi * f) ** 2
        with_cos = float(np.mean(np.log10(power / law)))
        without = float(np.mean(np.log10(power / walk)))
        ok = ok and abs(with_cos) <= 0.3 and without <= -1.0
        parts.append(f"N=1e{exp} {with_cos:+.4f} (without cos^2 {without:+.4f})")
    _report(
        10,
        ok,
        "mean log10(P_welch / law) over [0.3, 0.5) at segment 4096: "
        + ", ".join(parts)
        + " (need |mean| <= 0.3, and <= -1.0 without cos^2)",
    )
