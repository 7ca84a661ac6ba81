import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import psispec as ps
from psispec.errors import DomainError
from psispec.spectral import PowerSpectrum


def _spectrum(freqs, power):
    freqs = np.asarray(freqs, dtype=np.float64)
    return PowerSpectrum(
        freqs=freqs,
        power=np.asarray(power, dtype=np.float64),
        estimator={"method": "test"},
    )


@pytest.fixture()
def noisy_spectrum():
    """A deterministic roughly-1/f^2 spectrum with scatter."""
    rng = np.random.default_rng(123)
    freqs = np.logspace(-3.5, np.log10(0.5), 300)
    power = 2.0 * freqs**-1.9 * np.exp(0.2 * rng.standard_normal(freqs.size))
    return _spectrum(freqs, power)


def test_exact_recovery_of_noiseless_power_law():
    freqs = np.logspace(-3, -1, 64)
    fit = ps.fit_power_law(_spectrum(freqs, 3.0 * freqs**-2.0))
    assert abs(fit.exponent + 2.0) < 1e-10
    assert fit.amplitude == pytest.approx(3.0, rel=1e-10)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.residual_rms < 1e-12
    assert fit.n_points == 64 and fit.n_excluded == 0


def test_constant_spectrum():
    freqs = np.logspace(-3, -1, 50)
    fit = ps.fit_power_law(_spectrum(freqs, np.full(50, 5.0)))
    assert abs(fit.exponent) < 1e-12
    assert fit.amplitude == pytest.approx(5.0, rel=1e-12)
    assert fit.r_squared == 1.0


def test_band_endpoints_inclusive():
    freqs = np.array([1e-3, 1e-2, 1e-1, 0.3])
    fit = ps.fit_power_law(_spectrum(freqs, 7.0 * freqs**-1.5))
    assert fit.n_points == 3  # 0.3 lies outside the default band


def test_nonpositive_power_excluded_and_counted(noisy_spectrum):
    power = noisy_spectrum.power.copy()
    band = (noisy_spectrum.freqs >= 1e-3) & (noisy_spectrum.freqs <= 1e-1)
    idx = np.flatnonzero(band)[:3]
    power[idx[0]] = 0.0
    power[idx[1]] = -4.0
    damaged = _spectrum(noisy_spectrum.freqs, power)
    fit = ps.fit_power_law(damaged)
    clean = ps.fit_power_law(noisy_spectrum)
    assert fit.n_excluded == 2
    assert fit.n_points == clean.n_points - 2


def test_fit_fields_and_report_keys(noisy_spectrum):
    fit = ps.fit_power_law(noisy_spectrum)
    assert fit.amplitude > 0
    assert 0.0 <= fit.r_squared <= 1.0
    assert fit.f_min == 1e-3 and fit.f_max == 1e-1
    assert fit.n_points >= 2
    report = fit.as_dict()
    assert list(report) == [
        "a",
        "b",
        "f_min",
        "f_max",
        "n_points",
        "r_squared",
        "residual_rms",
    ]
    assert report["a"] == fit.amplitude and report["b"] == fit.exponent


def test_validation():
    freqs = np.logspace(-3, -1, 16)
    spec = _spectrum(freqs, 3.0 * freqs**-2.0)
    with pytest.raises(DomainError):
        ps.fit_power_law(spec, f_min=0.2, f_max=0.1)
    with pytest.raises(DomainError):
        ps.fit_power_law(spec, f_min=0.0, f_max=0.1)
    with pytest.raises(DomainError):
        ps.fit_power_law(spec, f_min=0.3, f_max=0.5)  # no points in band
    dead = _spectrum(freqs, np.zeros(16))
    with pytest.raises(DomainError):
        ps.fit_power_law(dead)  # nothing usable


@pytest.mark.parametrize("column", ["freqs", "power"])
def test_non_finite_points_are_refused(column):
    # a NaN frequency fell out of the band uncounted, and a NaN power was
    # counted as nonpositive
    columns = {"freqs": np.array([1e-3, 1e-2, 1e-1])}
    columns["power"] = 3.0 * columns["freqs"] ** -2.0
    columns[column][1] = np.nan
    with pytest.raises(DomainError, match="non-finite frequency or power"):
        ps.fit_power_law(_spectrum(columns["freqs"], columns["power"]))


def test_usable_points_at_one_frequency_are_refused():
    spec = _spectrum(np.full(3, 1e-2), [1.0, 2.0, 3.0])
    with pytest.raises(DomainError, match="all usable points share one frequency"):
        ps.fit_power_law(spec)


@given(c=st.floats(min_value=1e-3, max_value=1e3))
@settings(max_examples=50, deadline=None)
def test_scale_equivariance(c):
    rng = np.random.default_rng(7)
    freqs = np.logspace(-3, -1, 80)
    power = freqs**-2.1 * np.exp(0.1 * rng.standard_normal(80))
    base = ps.fit_power_law(_spectrum(freqs, power))
    scaled = ps.fit_power_law(_spectrum(freqs, c * power))
    assert scaled.exponent == pytest.approx(base.exponent, abs=1e-10)
    assert scaled.amplitude == pytest.approx(c * base.amplitude, rel=1e-9)
    assert scaled.r_squared == pytest.approx(base.r_squared, abs=1e-9)


@given(s=st.floats(min_value=0.1, max_value=10.0))
@settings(max_examples=50, deadline=None)
def test_frequency_rescaling_equivariance(s):
    rng = np.random.default_rng(8)
    freqs = np.logspace(-3, -1, 80)
    power = 2.0 * freqs**-1.8 * np.exp(0.1 * rng.standard_normal(80))
    base = ps.fit_power_law(_spectrum(freqs, power))
    moved = ps.fit_power_law(
        _spectrum(s * freqs, power), f_min=s * 1e-3, f_max=s * 1e-1
    )
    assert moved.exponent == pytest.approx(base.exponent, abs=1e-9)
    assert moved.amplitude == pytest.approx(
        base.amplitude * s ** (-base.exponent), rel=1e-7
    )
