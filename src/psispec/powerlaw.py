"""Least-squares power-law fits to a spectrum in log-log coordinates."""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .spectral import PowerSpectrum

#: Default fit band in cycles per sample unit.
DEFAULT_BAND = (1e-3, 1e-1)


@dataclass(frozen=True, eq=False)
class PowerLawFit:
    """Result of fitting ``P(f) = amplitude * f ** exponent`` over a band."""

    amplitude: float
    exponent: float
    f_min: float
    f_max: float
    n_points: int
    n_excluded: int
    r_squared: float
    residual_rms: float

    def as_dict(self) -> dict:
        return {
            "a": self.amplitude,
            "b": self.exponent,
            "f_min": self.f_min,
            "f_max": self.f_max,
            "n_points": self.n_points,
            "r_squared": self.r_squared,
            "residual_rms": self.residual_rms,
        }


def fit_power_law(
    spectrum: PowerSpectrum,
    f_min: float = DEFAULT_BAND[0],
    f_max: float = DEFAULT_BAND[1],
) -> PowerLawFit:
    """Ordinary least squares on ``log10 P`` versus ``log10 f`` in a band.

    Grid points with nonpositive power are excluded from the regression and
    reported via ``n_excluded``.  Requires at least two usable points, and
    refuses a spectrum with any non-finite frequency or power.
    """
    if not 0.0 < f_min < f_max:
        raise DomainError(
            f"fit band must satisfy 0 < f_min < f_max, got [{f_min}, {f_max}]"
        )
    freqs = np.asarray(spectrum.freqs, dtype=np.float64)
    power = np.asarray(spectrum.power, dtype=np.float64)
    if not (np.all(np.isfinite(freqs)) and np.all(np.isfinite(power))):
        raise DomainError("spectrum holds a non-finite frequency or power")
    in_band = (freqs >= f_min) & (freqs <= f_max)
    usable = in_band & (power > 0.0)
    n_excluded = int(in_band.sum() - usable.sum())
    if usable.sum() < 2:
        raise DomainError(
            f"band [{f_min}, {f_max}] holds {int(usable.sum())} usable points; "
            "need at least 2"
        )
    lf = np.log10(freqs[usable])
    lp = np.log10(power[usable])
    if np.all(lf == lf[0]):
        raise DomainError(
            "all usable points share one frequency; slope is undetermined"
        )
    slope, intercept = np.polyfit(lf, lp, 1)
    resid = lp - (intercept + slope * lf)
    ss_res = float(np.dot(resid, resid))
    ss_tot = float(np.dot(lp - lp.mean(), lp - lp.mean()))
    if ss_tot > 0.0:
        r_squared = 1.0 - ss_res / ss_tot
    else:
        # a perfectly flat spectrum: the fit explains everything there is
        r_squared = 1.0 if ss_res < 1e-20 else 0.0
    return PowerLawFit(
        amplitude=float(10.0 ** intercept),
        exponent=float(slope),
        f_min=float(f_min),
        f_max=float(f_max),
        n_points=int(usable.sum()),
        n_excluded=n_excluded,
        r_squared=float(r_squared),
        residual_rms=float(math.sqrt(ss_res / usable.sum())),
    )
