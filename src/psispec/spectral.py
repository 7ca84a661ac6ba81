"""Power spectral density estimation.

Two estimators under one normalization convention (one-sided density,
``sum P * df ~= variance``):

* ``burg_fit`` + ``ar_psd`` - maximum-entropy spectrum of an
  autoregressive model fitted by Burg's recursion; and
* ``welch_psd`` - averaged modified periodograms.

Both report frequency in cycles per unit of the sample spacing ``dx``;
the usable axis ends at the Nyquist frequency ``0.5 / dx``.
"""

from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import DegenerateInputError, DomainError


@dataclass(frozen=True, eq=False)
class ArModel:
    """Autoregressive model ``x[t] = -sum_k coeffs[k] x[t-k] + eps[t]``."""

    order: int
    coeffs: np.ndarray
    noise_var: float
    dx: float
    n_samples: int = 0


@dataclass(frozen=True, eq=False)
class PowerSpectrum:
    """One-sided power spectral density sampled on ``freqs``."""

    freqs: np.ndarray
    power: np.ndarray
    nyquist: float
    estimator: dict = field(default_factory=dict)


def _as_samples(series):
    """Accept a GridSeries-like object (``values`` and ``dx``) or a plain
    sequence, whose spacing is then 1."""
    values = getattr(series, "values", series)
    dx = float(getattr(series, "dx", 1.0))
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise DomainError("expected a one-dimensional real series")
    return arr, dx


def remove_mean(series) -> np.ndarray:
    """Return the series with its arithmetic mean subtracted."""
    arr, _ = _as_samples(series)
    if arr.size == 0:
        raise DomainError("cannot demean an empty series")
    return arr - arr.mean()


def burg_fit(series, order: int = 1) -> ArModel:
    """Fit an AR(order) model by Burg's method (maximum entropy).

    The recursion minimizes forward plus backward prediction error at each
    stage, which keeps every reflection coefficient within [-1, 1] and the
    resulting model stable.
    """
    arr, dx = _as_samples(series)
    if order < 1:
        raise DomainError(f"autoregressive order must be >= 1, got {order}")
    if arr.size < order + 1:
        raise DomainError(
            f"need more than {order} samples to fit order {order}, got {arr.size}"
        )
    if np.all(arr == arr[0]):
        raise DegenerateInputError(
            "series is constant; an autoregressive model is undetermined"
        )
    coeffs, noise_var = _kernels.burg_recursion(arr, order)
    return ArModel(
        order=order,
        coeffs=coeffs,
        noise_var=float(noise_var),
        dx=dx,
        n_samples=int(arr.size),
    )


def ar_psd(model: ArModel, n_freq: int = 512, f_min: float = 1e-4) -> PowerSpectrum:
    """Evaluate the AR model's one-sided density on a log frequency grid.

    ``P(f) = 2 noise_var dx / |1 + sum_k a_k exp(-2 pi i k f dx)|^2`` on
    ``n_freq`` points log-spaced from ``f_min`` to Nyquist.
    """
    nyquist = 0.5 / model.dx
    if n_freq < 2:
        raise DomainError(f"need at least two frequency points, got {n_freq}")
    if not 0.0 < f_min < nyquist:
        raise DomainError(
            f"f_min must lie in (0, {nyquist}) cycles per sample unit, got {f_min}"
        )
    freqs = np.logspace(np.log10(f_min), np.log10(nyquist), n_freq)
    # pin the endpoints: 10**log10(x) can land one ulp off x
    freqs[0] = f_min
    freqs[-1] = nyquist
    k = np.arange(1, model.order + 1)
    phases = np.exp(-2j * np.pi * model.dx * np.outer(freqs, k))
    denom = np.abs(1.0 + phases @ model.coeffs) ** 2
    power = 2.0 * model.noise_var * model.dx / denom
    return PowerSpectrum(
        freqs=freqs,
        power=power,
        nyquist=nyquist,
        estimator={
            "method": "mem",
            "order": model.order,
            "n_samples": model.n_samples,
        },
    )


def default_segment_len(n_samples: int) -> int:
    """Largest power of two not exceeding n_samples / 8 (at least 8)."""
    target = max(n_samples // 8, 8)
    return 1 << (target.bit_length() - 1)


def welch_psd(
    series,
    segment_len: int | None = None,
    overlap: float = 0.5,
    window: str = "hann",
) -> PowerSpectrum:
    """Welch's averaged-periodogram estimate of the one-sided density.

    Segments of ``segment_len`` samples (a power of two; default the largest
    power of two <= n/8) advance by ``segment_len * (1 - overlap)``.  Each is
    tapered by a periodic window, transformed, and the squared magnitudes are
    averaged and scaled by ``1 / (fs * sum w^2)`` so the result is a density;
    interior bins are doubled to fold negative frequencies in.
    """
    arr, dx = _as_samples(series)
    if segment_len is None:
        segment_len = default_segment_len(arr.size)
    if segment_len < 2 or segment_len & (segment_len - 1):
        raise DomainError(
            f"segment length must be a power of two >= 2, got {segment_len}"
        )
    if segment_len > arr.size:
        raise DomainError(
            f"segment length {segment_len} exceeds series length {arr.size}"
        )
    if not 0.0 <= overlap < 1.0:
        raise DomainError(f"overlap fraction must lie in [0, 1), got {overlap}")
    idx = np.arange(segment_len)
    if window == "hann":
        taper = 0.5 - 0.5 * np.cos(2.0 * np.pi * idx / segment_len)
    elif window == "boxcar":
        taper = np.ones(segment_len)
    else:
        raise DomainError(f"unknown window {window!r} (use 'hann' or 'boxcar')")
    step = max(int(segment_len * (1.0 - overlap)), 1)
    n_segments = (arr.size - segment_len) // step + 1
    fs = 1.0 / dx
    acc = np.zeros(segment_len // 2 + 1)
    for i in range(n_segments):
        chunk = arr[i * step : i * step + segment_len] * taper
        acc += np.abs(np.fft.rfft(chunk)) ** 2
    acc /= n_segments
    power = acc / (fs * np.sum(taper * taper))
    power[1:-1] *= 2.0
    freqs = idx[: segment_len // 2 + 1] / (segment_len * dx)
    return PowerSpectrum(
        freqs=freqs,
        power=power,
        nyquist=0.5 / dx,
        estimator={
            "method": "welch",
            "segment_len": int(segment_len),
            "overlap": float(overlap),
            "window": window,
            "n_segments": int(n_segments),
            "n_samples": int(arr.size),
        },
    )
