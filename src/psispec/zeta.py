"""The zero-sum side of the explicit formula, for cross-validation.

Under the Riemann hypothesis the fluctuation of psi admits the exact
representation (conjugate zero pairs combined into a real form)

    psi_fluc(x) = -2 sqrt(x) sum_k [cos(t_k ln x)/2 + t_k sin(t_k ln x)]
                                   / (1/4 + t_k^2),

with t_k the ordinates of the nontrivial zeros.  Truncations of this sum,
together with the asymptotic spectrum ``P(f) = 2 ln^2(f/(2 pi)) / f^2`` of
the fluctuation, provide an independent check on the prime-side pipeline.
"""

import io
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from . import _kernels
from .errors import DataFormatError, DomainError, utf8_text
from .prime_series import _scalar_or_array
from .spectral import PowerSpectrum

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True, eq=False)
class ZetaZeros:
    """Ascending positive ordinates of nontrivial zeros, with provenance."""

    ordinates: np.ndarray
    source: str

    @property
    def count(self) -> int:
        return int(self.ordinates.size)


def bundled_zeros_path() -> Path:
    """Path of the zero table shipped with the package."""
    return Path(resources.files(__package__) / "data" / "zeta_zeros_2000.txt")


def load_zeros(path) -> ZetaZeros:
    """Parse a zero table: one decimal ordinate per line, ascending.

    Blank lines and ``#`` comments are skipped.  Violations (text that is
    not UTF-8, non-numeric, nonpositive, non-ascending, or a first ordinate
    at or below 14) raise :class:`DataFormatError` naming the offending
    line.
    """
    path = Path(path)
    try:
        text = utf8_text(path, path.read_bytes(), 1)
    except FileNotFoundError as exc:
        raise DataFormatError(f"zeros file not found: {path}") from exc
    ordinates = []
    prev = None
    # lines end where the CSV reader's do: "\n", "\r\n" or a lone "\r"
    for lineno, raw in enumerate(io.StringIO(text, newline=None), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            t = float(line)
        except ValueError as exc:
            raise DataFormatError(
                f"{path}: line {lineno}: not a decimal ordinate: {line!r}"
            ) from exc
        if not math.isfinite(t) or t <= 0.0:
            raise DataFormatError(
                f"{path}: line {lineno}: ordinate must be positive, got {line}"
            )
        if prev is None and t <= 14.0:
            raise DataFormatError(
                f"{path}: line {lineno}: first ordinate must exceed 14, got {line}"
            )
        if prev is not None and t <= prev:
            raise DataFormatError(
                f"{path}: line {lineno}: ordinates must be strictly ascending "
                f"({line} after {prev})"
            )
        ordinates.append(t)
        prev = t
    if not ordinates:
        raise DataFormatError(f"{path}: no ordinates found")
    return ZetaZeros(
        ordinates=np.asarray(ordinates, dtype=np.float64), source=str(path)
    )


def psi_fluc_from_zeros(x, zeros: ZetaZeros, n_zeros: int):
    """Truncated zero-sum reconstruction of the fluctuation at ``x``.

    Uses the first ``n_zeros`` ordinates; accepts a scalar or an array of
    any shape of finite points ``x >= 2``, and returns the same shape.  The
    terms of each point decay only like ``1/t_k`` and are totalled by
    pairwise summation, whose error grows like ``log K``.  Where more than
    80 points crowd into a window of half-width 8 / t_K in ln x, the sum is
    taken only at 40 Chebyshev points of that window and interpolated
    (``_kernels.zero_pair_sum``).  Either way the error is set by the
    rounding of t_k ln x in each term: against a 30-digit sum at points
    among 5000 near 10^6 with all 2000 zeros, both routes err by at most
    2.4e-13 of the largest |value|.
    """
    if n_zeros < 0:
        raise DomainError(f"zero count must be nonnegative, got {n_zeros}")
    if n_zeros > zeros.count:
        raise DomainError(
            f"requested {n_zeros} zeros but the table holds {zeros.count}"
        )
    arr = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if not np.all(np.isfinite(arr) & (arr >= 2.0)):
        raise DomainError("reconstruction is defined for finite x >= 2 only")
    t_desc = zeros.ordinates[:n_zeros][::-1].copy()
    out = _kernels.zero_pair_sum(arr.ravel(), t_desc).reshape(arr.shape)
    return _scalar_or_array(x, out)


def zero_density_avg(t):
    """Average density of zero ordinates near height ``t``:
    ``(1/(2 pi)) ln(t/(2 pi))``.  Positive and meaningful for t > 2 pi."""
    arr = np.asarray(t, dtype=np.float64)
    if not np.all(arr > 0.0):
        raise DomainError("zero density requires t > 0")
    out = np.log(arr / TWO_PI) / TWO_PI
    return _scalar_or_array(t, out)


def analytic_fourier_mag(f):
    """Magnitude ``ln(f/(2 pi)) / sqrt(1/4 + f^2)`` of the stationary-phase
    transform of the fluctuation.  Exposed for ``f >= 2 pi`` only; the
    asymptotic derivation does not cover lower frequencies."""
    arr = np.asarray(f, dtype=np.float64)
    if not np.all(np.isfinite(arr) & (arr > 0.0)):
        raise DomainError("frequency must be positive and finite")
    if not np.all(arr >= TWO_PI):
        raise DomainError(
            "analytic transform magnitude is valid for f >= 2*pi only"
        )
    out = np.log(arr / TWO_PI) / np.sqrt(0.25 + arr * arr)
    return _scalar_or_array(f, out)


def analytic_psd(f):
    """Asymptotic one-sided density ``2 ln^2(f/(2 pi)) / f^2``."""
    arr = np.asarray(f, dtype=np.float64)
    if not np.all(np.isfinite(arr) & (arr > 0.0)):
        raise DomainError("frequency must be positive and finite")
    lg = np.log(arr / TWO_PI)
    out = 2.0 * lg * lg / (arr * arr)
    return _scalar_or_array(f, out)


def analytic_spectrum(
    f_min: float, f_max: float, n_freq: int = 512
) -> PowerSpectrum:
    """The asymptotic density ``2 ln^2(f/(2 pi)) / f^2`` sampled on a log
    grid over [f_min, f_max].

    The grid ends at ``f_max``, which stands in for the Nyquist frequency.
    """
    if not 0.0 < f_min < f_max:
        raise DomainError(
            f"need 0 < f_min < f_max, got [{f_min}, {f_max}]"
        )
    if not math.isfinite(f_max):
        raise DomainError(f"f_max must be finite, got {f_max}")
    if n_freq < 2:
        raise DomainError(f"need at least two frequency points, got {n_freq}")
    freqs = np.logspace(math.log10(f_min), math.log10(f_max), n_freq)
    # pin the endpoints: 10**log10(x) can land one ulp off x
    freqs[0] = f_min
    freqs[-1] = f_max
    return PowerSpectrum(
        freqs=freqs,
        power=analytic_psd(freqs),
        nyquist=float(f_max),
        estimator={"method": "analytic"},
    )
