"""Power spectral density estimation.

Two estimators under one normalization convention (one-sided density,
``sum P * df ~= variance``):

* ``burg_fit`` + ``ar_psd`` - maximum-entropy spectrum of an
  autoregressive model fitted by Burg's recursion; and
* ``welch_psd`` - averaged modified periodograms.

Both take a series in one of two forms: a one-dimensional array-like,
read as float64 samples at spacing 1, or a ``BlockSeries``, which gives
its spacing ``dx``.  Both report frequency in cycles per unit of ``dx``;
the usable axis ends at the Nyquist frequency ``0.5 / dx``.

Both estimate the series minus its mean, in one pass: a ``BlockSeries``
that delivers the series block by block is estimated in O(block) memory
(Burg order 1 keeps running sums, Welch a buffer of one window).  Blocks
are shifted by the first block's mean, and the rest of the mean is taken
out of the sums at the end.
"""

from collections.abc import Iterable
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


@dataclass(frozen=True, eq=False)
class BlockSeries:
    """A series of ``n`` samples at spacing ``dx`` that arrives as
    consecutive one-dimensional float64 blocks.

    ``blocks`` is read once.  The estimators own the blocks they are given
    and may overwrite them.
    """

    blocks: Iterable
    n: int
    dx: float = 1.0


def _as_blocks(series):
    """``(blocks, n, dx)`` of a BlockSeries, or of any other series, read as
    a float64 array at spacing 1, as a single block: a copy, since the
    estimators shift blocks in place."""
    if isinstance(series, BlockSeries):
        return series.blocks, int(series.n), float(series.dx)
    arr = np.asarray(series, dtype=np.float64)
    if arr.ndim != 1:
        raise DomainError("expected a one-dimensional real series")
    return [arr.copy()], arr.size, 1.0


def _checked(blocks, n: int):
    """The non-empty blocks of ``blocks``, each checked to be
    one-dimensional; raises at the end unless they hold ``n`` samples."""
    count = 0
    for block in blocks:
        if block.ndim != 1:
            raise DomainError("expected a one-dimensional real series")
        if block.size:
            count += block.size
            yield block
    if count != n:
        raise DomainError(f"series blocks hold {count} samples, expected {n}")


class _Shifted:
    """Iterate the blocks minus a provisional shift ``c``, the first
    block's mean.

    After the pass, ``offset`` is ``d = mean - c``, built from the later
    blocks only: the first block's deviations from its own mean sum to 0,
    so ``d`` is exactly 0 for a single block and the estimates keep the
    bits of estimating ``remove_mean(series)``.
    """

    def __init__(self, blocks, n: int):
        self._blocks = blocks
        self.n = n
        self.offset = 0.0

    def __iter__(self):
        shift = None
        later = 0.0
        for block in _checked(self._blocks, self.n):
            if shift is None:
                shift = block.mean()
                block -= shift
            else:
                block -= shift
                later += float(block.sum())
            yield block
        self.offset = later / self.n


def remove_mean(series) -> np.ndarray:
    """Return the array-like ``series`` with its arithmetic mean subtracted."""
    arr = np.asarray(series, dtype=np.float64)
    if arr.size == 0:
        raise DomainError("cannot demean an empty series")
    return arr - arr.mean()


def burg_fit(series, order: int = 1) -> ArModel:
    """Fit an AR(order) model to the series minus its mean by Burg's
    method (maximum entropy).

    The recursion minimizes forward plus backward prediction error at each
    stage, which keeps every reflection coefficient within [-1, 1] and the
    resulting model stable.  Order 1 reads the series in one pass; higher
    orders gather it into one array, since each stage needs another pass.
    """
    blocks, n, dx = _as_blocks(series)
    if order < 1:
        raise DomainError(f"autoregressive order must be >= 1, got {order}")
    if n < order + 1:
        raise DomainError(
            f"need more than {order} samples to fit order {order}, got {n}"
        )
    if order == 1:
        coeffs, noise_var = _burg1(_Shifted(blocks, n))
    else:
        gathered = list(_checked(blocks, n))
        arr = gathered[0] if len(gathered) == 1 else np.concatenate(gathered)
        arr -= arr.mean()
        _check_not_constant(np.all(arr == arr[0]))
        coeffs, noise_var = _kernels.burg_recursion(arr, order)
    return ArModel(
        order=order,
        coeffs=coeffs,
        noise_var=float(noise_var),
        dx=dx,
        n_samples=n,
    )


def _check_not_constant(constant) -> None:
    if constant:
        raise DegenerateInputError(
            "series is constant; an autoregressive model is undetermined"
        )


def _burg1(shifted: _Shifted):
    """Order-1 Burg fit from running sums over the blocks of ``shifted``.

    With ``f = x[1:]`` and ``b = x[:-1]`` the fit needs only <x,x>, <f,f>,
    <b,b> and <f,b>; the offset ``d`` left by the provisional shift is
    removed from them analytically at the end.  One block gives the bits
    of ``_kernels.burg_recursion(x, 1)``.
    """
    xx = ff = bb = fb = 0.0
    first = last = None
    constant = True
    for y in shifted:
        if first is None:
            first = float(y[0])
            xx = float(np.dot(y, y))
            ff = float(np.dot(y[1:], y[1:]))
            bb = float(np.dot(y[:-1], y[:-1]))
            fb = float(np.dot(y[1:], y[:-1]))
        else:
            yy = float(np.dot(y, y))
            xx += yy
            ff += yy
            bb += last * last + float(np.dot(y[:-1], y[:-1]))
            fb += last * float(y[0]) + float(np.dot(y[1:], y[:-1]))
        constant = constant and bool(np.all(y == first))
        last = float(y[-1])
    _check_not_constant(constant)
    n = shifted.n
    d = shifted.offset
    # sums of (y - d) from sums of y, using sum(y) = n d
    xx -= n * d * d
    ff = ff - (n + 1) * d * d + 2.0 * d * first
    bb = bb - (n + 1) * d * d + 2.0 * d * last
    fb = fb - (n + 1) * d * d + d * (first + last)
    den = ff + bb
    k = -2.0 * fb / den if den else 0.0
    e = xx / n
    e *= 1.0 - k * k
    return np.array([k]), e


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


def welch_psd(series, segment_len: int | None = None) -> PowerSpectrum:
    """Welch's averaged-periodogram estimate of the one-sided density of
    the series minus its mean.

    Segments of ``segment_len`` samples (a power of two; default the largest
    power of two <= n/8) advance by half a segment.  Each is tapered by a
    periodic Hann window, transformed, and the squared magnitudes are
    averaged and scaled by ``1 / (fs * sum w^2)`` so the result is a density;
    interior bins are doubled to fold negative frequencies in.  The series
    is read in one pass that holds one segment beyond the current block.
    """
    blocks, n, dx = _as_blocks(series)
    if segment_len is None:
        segment_len = default_segment_len(n)
    if segment_len < 2 or segment_len & (segment_len - 1):
        raise DomainError(
            f"segment length must be a power of two >= 2, got {segment_len}"
        )
    if segment_len > n:
        raise DomainError(
            f"segment length {segment_len} exceeds series length {n}"
        )
    idx = np.arange(segment_len)
    taper = 0.5 - 0.5 * np.cos(2.0 * np.pi * idx / segment_len)
    step = segment_len // 2
    n_segments = (n - segment_len) // step + 1
    fs = 1.0 / dx
    acc = np.zeros(segment_len // 2 + 1)
    # sum of the segment transforms, for removing the offset d at the end
    total = np.zeros(segment_len // 2 + 1, dtype=np.complex128)
    shifted = _Shifted(blocks, n)
    pending = np.empty(0)
    for block in shifted:
        pending = np.concatenate([pending, block]) if pending.size else block
        start = 0
        while start + segment_len <= pending.size:
            spec = np.fft.rfft(pending[start : start + segment_len] * taper)
            acc += np.abs(spec) ** 2
            total += spec
            start += step
        pending = pending[start:].copy()
    # |S - d W|^2 summed over segments, with W the transform of the taper
    d = shifted.offset
    w = np.fft.rfft(taper)
    acc = (
        acc
        - 2.0 * d * (total * np.conj(w)).real
        + n_segments * d * d * np.abs(w) ** 2
    )
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
            "overlap": 0.5,
            "window": "hann",
            "n_segments": int(n_segments),
            "n_samples": int(n),
        },
    )
