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

Both estimate the series minus its mean through one reader, ``_Shifted``.
It cuts every series into rows of ``_kernels._PREFIX_CHUNK`` samples
counted from its first sample, so an estimate depends on the samples, not
on where blocks end, and shifts each row by the first row's mean into one
reused row, so that no input is written; the rest of the mean is taken out
at the end.  A ``BlockSeries`` is estimated in O(block) memory (Burg order
1 keeps running sums, Welch a buffer of one window), except by Burg above
order 1, which gathers the shifted rows.  One of unknown length is counted
as it is read, and the checks on its length run at the end of the pass.
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
    consecutive one-dimensional float64 blocks; ``n`` is None when the
    length is not known before the blocks are read, and the estimators
    then count the samples as they read them.

    ``blocks`` is read once.
    """

    blocks: Iterable
    n: int | None = None
    dx: float = 1.0


def _as_blocks(series):
    """``(blocks, n, dx)`` of a BlockSeries, or of any other series, read as
    a float64 array at spacing 1, as a single block, in place when it is
    one already."""
    if isinstance(series, BlockSeries):
        n = None if series.n is None else int(series.n)
        return series.blocks, n, float(series.dx)
    arr = np.asarray(series, dtype=np.float64)
    if arr.ndim != 1:
        raise DomainError("expected a one-dimensional real series")
    return [arr], arr.size, 1.0


class _Shifted:
    """The one reader of a series: its rows (``_rows``) minus a provisional
    shift ``c``, the first row's mean, each written into one reused row.

    Every block must be one-dimensional.  ``check_length(count)`` raises if
    the series is too short: before the first block when ``n`` is known,
    and the blocks must then hold ``n`` samples, else on the count at the
    end of the pass.  After the pass, ``n`` is the number of samples and
    ``offset`` is ``d = mean - c``, built from the later rows only: the
    first row's deviations from its own mean sum to 0, so ``d`` is exactly
    0 for a series of one row and the estimates keep the bits of
    estimating ``remove_mean(series)``.
    """

    def __init__(self, blocks, n: int | None, check_length):
        self._blocks = blocks
        self._check_length = check_length
        self.n = n
        self.offset = 0.0

    def __iter__(self):
        if self.n is not None:
            self._check_length(self.n)
        out = np.empty(_kernels._PREFIX_CHUNK)
        shift = None
        later = 0.0
        count = 0
        for row in _rows(self._one_dimensional()):
            if shift is None:
                shift = row.mean()
            y = np.subtract(row, shift, out=out[: row.size])
            later += float(y.sum()) if count else 0.0
            count += y.size
            yield y
        if self.n is None:
            self._check_length(count)
        elif count != self.n:
            raise DomainError(f"series blocks hold {count} samples, expected {self.n}")
        self.n = count
        self.offset = later / count

    def _one_dimensional(self):
        for block in self._blocks:
            if block.ndim != 1:
                raise DomainError("expected a one-dimensional real series")
            yield block


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
    orders gather its shifted rows into one array, since each stage needs
    another pass.
    """
    blocks, n, dx = _as_blocks(series)
    if order < 1:
        raise DomainError(f"autoregressive order must be >= 1, got {order}")

    def check_length(count):
        if count < order + 1:
            raise DomainError(
                f"need more than {order} samples to fit order {order}, got {count}"
            )

    shifted = _Shifted(blocks, n, check_length)
    if order == 1:
        coeffs, noise_var = _burg1(shifted)
    else:
        arr = np.concatenate([row.copy() for row in shifted])
        arr -= shifted.offset
        _check_not_constant(np.all(arr == arr[0]))
        coeffs, noise_var = _kernels.burg_recursion(arr, order)
    return ArModel(
        order=order,
        coeffs=coeffs,
        noise_var=float(noise_var),
        dx=dx,
        n_samples=shifted.n,
    )


def _check_not_constant(constant) -> None:
    if constant:
        raise DegenerateInputError(
            "series is constant; an autoregressive model is undetermined"
        )


def _burg1(shifted: _Shifted):
    """Order-1 Burg fit from running sums over the rows of ``shifted``.

    With ``f = x[1:]`` and ``b = x[:-1]`` the fit needs only <x,x>, <f,f>,
    <b,b> and <f,b>, each a Kahan pair (``_kernels.kahan_add``) over the
    rows' partial sums; the offset ``d`` left by the provisional shift is
    removed from them analytically at the end.  One row gives the bits of
    ``_kernels.burg_recursion(x, 1)``.
    """
    sums = [(0.0, 0.0)] * 4  # <x,x>, <f,f>, <b,b> and <f,b>
    first = last = None
    constant = True
    for y in shifted:
        yy = float(np.dot(y, y))
        bb_row = float(np.dot(y[:-1], y[:-1]))
        fb_row = float(np.dot(y[1:], y[:-1]))
        if first is None:
            first = float(y[0])
            parts = (yy, float(np.dot(y[1:], y[1:])), bb_row, fb_row)
        else:
            parts = (yy, yy, last * last + bb_row, last * float(y[0]) + fb_row)
        sums = [_kernels.kahan_add(*sc, part) for sc, part in zip(sums, parts)]
        constant = constant and bool(np.all(y == first))
        last = float(y[-1])
    _check_not_constant(constant)
    xx, ff, bb, fb = (s - c for s, c in sums)
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


def check_psd_grid(n_freq: int, f_min: float, dx: float) -> None:
    if n_freq < 2:
        raise DomainError(f"need at least two frequency points, got {n_freq}")
    if not 0.0 < f_min < 0.5 / dx:
        raise DomainError(
            f"f_min must lie in (0, {0.5 / dx}) cycles per sample unit, got {f_min}"
        )


def ar_psd(model: ArModel, n_freq: int = 512, f_min: float = 1e-4) -> PowerSpectrum:
    """Evaluate the AR model's one-sided density on a log frequency grid.

    ``P(f) = 2 noise_var dx / |1 + sum_k a_k exp(-2 pi i k f dx)|^2`` on
    ``n_freq`` points log-spaced from ``f_min`` to Nyquist.
    """
    check_psd_grid(n_freq, f_min, model.dx)
    nyquist = 0.5 / model.dx
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


def _segments(blocks, segment_len: int, step: int):
    """The segments of ``segment_len`` samples, ``step`` apart, of the series
    that ``blocks`` deliver, in order; returns the samples held of the first
    segment that did not come whole.

    A segment inside one block is a view of it.  One that straddles blocks
    is assembled in a buffer of one segment, which the next segment
    overwrites.  The buffer starts a row long (``_rows``), not to fragment
    the heap, and doubles until a whole segment has come, so that a series
    shorter than its segment allocates no more than a row or itself.
    """
    buf = np.empty(min(segment_len, _kernels._PREFIX_CHUNK))
    held = 0  # samples of the next segment in buf[:held], from earlier blocks
    for block in blocks:
        start = -held  # where the next segment starts, relative to the block
        while start + segment_len <= block.size:
            if start >= 0:
                yield block[start : start + segment_len]
            else:
                buf = _room(buf, held, segment_len, segment_len)
                buf[held:] = block[: start + segment_len]
                yield buf
                held = max(held - step, 0)
                buf[:held] = buf[step : step + held]
            start += step
        rest = block[max(start, 0) :]
        end = held + rest.size
        buf = _room(buf, held, end, segment_len)
        buf[held:end] = rest
        held = end
    return buf[:held]


def _rows(blocks):
    """``_segments`` one row long and one row apart, then the shorter rest."""
    row = _kernels._PREFIX_CHUNK
    rest = yield from _segments(blocks, row, row)
    if rest.size:
        yield rest


def _room(buf, held: int, size: int, limit: int):
    """``buf`` if it has room for ``size`` samples; else a new buffer that
    starts with ``buf[:held]``, twice as large, but at least ``size`` and at
    most ``limit`` samples."""
    if size <= buf.size:
        return buf
    grown = np.empty(min(limit, max(size, 2 * buf.size)))
    grown[:held] = buf[:held]
    return grown


def welch_psd(series, segment_len: int | None = None) -> PowerSpectrum:
    """Welch's averaged-periodogram estimate of the one-sided density of
    the series minus its mean.

    Segments of ``segment_len`` samples (a power of two; default the largest
    power of two <= n/8) advance by half a segment.  Each is tapered by a
    periodic Hann window, transformed, and the squared magnitudes are
    averaged and scaled by ``1 / (fs * sum w^2)`` so the result is a density;
    interior bins are doubled to fold negative frequencies in.  The series
    is read in one pass that holds one segment beyond the current row
    (``_segments``); only the default segment of a series of unknown length
    needs the blocks held, as they are, to count them first.
    """
    blocks, n, dx = _as_blocks(series)
    if segment_len is None:
        if n is None:
            blocks = list(blocks)
            n = sum(block.size for block in blocks)
        segment_len = default_segment_len(n)
    if segment_len < 2 or segment_len & (segment_len - 1):
        raise DomainError(
            f"segment length must be a power of two >= 2, got {segment_len}"
        )

    def check_length(count):
        if segment_len > count:
            raise DomainError(
                f"segment length {segment_len} exceeds series length {count}"
            )

    step = segment_len // 2
    fs = 1.0 / dx
    shifted = _Shifted(blocks, n, check_length)
    taper = None
    for segment in _segments(shifted, segment_len, step):
        if taper is None:
            # made once a whole segment has come, so that a segment longer
            # than a series of unknown length allocates nothing
            idx = np.arange(segment_len)
            taper = 0.5 - 0.5 * np.cos(2.0 * np.pi * idx / segment_len)
            acc = np.zeros(segment_len // 2 + 1)
            # sum of the segment transforms, for removing the offset d
            total = np.zeros(segment_len // 2 + 1, dtype=np.complex128)
        spec = np.fft.rfft(segment * taper)
        acc += np.abs(spec) ** 2
        total += spec
    n = shifted.n
    n_segments = (n - segment_len) // step + 1
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
