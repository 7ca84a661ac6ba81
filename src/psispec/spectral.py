"""Power spectral density estimation.

Two estimators under one normalization convention (one-sided density,
``sum P * df ~= variance``):

* ``burg_fit`` + ``ar_psd`` - maximum-entropy spectrum of the one-pole
  (AR(1)) model fitted by Burg's method, on the log frequency axis of
  ``log_grid``, which ``analytic`` prints on too; and
* ``welch_psd`` - averaged modified periodograms.

Both take a series as a ``BlockSeries`` or as an array-like, one block;
each block must be one-dimensional and real, and every sample finite.
Every series is at unit spacing, so both report frequency in cycles per
sample, and the axis ends at the Nyquist frequency 0.5, a spectrum's
``freqs[-1]``.

Every window an estimator reads, a row of ``_kernels.ROW_LEN`` samples
or a Welch segment, comes from one loop, ``_windows``, which copies it as
float64 into one reused buffer: so an estimate depends on the samples, not
on where blocks end or on their dtype, and no input is written.  Both
estimate the series minus its mean through one reader, ``_Shifted``: it
takes the rows counted from the first sample and shifts each in place by
the first row's mean; the rest of the mean is taken out at the end.  A
``BlockSeries`` is estimated in O(block) memory: Burg keeps running sums,
Welch a buffer of one window.  One of unknown length is counted as it is
read, and the checks on its length run at the end of the pass.
"""

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import DegenerateInputError, DomainError


@dataclass(frozen=True, eq=False)
class ArModel:
    """One-pole autoregressive model ``x[t] = -coeff x[t-1] + eps[t]``."""

    coeff: float
    noise_var: float
    n_samples: int = 0


@dataclass(frozen=True, eq=False)
class PowerSpectrum:
    """One-sided power spectral density sampled on ``freqs``."""

    freqs: np.ndarray
    power: np.ndarray
    estimator: dict


@dataclass(frozen=True, eq=False)
class BlockSeries:
    """A series of ``n`` samples that arrives as consecutive
    one-dimensional blocks of any real dtype, read as float64; ``n`` is
    None when the length is not known before the blocks are read, and the
    estimators then count the samples as they read them.  Any other series
    is read as one block of uncounted length.

    ``blocks`` is read once.
    """

    blocks: Iterable
    n: int | None = None


def _as_blocks(series):
    """``(blocks, n)`` of a BlockSeries, or of any other series, as an
    array, one block of uncounted length: ``_windows`` checks its shape and
    dtype as it checks every block's, before its length is checked."""
    if isinstance(series, BlockSeries):
        n = None if series.n is None else int(series.n)
        return series.blocks, n
    return [np.asarray(series)], None


class _Shifted:
    """The one reader of a series: its rows (``_rows``) minus a provisional
    shift ``c``, the first row's mean, each shifted in place.

    ``check_length(count)`` raises if the series is too short: before the
    first block when ``n`` is known, and the blocks must then hold ``n``
    samples, else on the count at the end of the pass.  After the pass,
    ``n`` is the number of samples and ``offset`` is ``d = mean - c``,
    built from the later rows only: the first row's deviations from its
    own mean sum to 0, so ``d`` is exactly 0 for a series of one row and
    the estimates keep the bits of estimating ``remove_mean(series)``.
    A NaN, an infinity or a sum past float64's range makes the estimate
    non-finite, which each estimator refuses at the end (``_check_finite``).
    """

    def __init__(self, blocks, n: int | None, check_length):
        self._blocks = blocks
        self._check_length = check_length
        self.n = n
        self.offset = 0.0

    def __iter__(self):
        if self.n is not None:
            self._check_length(self.n)
        shift = None
        later = 0.0
        count = 0
        for row in _rows(self._blocks):
            # the row is _windows' buffer, which keeps none of it for the next
            with np.errstate(over="ignore", invalid="ignore"):
                if shift is None:
                    shift = row.mean()
                    row -= shift
                else:
                    row -= shift
                    later += float(row.sum())
            count += row.size
            yield row
        if self.n is None:
            self._check_length(count)
        elif count != self.n:
            raise DomainError(f"series blocks hold {count} samples, expected {self.n}")
        self.n = count
        self.offset = later / count


def _check_finite(estimate) -> None:
    """Refuse a series whose estimate is not finite, once the pass is over:
    the estimators' arithmetic runs under ``np.errstate``, not to warn."""
    if not np.all(np.isfinite(estimate)):
        raise DomainError("series holds a non-finite sample or overflows")


def remove_mean(series) -> np.ndarray:
    """Return the one-dimensional real array-like ``series`` as float64 with
    its arithmetic mean subtracted."""
    arr = _real_series(series).astype(np.float64, copy=False)
    if arr.size == 0:
        raise DomainError("cannot demean an empty series")
    return arr - arr.mean()


def burg_fit(series) -> ArModel:
    """Fit an AR(1) model to the series minus its mean by Burg's method
    (maximum entropy), in one pass.

    The reflection coefficient minimizes forward plus backward prediction
    error, which keeps it within [-1, 1] and the model stable.  Its four
    sums are carried over the rows of ``_Shifted`` by
    ``_kernels.burg_recursion``, and the offset ``d`` left by the
    provisional shift is removed from them analytically at the end.  A
    series of one row gives the bits of the fit of ``remove_mean(series)``
    by whole-array dot products.
    """
    blocks, n = _as_blocks(series)

    def check_length(count):
        if count < 2:
            raise DomainError(f"need more than 1 samples to fit order 1, got {count}")

    shifted = _Shifted(blocks, n, check_length)
    sums = [(0.0, 0.0)] * 4  # <x,x>, <f,f>, <b,b> and <f,b>
    first = last = None
    constant = True
    for y in shifted:
        sums = _kernels.burg_recursion(y, sums, last)
        if first is None:
            first = float(y[0])
        constant = constant and bool(np.all(y == first))
        last = float(y[-1])
    xx, ff, bb, fb = (s - c for s, c in sums)
    n = shifted.n
    d = shifted.offset
    # sums of (y - d) from sums of y, using sum(y) = n d
    xx -= n * d * d
    ff = ff - (n + 1) * d * d + 2.0 * d * first
    bb = bb - (n + 1) * d * d + 2.0 * d * last
    fb = fb - (n + 1) * d * d + d * (first + last)
    den = ff + bb
    _check_finite((xx, fb, den))  # overflow can pass the constant test
    if constant:
        raise DegenerateInputError(
            "series is constant; an autoregressive model is undetermined"
        )
    k = -2.0 * fb / den if den else 0.0
    e = xx / n
    e *= 1.0 - k * k
    return ArModel(coeff=k, noise_var=e, n_samples=n)


def log_grid(f_min: float, f_max: float, n_freq: int) -> np.ndarray:
    """``n_freq`` frequencies log-spaced from ``f_min`` to ``f_max``, both
    ends exact: the one frequency axis of MEM(1) and of ``analytic``."""
    if n_freq < 2:
        raise DomainError(f"need at least two frequency points, got {n_freq}")
    if not 0.0 < f_min < f_max:
        raise DomainError(f"need 0 < f_min < f_max, got [{f_min}, {f_max}]")
    if not math.isfinite(f_max):
        raise DomainError(f"f_max must be finite, got {f_max}")
    freqs = np.logspace(np.log10(f_min), np.log10(f_max), n_freq)
    # pin the endpoints: 10**log10(x) can land one ulp off x
    freqs[0] = f_min
    freqs[-1] = f_max
    return freqs


def ar_psd(model: ArModel, n_freq: int = 512, f_min: float = 1e-4) -> PowerSpectrum:
    """Evaluate the model's one-sided density on a log frequency grid.

    ``P(f) = 2 noise_var / |1 + coeff exp(-2 pi i f)|^2`` on
    ``n_freq`` points log-spaced from ``f_min`` to the Nyquist frequency 0.5.
    """
    freqs = log_grid(f_min, 0.5, n_freq)
    denom = np.abs(1.0 + model.coeff * np.exp(-2j * np.pi * freqs)) ** 2
    power = 2.0 * model.noise_var / denom
    return PowerSpectrum(
        freqs=freqs,
        power=power,
        estimator={
            "method": "mem",
            "order": 1,
            "n_samples": model.n_samples,
        },
    )


def default_segment_len(n_samples: int) -> int:
    """Largest power of two not exceeding n_samples / 8, at least 8 and at
    most 2**20, so that default Welch's memory stops growing with the
    series at 2**23 samples (about 100 MB RSS from there on)."""
    target = min(max(n_samples // 8, 8), 1 << 20)
    return 1 << (target.bit_length() - 1)


def _real_series(block) -> np.ndarray:
    """``block`` as an array, refused unless one-dimensional and real."""
    block = np.asarray(block)
    if block.ndim != 1 or block.dtype.kind not in "biuf":
        raise DomainError("expected a one-dimensional real series")
    return block


def _windows(blocks, size: int, step: int):
    """The windows of ``size`` samples, ``step`` apart, of the series of
    one-dimensional real ``blocks``, each copied as float64 into one buffer
    that the next overwrites; returns the samples held of the first window
    that did not come whole.  The buffer starts a row long, not to fragment
    the heap, and doubles until a whole window has come, so a series
    shorter than its window allocates no more than a row or itself.
    """
    buf = np.empty(min(size, _kernels.ROW_LEN))
    held = 0  # samples of the next window in buf[:held]
    for block in map(_real_series, blocks):
        start = 0
        while start < block.size:
            end = min(block.size, start + size - held)
            full = held + end - start
            if full > buf.size:
                grown = np.empty(min(size, max(full, 2 * buf.size)))
                grown[:held] = buf[:held]
                buf = grown
            buf[held:full] = block[start:end]
            held, start = full, end
            if held == size:
                yield buf
                held = size - step
                buf[:held] = buf[step:]
    return buf[:held]


def _rows(blocks):
    """``_windows`` one row long and one row apart, then the shorter rest."""
    rest = yield from _windows(blocks, _kernels.ROW_LEN, _kernels.ROW_LEN)
    if rest.size:
        yield rest


def welch_psd(series, segment_len: int | None = None) -> PowerSpectrum:
    """Welch's averaged-periodogram estimate of the one-sided density of
    the series minus its mean.

    Segments of ``segment_len`` samples (a power of two; default the largest
    power of two <= n/8, at most 2**20) advance by half a segment.  Each is
    tapered by a periodic Hann window, transformed, and the squared
    magnitudes are averaged and scaled by ``1 / sum w^2`` so the result is
    a density; interior bins are doubled to fold negative frequencies in.
    The series is read in one pass: each segment is copied from the shifted
    rows into one buffer (``_windows``), so the pass holds one segment
    beyond the current row; only the default segment of a series of unknown length
    needs the blocks held, as they are, to count them first.
    """
    blocks, n = _as_blocks(series)
    if segment_len is None:
        if n is None:
            blocks = list(blocks)
        # a length counted here is not passed on, so that the reader checks
        # the blocks' shapes before their length
        segment_len = default_segment_len(
            sum(map(np.size, blocks)) if n is None else n
        )
    if not isinstance(segment_len, (int, np.integer)) or (
        segment_len < 2 or segment_len & (segment_len - 1)
    ):
        raise DomainError(
            f"segment length must be a power of two >= 2, got {segment_len}"
        )

    def check_length(count):
        if segment_len > count:
            raise DomainError(
                f"segment length {segment_len} exceeds series length {count}"
            )

    step = segment_len // 2
    shifted = _Shifted(blocks, n, check_length)
    taper = None
    for segment in _windows(shifted, segment_len, step):
        if taper is None:
            # made once a whole segment has come, so that a segment longer
            # than a series of unknown length allocates nothing
            taper = np.cos(2.0 * np.pi * np.arange(segment_len) / segment_len)
            taper = 0.5 - 0.5 * taper  # periodic Hann
            acc = np.zeros(segment_len // 2 + 1)
            # sum of the segment transforms, for removing the offset d
            total = np.zeros(segment_len // 2 + 1, dtype=np.complex128)
            # one buffer per step, reused for every segment (numpy.fft takes
            # out= from numpy 2.0), so that the peak does not hang on where
            # the allocator puts fresh blocks (8 MB at a 2**20 segment)
            tapered = np.empty(segment_len)
            spec = np.empty_like(total)
            mag = np.empty_like(acc)
        with np.errstate(over="ignore", invalid="ignore"):
            np.multiply(segment, taper, out=tapered)
            np.fft.rfft(tapered, out=spec)
            np.abs(spec, out=mag)
            mag *= mag
            acc += mag
            total += spec
    del tapered, spec, mag  # before the temporaries below
    n = shifted.n
    n_segments = (n - segment_len) // step + 1
    # |S - d W|^2 summed over segments, with W the transform of the taper
    d = shifted.offset
    w = np.fft.rfft(taper)
    with np.errstate(over="ignore", invalid="ignore"):
        acc -= 2.0 * d * (total * np.conj(w)).real
        acc += n_segments * d * d * np.abs(w) ** 2
        acc /= n_segments
        power = acc / np.sum(taper * taper)
        power[1:-1] *= 2.0
    _check_finite(power)
    freqs = np.arange(segment_len // 2 + 1) / segment_len
    return PowerSpectrum(
        freqs=freqs,
        power=power,
        estimator={
            "method": "welch",
            "segment_len": int(segment_len),
            "overlap": 0.5,
            "window": "hann",
            "n_segments": int(n_segments),
            "n_samples": int(n),
        },
    )
