"""Chebyshev's weighted prime counting function on an integer grid.

The central objects are

* ``psi(x) = sum_{p^m <= x} log p`` with the half-jump convention: at an
  exact prime power the jump contributes half its height, i.e.
  ``psi(x) = sum_{p^m < x} log p + Lambda(x)/2`` at integer ``x``;
* its smooth part ``x - log(1 - x^-2)/2 - log(2 pi)``;
* the fluctuation, their difference, which is the series whose power
  spectrum the rest of the package estimates.
"""

import math

import numpy as np

from . import _kernels
from .errors import DomainError, ResourceError

LN_2PI = math.log(2.0 * math.pi)

#: Sieve segment length (integers per kernel call).  A multiple of
#: ``_kernels.ROW_LEN``, the length of the rows a segment is laid out in,
#: so that the rows, and with them every bit of psi, do not depend on it.
#: A segment holds one byte of strike flags per integer and its support,
#: 16 bytes per prime or prime power, so its length moves the peak little,
#: and shorter segments sieve slower at height: ``fit --n 1e6 --x-start
#: 1e9``, which sieves 10**9 integers, took 21.8 / 18.0 / 18.5 / 15.7 s and
#: peaked at 33.3 / 33.4 / 33.6 / 34.0 MB RSS at 2**16 / 2**17 / 2**18 /
#: 2**19 (medians of 3 runs on a shared 2-core machine).
_SEGMENT = 1 << 18

#: Largest admissible grid point: beyond 2**53 consecutive integers are no
#: longer exactly representable in float64 and psi itself outgrows the
#: precision this package promises.
_MAX_LIMIT = 1 << 53


def _scalar_or_array(x, out):
    """``out`` as a Python float when the input ``x`` was a scalar or a 0-d
    array, else as the array itself."""
    return out.item() if np.ndim(x) == 0 else out


def _check_limit(limit: int) -> None:
    if limit > _MAX_LIMIT:
        raise ResourceError(
            f"grid extends to {limit}, past the float64-exact range (2**53)"
        )


def _base_primes(limit: int):
    """Primes up to isqrt(limit), in order, and every power p**k <= limit
    (k >= 1) of them, sorted, with the log p of each: the base tables of
    ``_kernels.mangoldt_segment`` for any segment below limit + 1."""
    root = math.isqrt(limit)
    is_prime = np.ones(max(root + 1, 2), dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(root) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
    primes = np.flatnonzero(is_prime).astype(np.int64)
    powers, owners = [primes], [np.arange(primes.size)]
    while True:
        owner = owners[-1]
        # q * p <= limit without overflow
        keep = powers[-1] <= limit // primes[owner]
        owner = owner[keep]
        if not owner.size:
            break
        powers.append(powers[-1][keep] * primes[owner])
        owners.append(owner)
    powers, owners = np.concatenate(powers), np.concatenate(owners)
    order = np.argsort(powers)
    logs = np.log(primes.astype(np.float64))
    return primes, powers[order], logs[owners[order]]


def psi_rows(n: int, x_start: int = 2):
    """psi on the grid ``x_start, ..., x_start + n - 1`` one row at a time.

    Sieves Lambda on [2, x_start + n - 1] one ``_SEGMENT`` at a time, as
    its support, and lays each segment out in rows of ``_kernels.ROW_LEN``
    values, counted from 2, one fresh row at a time: each row that meets
    the grid extends the half-jump prefix with the Kahan pair carried over
    from the rows before it, and each row below the grid moves the pair by
    its sum alone, so memory stays O(segment) whatever the grid.  Yields
    ``(x0, lam, psi)`` per row that meets the grid: psi and Lambda at
    ``x0, x0 + 1, ...``.  Both are fresh arrays, which the consumer may
    keep or overwrite: a segment's support is dropped before the next one
    is sieved, whatever rows the consumer still holds.
    """
    if n < 1:
        raise DomainError(f"need at least one grid point, got n={n}")
    if x_start < 1:
        raise DomainError(f"grid must start at x >= 1, got {x_start}")
    limit = x_start + n - 1
    _check_limit(limit)
    return _segments(x_start, limit)


def _segments(x_start: int, limit: int):
    base = _base_primes(limit)
    s = c = 0.0
    if x_start == 1:
        # Lambda(1) = 0, so psi(1) = 0 and the sieve starts at 2
        yield 1, np.zeros(1), np.zeros(1)
    for lo in range(2, limit + 1, _SEGMENT):
        hi = min(lo + _SEGMENT, limit + 1)
        support, logs = _kernels.mangoldt_segment(lo, hi, *base)
        starts = range(0, hi - lo, _kernels.ROW_LEN)
        edges = np.searchsorted(support, [*starts, hi - lo]).tolist()
        for i, j, k in zip(starts, edges, edges[1:]):
            # a fresh row: the prefix reads it, and it is the Lambda yielded
            size = min(_kernels.ROW_LEN, hi - lo - i)
            row = _kernels.densify(support[j:k] - i, logs[j:k], size)
            if lo + i + size <= x_start:
                # the row ends below the grid: the prefix's carry, bit for bit
                s, c = _kernels.kahan_add(s, c, float(row.sum()))
                continue
            psi, s, c = _kernels.half_jump_prefix(row, s, c)
            below = max(x_start - lo - i, 0)  # points of the row off the grid
            yield lo + i + below, row[below:], psi[below:]
        del support, logs  # before the next segment is sieved


def _gather(n: int, rows) -> np.ndarray:
    """The last column of ``rows``, which tile ``n`` points, in one array."""
    try:
        values = np.empty(n, dtype=np.float64)
    except MemoryError as exc:
        raise ResourceError(f"cannot allocate grid of {n} points") from exc
    end = 0
    for *_, block in rows:
        values[end : end + block.size] = block
        end += block.size
    return values


def psi_series(n: int, x_start: int = 2) -> np.ndarray:
    """psi on the grid ``x_start, x_start + 1, ..., x_start + n - 1``, whose
    points are ``x_start + np.arange(n)``.

    Sieves Lambda segment by segment and accumulates the half-jump prefix
    with compensated summation, so values stay accurate to a few ulp even
    for grids of 10^8 points.
    """
    return _gather(n, psi_rows(n, x_start))


#: From 2**18 on the log term of the smooth part cannot change a bit of
#: it: there |log1p(-1/x**2)/2| <= 7.3e-12, less than half an ulp of x
#: (at least 2.9e-11), so ``x - log1p(-1/x**2)/2`` rounds to x.
_SMOOTH_LOG_BELOW = float(1 << 18)


def smooth_part(x):
    """Smooth part ``x - log(1 - x^-2)/2 - log(2 pi)`` of psi.

    Accepts a scalar or array; every entry must exceed 1.  Equivalent to
    the series ``x + sum_{k>=1} x^(-2k)/(2k) - log(2 pi)``; the closed form
    is evaluated through ``log1p`` so it stays accurate for large x.  When
    no entry lies below ``_SMOOTH_LOG_BELOW`` its log term is skipped,
    which leaves every bit as it is.
    """
    arr = np.asarray(x, dtype=np.float64)
    least = arr.min(initial=np.inf)  # nan if any entry is
    if not least > 1.0:
        raise DomainError("smooth part requires x > 1")
    # one temporary, updated in place, whatever the size of x
    out = np.empty(arr.shape)
    if least < _SMOOTH_LOG_BELOW:
        np.multiply(arr, arr, out=out)
        np.divide(-1.0, out, out=out)
        np.log1p(out, out=out)
        out *= 0.5
        np.subtract(arr, out, out=out)
        out -= LN_2PI
    else:
        np.subtract(arr, LN_2PI, out=out)
    return _scalar_or_array(x, out)


def fluctuation_rows(n: int, x_start: int = 2):
    """The fluctuation on the grid of ``psi_rows``, one row at a time: yields
    ``(x, psi, smooth, fluc)`` per row, four fresh arrays at the points
    ``x``, with ``fluc = psi - smooth``.  The grid must start at x >= 2,
    where the smooth part is defined."""
    if x_start < 2:
        raise DomainError(f"fluctuation grid must start at x >= 2, got {x_start}")
    rows = psi_rows(n, x_start)

    def fluctuation():
        for x0, _, psi in rows:
            x = np.arange(x0, x0 + psi.size, dtype=np.float64)
            smooth = smooth_part(x)
            yield x, psi, smooth, psi - smooth

    return fluctuation()


def fluctuation_series(n: int, x_start: int = 2) -> np.ndarray:
    """Fluctuation ``psi(x) - smooth(x)`` on the grid of ``psi_series``."""
    return _gather(n, fluctuation_rows(n, x_start))


def fluctuation_at(x) -> np.ndarray:
    """Fluctuation at finite real points ``x >= 2`` (scalar or array).

    Off the integer grid psi is the plain prefix sum through ``floor(x)``;
    at an exact integer the half-jump convention applies.  Useful for
    comparing against reconstructions evaluated between the jumps.  One
    pass over the segments up to ``max(x)``, in O(segment) memory beyond
    the points themselves.
    """
    arr = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if not np.all(np.isfinite(arr) & (arr >= 2.0)):
        raise DomainError("fluctuation is evaluated for finite x >= 2 only")
    points = arr.ravel()
    floors = np.floor(points).astype(np.int64)
    order = np.argsort(floors, kind="stable")
    ascending = floors[order]
    psi_vals = np.empty(points.shape, dtype=np.float64)
    if points.size:
        first, last = int(ascending[0]), int(ascending[-1])
        for x0, lam, psi in psi_rows(last - first + 1, first):
            lo, hi = np.searchsorted(ascending, [x0, x0 + psi.size])
            at = order[lo:hi]
            j = floors[at] - x0
            # psi(m) + Lambda(m)/2 is the full prefix sum through m
            psi_vals[at] = np.where(
                points[at] == floors[at], psi[j], psi[j] + 0.5 * lam[j]
            )
    out = psi_vals.reshape(arr.shape) - smooth_part(arr)
    return _scalar_or_array(x, out)
