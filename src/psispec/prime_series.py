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
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import DomainError, ResourceError

LN_2PI = math.log(2.0 * math.pi)

#: Sieve segment length (integers per kernel call).
_SEGMENT = 1 << 20

#: Largest admissible grid point: beyond 2**53 consecutive integers are no
#: longer exactly representable in float64 and psi itself outgrows the
#: precision this package promises.
_MAX_LIMIT = 1 << 53


@dataclass(frozen=True, eq=False)
class GridSeries:
    """psi, or its fluctuation, sampled on the grid x_start, x_start+dx, ..."""

    x_start: int
    n: int
    dx: float
    values: np.ndarray

    @property
    def x(self) -> np.ndarray:
        return self.x_start + np.arange(self.n) * self.dx


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
    """Primes up to isqrt(limit) and their natural logs."""
    root = math.isqrt(limit)
    if root < 2:
        return (
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.float64),
        )
    is_prime = np.ones(root + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(root) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
    primes = np.flatnonzero(is_prime).astype(np.int64)
    return primes, np.log(primes.astype(np.float64))


def sieve_prime_power_logs(limit: int) -> np.ndarray:
    """Array ``lam`` of length ``limit + 1`` with ``lam[m]`` the von Mangoldt
    function: ``log p`` when ``m`` is a power of the prime ``p``, else 0.

    ``lam[0]`` and ``lam[1]`` are 0 by convention.
    """
    if limit < 2:
        raise DomainError(f"sieve limit must be at least 2, got {limit}")
    _check_limit(limit)
    primes, logs = _base_primes(limit)
    try:
        lam = np.zeros(limit + 1, dtype=np.float64)
    except MemoryError as exc:
        raise ResourceError(
            f"cannot allocate von Mangoldt table up to {limit}"
        ) from exc
    for lo in range(2, limit + 1, _SEGMENT):
        hi = min(lo + _SEGMENT, limit + 1)
        lam[lo:hi] = _kernels.mangoldt_segment(lo, hi, primes, logs)
    return lam


def grid_segments(n: int, x_start: int = 2, fluctuation: bool = True):
    """The grid ``x_start, ..., x_start + n - 1`` one sieve segment at a time.

    For each ``_SEGMENT`` block of [2, x_start + n - 1] this sieves Lambda,
    extends the half-jump prefix with the Kahan pair carried over from the
    blocks before it and, when ``fluctuation``, subtracts the smooth part.
    Blocks below the grid are computed for the carry but not yielded, so
    memory stays O(segment) whatever the grid.  Yields ``(x0, lam, values)``
    per block that meets the grid: ``values`` is psi, or the fluctuation,
    at ``x0, x0 + 1, ...`` and ``lam`` is Lambda at the same points, or None
    for the fluctuation, so that a consumer holds one array per block.
    The arrays are fresh and the consumer may overwrite them.
    """
    if n < 1:
        raise DomainError(f"need at least one grid point, got n={n}")
    if x_start < 1:
        raise DomainError(f"grid must start at x >= 1, got {x_start}")
    if fluctuation and x_start < 2:
        raise DomainError(
            f"fluctuation grid must start at x >= 2, got {x_start}"
        )
    limit = x_start + n - 1
    _check_limit(limit)
    return _segments(x_start, limit, fluctuation)


def _segments(x_start: int, limit: int, fluctuation: bool):
    primes, logs = _base_primes(limit)
    carry = [0.0, 0.0]
    if x_start == 1:
        # Lambda(1) = 0, so psi(1) = 0 and the sieve starts at 2
        yield 1, np.zeros(1), np.zeros(1)
    for lo in range(2, limit + 1, _SEGMENT):
        hi = min(lo + _SEGMENT, limit + 1)
        if hi <= x_start:
            _segment(lo, hi, lo, primes, logs, carry, fluctuation=False)
        else:
            # yielded straight from the call, so this frame keeps no
            # reference to a block once its consumer has dropped it
            yield _segment(lo, hi, max(lo, x_start), primes, logs, carry,
                           fluctuation)


def _segment(lo, hi, x0, primes, logs, carry, fluctuation):
    """One block of ``grid_segments``: Lambda and psi on [lo, hi), advancing
    the Kahan pair ``carry`` in place; returned from ``x0`` on."""
    lam = _kernels.mangoldt_segment(lo, hi, primes, logs)
    psi, carry[0], carry[1] = _kernels.half_jump_prefix(lam, carry[0], carry[1])
    if not fluctuation:
        return x0, lam[x0 - lo :], psi[x0 - lo :]
    del lam
    psi = psi[x0 - lo :]
    psi -= smooth_part(np.arange(x0, hi, dtype=np.float64))
    return x0, None, psi


def _gather(n: int, x_start: int, fluctuation: bool) -> GridSeries:
    """The values of ``grid_segments`` in one array."""
    blocks = grid_segments(n, x_start, fluctuation)
    try:
        values = np.empty(n, dtype=np.float64)
    except MemoryError as exc:
        raise ResourceError(f"cannot allocate grid of {n} points") from exc
    for x0, _, block in blocks:
        values[x0 - x_start : x0 - x_start + block.size] = block
    return GridSeries(x_start=x_start, n=n, dx=1.0, values=values)


def psi_series(n: int, x_start: int = 2) -> GridSeries:
    """psi on the grid ``x_start, x_start + 1, ..., x_start + n - 1``.

    Sieves Lambda segment by segment and accumulates the half-jump prefix
    with compensated summation, so values stay accurate to a few ulp even
    for grids of 10^8 points.
    """
    return _gather(n, x_start, fluctuation=False)


def smooth_part(x):
    """Smooth part ``x - log(1 - x^-2)/2 - log(2 pi)`` of psi.

    Accepts a scalar or array; every entry must exceed 1.  Equivalent to
    the series ``x + sum_{k>=1} x^(-2k)/(2k) - log(2 pi)``; the closed form
    is evaluated through ``log1p`` so it stays accurate for large x.
    """
    arr = np.asarray(x, dtype=np.float64)
    if not np.all(arr > 1.0):
        raise DomainError("smooth part requires x > 1")
    # one temporary, updated in place, whatever the size of x
    out = np.multiply(arr, arr, out=np.empty_like(arr))
    np.divide(-1.0, out, out=out)
    np.log1p(out, out=out)
    out *= 0.5
    np.subtract(arr, out, out=out)
    out -= LN_2PI
    return _scalar_or_array(x, out)


def fluctuation_series(n: int, x_start: int = 2) -> GridSeries:
    """Fluctuation ``psi(x) - smooth(x)`` on an integer grid of ``n`` points."""
    return _gather(n, x_start, fluctuation=True)


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
        segments = grid_segments(last - first + 1, first, fluctuation=False)
        for x0, lam, psi in segments:
            lo, hi = np.searchsorted(ascending, [x0, x0 + psi.size])
            at = order[lo:hi]
            j = floors[at] - x0
            # psi(m) + Lambda(m)/2 is the full prefix sum through m
            psi_vals[at] = np.where(
                points[at] == floors[at], psi[j], psi[j] + 0.5 * lam[j]
            )
    out = psi_vals.reshape(arr.shape) - smooth_part(arr)
    return _scalar_or_array(x, out)
