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
class PsiSeries:
    """psi evaluated on the integer grid x_start, x_start+1, ..."""

    x_start: int
    n: int
    dx: float
    values: np.ndarray

    @property
    def x(self) -> np.ndarray:
        return self.x_start + np.arange(self.n) * self.dx


@dataclass(frozen=True, eq=False)
class FlucSeries:
    """psi minus its smooth part on the integer grid."""

    x_start: int
    n: int
    dx: float
    values: np.ndarray

    @property
    def x(self) -> np.ndarray:
        return self.x_start + np.arange(self.n) * self.dx


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


def _prefix_segments(limit: int):
    """``(lo, hi)`` bounds of the segments that cover ``[1, limit]``.

    The half-jump prefix restarts its chunking at every segment, so every
    route to psi must use these same bounds to get the same bits.
    """
    for lo in range(1, limit + 1, _SEGMENT):
        yield lo, min(lo + _SEGMENT, limit + 1)


def psi_series(n: int, x_start: int = 2) -> PsiSeries:
    """psi on the grid ``x_start, x_start + 1, ..., x_start + n - 1``.

    Sieves Lambda segment by segment and accumulates the half-jump prefix
    with compensated summation, so values stay accurate to a few ulp even
    for grids of 10^8 points.
    """
    if n < 1:
        raise DomainError(f"need at least one grid point, got n={n}")
    if x_start < 1:
        raise DomainError(f"grid must start at x >= 1, got {x_start}")
    limit = x_start + n - 1
    _check_limit(limit)
    primes, logs = _base_primes(limit)
    try:
        values = np.empty(n, dtype=np.float64)
    except MemoryError as exc:
        raise ResourceError(f"cannot allocate psi grid of {n} points") from exc
    s = 0.0
    c = 0.0
    for lo, hi in _prefix_segments(limit):
        lam = _kernels.mangoldt_segment(lo, hi, primes, logs)
        seg, s, c = _kernels.half_jump_prefix(lam, s, c)
        if hi > x_start:
            a = max(lo, x_start)
            values[a - x_start : hi - x_start] = seg[a - lo :]
    return PsiSeries(x_start=x_start, n=n, dx=1.0, values=values)


def smooth_part(x):
    """Smooth part ``x - log(1 - x^-2)/2 - log(2 pi)`` of psi.

    Accepts a scalar or array; every entry must exceed 1.  Equivalent to
    the series ``x + sum_{k>=1} x^(-2k)/(2k) - log(2 pi)``; the closed form
    is evaluated through ``log1p`` so it stays accurate for large x.
    """
    arr = np.asarray(x, dtype=np.float64)
    if np.any(arr <= 1.0):
        raise DomainError("smooth part requires x > 1")
    out = arr - 0.5 * np.log1p(-1.0 / (arr * arr)) - LN_2PI
    if np.isscalar(x) or getattr(x, "ndim", 1) == 0:
        return float(out)
    return out


def fluctuation_series(n: int, x_start: int = 2) -> FlucSeries:
    """Fluctuation ``psi(x) - smooth(x)`` on an integer grid of ``n`` points."""
    if x_start < 2:
        raise DomainError(
            f"fluctuation grid must start at x >= 2, got {x_start}"
        )
    psi = psi_series(n, x_start=x_start)
    return FlucSeries(
        x_start=x_start,
        n=n,
        dx=psi.dx,
        values=psi.values - smooth_part(psi.x),
    )


def fluctuation_at(x) -> np.ndarray:
    """Fluctuation at arbitrary real points ``x >= 2`` (scalar or array).

    Off the integer grid psi is the plain prefix sum through ``floor(x)``;
    at an exact integer the half-jump convention applies.  Useful for
    comparing against reconstructions evaluated between the jumps.
    """
    arr = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if np.any(arr < 2.0):
        raise DomainError("fluctuation is evaluated for x >= 2 only")
    floors = np.floor(arr).astype(np.int64)
    limit = int(floors.max())
    lam = sieve_prime_power_logs(limit)
    # psi[m] is psi(m) with the half-jump convention, as psi_series gives it
    psi = np.zeros(limit + 1, dtype=np.float64)
    s = 0.0
    c = 0.0
    for lo, hi in _prefix_segments(limit):
        psi[lo:hi], s, c = _kernels.half_jump_prefix(lam[lo:hi], s, c)
    # psi(m) + Lambda(m)/2 is the full prefix sum through m
    full_prefix = psi[floors] + 0.5 * lam[floors]
    on_grid = arr == floors
    psi_vals = np.where(on_grid, psi[floors], full_prefix)
    out = psi_vals - smooth_part(arr)
    if np.isscalar(x) or getattr(x, "ndim", 1) == 0:
        return float(out[0])
    return out
