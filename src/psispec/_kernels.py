"""The four numeric hot loops of the pipeline, vectorized with numpy.

``mangoldt_segment`` sieves the von Mangoldt function on one segment,
``half_jump_prefix`` accumulates psi over it, ``burg_recursion`` fits the
autoregressive model and ``zero_pair_sum`` totals the explicit formula.

Accuracy note: the prefix carries its running total as a Kahan pair and the
zero sum totals the terms of each point by numpy's pairwise summation, so
neither accumulates rounding error that grows linearly with the length of
the input.
"""

import math

import numpy as np

# ---------------------------------------------------------------------------
# von Mangoldt function on a segment [lo, hi)
# ---------------------------------------------------------------------------


def mangoldt_segment(lo, hi, base_primes, base_logs):
    """Lambda(m) for every integer m in [lo, hi).

    ``base_primes`` must contain every prime <= isqrt(hi - 1); ``base_logs``
    are their natural logs.  Entries for m < 2 are zero.
    """
    n = hi - lo
    lam = np.zeros(n, dtype=np.float64)
    composite = np.zeros(n, dtype=bool)
    for p, lp in zip(base_primes.tolist(), base_logs.tolist()):
        # Strike multiples of p from max(p*p, first multiple >= lo): smaller
        # multiples have a prime factor below p and are struck by that prime.
        start = max(p * p, ((lo + p - 1) // p) * p)
        if start < hi:
            composite[start - lo :: p] = True
        # Prime powers p, p^2, ... inside the segment carry log p.
        q = p
        while q < hi:
            if q >= lo:
                lam[q - lo] = lp
            q *= p
    # Survivors above the base primes are primes themselves.
    fresh = np.flatnonzero(~composite & (lam == 0.0)) + lo
    fresh = fresh[fresh >= 2]
    if fresh.size:
        lam[fresh - lo] = np.log(fresh.astype(np.float64))
    return lam


# ---------------------------------------------------------------------------
# Compensated half-jump prefix sum
# ---------------------------------------------------------------------------
#
# out[j] = sum(lam[:j+1]) + carry - 0.5 * lam[j], where ``carry`` is the
# running total of earlier segments held as a Kahan pair (s, c) with
# true total ~= s - c.  Returns (out, s, c) so segments chain.

_PREFIX_CHUNK = 4096


def half_jump_prefix(lam, s, c):
    """Cumsum in chunks of ``_PREFIX_CHUNK``: each chunk starts from a base
    carried as a Kahan pair over the pairwise chunk totals, so long inputs
    do not accumulate O(n) rounding error."""
    n = lam.shape[0]
    full = n - n % _PREFIX_CHUNK
    rows = lam[:full].reshape(-1, _PREFIX_CHUNK)
    totals = rows.sum(axis=1).tolist()
    if full < n:
        totals.append(float(lam[full:].sum()))
    bases = np.empty(len(totals), dtype=np.float64)
    for i, v in enumerate(totals):
        bases[i] = s - c
        y = v - c
        t = s + y
        c = (t - s) - y
        s = t
    out = np.empty(n, dtype=np.float64)
    grid = out[:full].reshape(-1, _PREFIX_CHUNK)
    np.cumsum(rows, axis=1, out=grid)
    grid += bases[: rows.shape[0], None]
    if full < n:
        np.cumsum(lam[full:], out=out[full:])
        out[full:] += bases[-1]
    out -= 0.5 * lam
    return out, s, c


# ---------------------------------------------------------------------------
# Burg recursion for autoregressive coefficients
# ---------------------------------------------------------------------------
#
# Returns (a, noise_var) where a[0..order-1] are the AR coefficients of
# x[t] + a_1 x[t-1] + ... + a_p x[t-p] = eps[t] and noise_var is the final
# prediction-error power.  Reflection coefficients satisfy |k| <= 1 by the
# Cauchy-Schwarz structure of the update.


def burg_recursion(x, order):
    """Burg's recursion on array slices: at stage m, ``f[i]`` holds the
    forward prediction error at t = m + i and ``b[i]`` the backward one at
    t - 1."""
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    f = x[1:].copy()
    b = x[:-1].copy()
    a = np.zeros(order, dtype=np.float64)
    e = float(np.dot(x, x)) / n
    for m in range(1, order + 1):
        den = float(np.dot(f, f) + np.dot(b, b))
        if den == 0.0:
            break
        k = -2.0 * float(np.dot(f, b)) / den
        f, b = f + k * b, b + k * f
        f = f[1:]
        b = b[:-1]
        if m > 1:
            prev = a[: m - 1].copy()
            a[: m - 1] = prev + k * prev[::-1]
        a[m - 1] = k
        e *= 1.0 - k * k
    return a, e


# ---------------------------------------------------------------------------
# Pair sum over nontrivial zeta zeros
# ---------------------------------------------------------------------------
#
# out[i] = -2 sqrt(x) * sum_k (cos(t_k L)/2 + t_k sin(t_k L)) / (1/4 + t_k^2)
# with L = ln x and ``t_desc`` the ordinates in descending order.  The terms
# are formed in tiles of points x zeros, and each point's row is totalled by
# numpy's pairwise sum: against a Kahan-compensated loop over the terms, 200
# points near 10^6 with 2000 zeros deviate by 4.5e-16 of the largest |value|.
# Each row is totalled on its own, so the result does not depend on the
# tile size.  The tiles run on one thread: two threads halved
# the kernel's time but shortened the ``numeric`` benchmark's wall time in
# only 8 of 10 interleaved pairs on a 2-core machine.

#: Terms per tile: 2^17 float64 values, 1 MB per temporary.  Two are live
#: per tile.
_TILE_TERMS = 1 << 17


def zero_pair_sum(xs, t_desc):
    n = xs.shape[0]
    out = np.empty(n, dtype=np.float64)
    # math.log, not np.log: numpy's vectorised log can differ by one ulp,
    # and t up to a few thousand carries that into the sum
    lx = np.array([math.log(x) for x in xs.tolist()], dtype=np.float64)
    weight = 0.25 + t_desc * t_desc
    rows = max(1, _TILE_TERMS // max(1, t_desc.shape[0]))
    for lo in range(0, n, rows):
        theta = np.multiply.outer(lx[lo : lo + rows], t_desc)
        sin = np.sin(theta)
        np.cos(theta, out=theta)
        theta *= 0.5
        sin *= t_desc
        theta += sin
        theta /= weight
        theta.sum(axis=1, out=out[lo : lo + rows])
    out *= -2.0 * np.sqrt(xs)
    return out
