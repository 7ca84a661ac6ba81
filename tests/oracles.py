"""Independent reference implementations, used only by the tests.

Each oracle recomputes a quantity the library produces, by a different
route: trial division instead of a sieve, a longdouble cumsum instead of
the compensated float64 prefix, the truncated series instead of the
closed form, Yule-Walker and a scalar recursion instead of the sliced
Burg kernel, a Kahan loop instead of ``math.fsum`` for the zero sum, and
the Riemann-Siegel Z function (via mpmath) for zero ordinates.
"""

import math

import numpy as np


def trial_division_primes(limit: int) -> list[int]:
    return [
        p
        for p in range(2, limit + 1)
        if all(p % d for d in range(2, math.isqrt(p) + 1))
    ]


def mangoldt_by_trial_division(limit: int) -> list[float]:
    lam = [0.0] * (limit + 1)
    for p in trial_division_primes(limit):
        lp = math.log(p)
        q = p
        while q <= limit:
            lam[q] = lp
            q *= p
    return lam


def mangoldt_by_factoring(m: int) -> float:
    """Lambda(m) for one integer: find the least prime factor of m by trial
    division, then check that m is a power of it."""
    if m < 2:
        return 0.0
    p = next((d for d in range(2, math.isqrt(m) + 1) if m % d == 0), m)
    while m % p == 0:
        m //= p
    return math.log(p) if m == 1 else 0.0


def psi_grid_brute(limit: int) -> np.ndarray:
    """psi(1..limit) from the trial-division table, accumulated in pure
    Python with Kahan compensation (independent of the library kernels)."""
    lam = mangoldt_by_trial_division(limit)
    out = np.empty(limit)
    s = 0.0
    c = 0.0
    for m in range(1, limit + 1):
        v = lam[m]
        y = v - c
        t = s + y
        c = (t - s) - y
        s = t
        out[m - 1] = (s - c) - 0.5 * v
    return out


def psi_longdouble(limit: int, block: int = 1 << 16):
    """psi(1..limit), half-jump convention, in np.longdouble, as
    ``(m0, values)`` blocks with ``values[i] = psi(m0 + i)``.

    Lambda comes from one unsegmented sieve of Eratosthenes; each block is
    a longdouble cumsum from a longdouble base, so the rounding error stays
    far below one float64 ulp of psi at any grid size this suite uses.
    """
    is_prime = np.ones(limit + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
    powers = []  # (p^k, log p) for k >= 2
    for p in np.flatnonzero(is_prime[: math.isqrt(limit) + 1]).tolist():
        q = p * p
        while q <= limit:
            powers.append((q, math.log(p)))
            q *= p
    base = np.longdouble(0.0)
    for m0 in range(1, limit + 1, block):
        m1 = min(m0 + block, limit + 1)
        primes = np.flatnonzero(is_prime[m0:m1]) + m0
        lam = np.zeros(m1 - m0)
        lam[primes - m0] = np.log(primes.astype(np.float64))
        for q, lp in powers:
            if m0 <= q < m1:
                lam[q - m0] = lp
        cum = base + np.cumsum(lam, dtype=np.longdouble)
        yield m0, cum - 0.5 * lam.astype(np.longdouble)
        base = cum[-1]


def psi_spot_brute(x: int) -> float:
    """psi(x) as an explicit double loop over primes p and exponents m,
    totalled exactly with math.fsum; the jump at x itself counts half."""
    terms = []
    for p in trial_division_primes(x):
        lp = math.log(p)
        q = p
        while q <= x:
            terms.append(0.5 * lp if q == x else lp)
            q *= p
    return math.fsum(terms)


def smooth_series_50(x: float) -> float:
    """Smooth part via the 50-term truncation of x + sum x^(-2k)/(2k)."""
    terms = [x ** (-2 * k) / (2 * k) for k in range(1, 51)]
    return x + math.fsum(terms) - math.log(2.0 * math.pi)


def yule_walker(y, order: int = 1) -> np.ndarray:
    """AR coefficients from the sample autocovariance (Yule-Walker),
    in the sign convention y_t + a_1 y_{t-1} + ... + a_p y_{t-p} = eps_t."""
    y = np.asarray(y, dtype=np.float64)
    n = y.size
    r = np.array(
        [np.dot(y[: n - k], y[k:]) / n for k in range(order + 1)]
    )
    toeplitz = np.array(
        [[r[abs(i - j)] for j in range(order)] for i in range(order)]
    )
    phi = np.linalg.solve(toeplitz, r[1:])
    return -phi


def is_zeta_zero_ordinate(t: float, half_window: float = 1e-4) -> bool:
    """True when the Riemann-Siegel Z function changes sign across t,
    i.e. a zero of zeta(1/2 + i s) lies within half_window of t."""
    import mpmath

    lo = mpmath.siegelz(t - half_window)
    hi = mpmath.siegelz(t + half_window)
    return mpmath.sign(lo) != mpmath.sign(hi)


def burg_scalar(x, order: int):
    """Burg's recursion as explicit scalar loops over the forward and
    backward prediction errors; returns (coeffs, noise_var) in the sign
    convention of ``yule_walker``."""
    x = [float(v) for v in x]
    n = len(x)
    f = list(x)
    b = list(x)
    a = [0.0] * order
    e = 0.0
    for v in x:
        e += v * v
    e /= n
    for m in range(1, order + 1):
        num = 0.0
        den = 0.0
        for t in range(m, n):
            num += f[t] * b[t - 1]
            den += f[t] * f[t] + b[t - 1] * b[t - 1]
        if den == 0.0:
            break
        k = -2.0 * num / den
        # walk downward so b[t-1] is still the previous-stage value
        for t in range(n - 1, m - 1, -1):
            fo = f[t]
            bo = b[t - 1]
            f[t] = fo + k * bo
            b[t] = bo + k * fo
        for i in range((m - 1) // 2):
            j = m - 2 - i
            ai = a[i]
            aj = a[j]
            a[i] = ai + k * aj
            a[j] = aj + k * ai
        if (m - 1) % 2 == 1:
            mid = (m - 1) // 2
            a[mid] = a[mid] + k * a[mid]
        a[m - 1] = k
        e *= 1.0 - k * k
    return np.array(a), e


def zero_pair_sum_kahan(xs, t_desc) -> np.ndarray:
    """The truncated explicit formula at each x, one term at a time with
    Kahan-compensated accumulation over the descending ordinates."""
    out = np.empty(len(xs))
    for i, x in enumerate(xs):
        lx = math.log(x)
        s = 0.0
        c = 0.0
        for tk in t_desc:
            v = (0.5 * math.cos(tk * lx) + tk * math.sin(tk * lx)) / (
                0.25 + tk * tk
            )
            y = v - c
            t = s + y
            c = (t - s) - y
            s = t
        out[i] = -2.0 * math.sqrt(x) * (s - c)
    return out
