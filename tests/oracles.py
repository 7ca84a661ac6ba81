"""Independent reference implementations, used only by the tests.

Each oracle recomputes a quantity the library produces, by a different
route: trial division or one unsegmented sieve instead of the segmented
one, a loop over every base prime instead of the kernel's strike tiers, a
longdouble cumsum instead of the compensated float64 prefix, the
truncated series instead of the closed form, Yule-Walker, a scalar
recursion and whole-array dot products instead of the row-wise Burg sums,
a Kahan loop and a 30-digit mpmath loop instead of the tiled or
interpolated zero sum, and the Riemann-Siegel Z function (via mpmath) for
zero ordinates.  ``fourier_mag_asymptotic`` is the one formula here with no
library counterpart: the transform magnitude that the asymptotic density
is checked against.
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


def mangoldt_segment_by_loop(lo: int, hi: int) -> np.ndarray:
    """Lambda on [lo, hi) by one Python loop over the primes p <=
    isqrt(hi - 1): each strikes its multiples from max(p*p, first multiple
    >= lo) by a slice and puts log p at its powers; unstruck m >= 2 that
    carry nothing yet are primes, with log m.  No wheel, no strike tiers and
    no table of prime powers, so it checks ``_kernels.mangoldt_segment``
    bit for bit."""
    root = math.isqrt(hi - 1)
    is_prime = np.ones(root + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(root) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
    primes = np.flatnonzero(is_prime)
    logs = np.log(primes.astype(np.float64))
    n = hi - lo
    lam = np.zeros(n)
    composite = np.zeros(n, dtype=bool)
    for p, lp in zip(primes.tolist(), logs.tolist()):
        start = max(p * p, -(-lo // p) * p)
        composite[start - lo :: p] = True
        q = p
        while q < hi:
            if q >= lo:
                lam[q - lo] = lp
            q *= p
    fresh = np.flatnonzero(~composite & (lam == 0.0)) + lo
    fresh = fresh[fresh >= 2]
    lam[fresh - lo] = np.log(fresh.astype(np.float64))
    return lam


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


def mangoldt_sieve(limit: int) -> np.ndarray:
    """Lambda(0..limit) from one unsegmented sieve of Eratosthenes: log p
    at every power of the prime p, 0 elsewhere."""
    is_prime = np.ones(limit + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
    primes = np.flatnonzero(is_prime)
    lam = np.zeros(limit + 1)
    lam[primes] = np.log(primes.astype(np.float64))
    for p in np.flatnonzero(is_prime[: math.isqrt(limit) + 1]).tolist():
        q = p * p
        while q <= limit:
            lam[q] = math.log(p)
            q *= p
    return lam


def psi_longdouble(limit: int, block: int = 1 << 16):
    """psi(1..limit), half-jump convention, in np.longdouble, as
    ``(m0, values)`` blocks with ``values[i] = psi(m0 + i)``.

    Lambda comes from ``mangoldt_sieve``; each block is a longdouble cumsum
    from a longdouble base, so the rounding error stays far below one
    float64 ulp of psi at any grid size this suite uses.
    """
    lam = mangoldt_sieve(limit)
    base = np.longdouble(0.0)
    for m0 in range(1, limit + 1, block):
        part = lam[m0 : min(m0 + block, limit + 1)]
        cum = base + np.cumsum(part, dtype=np.longdouble)
        yield m0, cum - 0.5 * part.astype(np.longdouble)
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


def fourier_mag_asymptotic(f: float) -> float:
    """|F(f)| = ln(f/(2 pi)) / sqrt(1/4 + f^2), the stationary-phase
    magnitude of the fluctuation's transform in the angular variable f
    conjugate to ln x, for f >= 2 pi, where the asymptotic density
    2 ln^2(f/(2 pi)) / f^2 must equal 2 |F|^2 to within a factor
    f^2 / (1/4 + f^2)."""
    return math.log(f / (2.0 * math.pi)) / math.sqrt(0.25 + f * f)


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


def burg1_array(x):
    """``(coeff, noise_var)`` of the order-1 Burg fit of ``x`` as it is,
    from dot products over the whole array: f = x[1:], b = x[:-1],
    k = -2 <f,b> / (<f,f> + <b,b>) and noise_var = <x,x> / n (1 - k^2)."""
    x = np.asarray(x, dtype=np.float64)
    f, b = x[1:], x[:-1]
    den = float(np.dot(f, f) + np.dot(b, b))
    k = -2.0 * float(np.dot(f, b)) / den if den else 0.0
    e = float(np.dot(x, x)) / x.size
    e *= 1.0 - k * k
    return k, e


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


def zero_pair_sum_mpmath(xs, t_desc, dps: int = 30) -> np.ndarray:
    """The truncated explicit formula at each x, every term and the log in
    ``dps``-digit arithmetic, with the float64 ordinates taken as exact."""
    import mpmath

    with mpmath.workdps(dps):
        ts = [mpmath.mpf(t) for t in np.asarray(t_desc).tolist()]
        out = []
        for x in np.asarray(xs).tolist():
            lx = mpmath.log(mpmath.mpf(x))
            s = mpmath.fsum(
                (mpmath.cos(t * lx) / 2 + t * mpmath.sin(t * lx)) / (0.25 + t * t)
                for t in ts
            )
            out.append(float(-2 * mpmath.sqrt(x) * s))
    return np.array(out)


def burg1_longdouble(x: np.ndarray, chunk: int = 1 << 16) -> tuple[float, float]:
    """``(k, noise_var)`` of the order-1 Burg fit of ``x`` minus its mean,
    in longdouble, a chunk at a time.  ``1 + k`` is taken as the sum of the
    squared steps ``x[t] - x[t-1]`` over <f,f> + <b,b>, which the mean does
    not enter, so the closed form loses nothing to cancellation near
    k = -1, where the library's ``-2 <f,b> / (<f,f> + <b,b>)`` is
    ill-conditioned."""
    mean = np.sum(x, dtype=np.longdouble) / x.size
    xx = steps = np.longdouble(0.0)
    for lo in range(0, x.size, chunk):
        y = x[lo : lo + chunk + 1].astype(np.longdouble)
        steps += np.sum(np.diff(y) ** 2)
        y = y[:chunk] - mean
        xx += np.sum(y * y)
    first, last = x[0] - mean, x[-1] - mean
    r = steps / (2.0 * xx - first * first - last * last)  # 1 + k
    return float(r - 1.0), float(xx / x.size * r * (2.0 - r))
