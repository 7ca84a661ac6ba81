"""Independent references for the benchmark's output checks.

Nothing here imports psispec.  Each quantity is recomputed by a plainer
route than the package takes:

* psi: an unsegmented sieve of Eratosthenes and a ``longdouble`` cumulative
  sum, where the package sieves in segments and carries a Kahan pair;
* Burg order 1: the closed-form reflection coefficient, where the package
  runs the general recursion;
* Welch: ``scipy.signal.welch``;
* the zero sum: ``longdouble`` arithmetic over the same float64 ordinates.
"""

import math

import numpy as np

LN_2PI = np.log(np.longdouble(2.0) * np.pi)

#: Log frequency grid of ``spectrum --method mem`` (its defaults).
MEM_N_FREQ = 512
MEM_F_LO = 1e-4

#: Default band of ``fit``.
FIT_BAND = (1e-3, 1e-1)


def von_mangoldt(limit: int) -> np.ndarray:
    """``lam[m]`` = log p when m is a power of the prime p, else 0, m <= limit."""
    is_prime = np.ones(limit + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
    primes = np.flatnonzero(is_prime)
    lam = np.zeros(limit + 1)
    lam[primes] = np.log(primes.astype(np.float64))
    for p in primes[primes <= math.isqrt(limit)].tolist():
        q = p * p
        while q <= limit:
            lam[q] = math.log(p)
            q *= p
    return lam


def psi_prefix(limit: int) -> tuple[np.ndarray, np.ndarray]:
    """``(lam, cum)`` with ``cum[m]`` the sum of Lambda over [1, m] in longdouble."""
    lam = von_mangoldt(limit)
    return lam, np.cumsum(lam, dtype=np.longdouble)


def smooth(x) -> np.ndarray:
    """Smooth part ``x - log(1 - x^-2)/2 - log(2 pi)`` in longdouble."""
    x = np.asarray(x, dtype=np.longdouble)
    return x - 0.5 * np.log1p(-1.0 / (x * x)) - LN_2PI


def psi_grid(x_start: int, n: int) -> np.ndarray:
    """psi at the integers x_start .. x_start + n - 1, half-jump convention."""
    lam, cum = psi_prefix(x_start + n - 1)
    sl = slice(x_start, x_start + n)
    return cum[sl] - 0.5 * lam[sl]


def fluctuation_grid(x_start: int, n: int) -> np.ndarray:
    """psi minus its smooth part on the integer grid, rounded to float64."""
    x = np.arange(x_start, x_start + n)
    return (psi_grid(x_start, n) - smooth(x)).astype(np.float64)


def fluctuation_between(points: np.ndarray) -> np.ndarray:
    """Fluctuation at non-integer points: psi is the full prefix through floor(x)."""
    floors = np.floor(points).astype(np.int64)
    _, cum = psi_prefix(int(floors.max()))
    return (cum[floors] - smooth(points)).astype(np.float64)


def demean(values: np.ndarray) -> np.ndarray:
    return values - values.astype(np.longdouble).mean().astype(np.float64)


def burg1(x: np.ndarray) -> tuple[float, float]:
    """Order-1 Burg fit in closed form: reflection k and noise variance."""
    xl = x.astype(np.longdouble)
    f, b = xl[1:], xl[:-1]
    k = -2.0 * np.sum(f * b) / (np.sum(f * f) + np.sum(b * b))
    noise_var = np.sum(xl * xl) / xl.size * (1.0 - k * k)
    return float(k), float(noise_var)


def ar1_psd(k: float, noise_var: float) -> tuple[np.ndarray, np.ndarray]:
    """One-sided AR(1) density on the ``spectrum --method mem`` log grid."""
    freqs = np.logspace(math.log10(MEM_F_LO), math.log10(0.5), MEM_N_FREQ)
    freqs[0], freqs[-1] = MEM_F_LO, 0.5
    omega = 2.0 * np.pi * freqs.astype(np.longdouble)
    denom = 1.0 + 2.0 * k * np.cos(omega) + k * k
    return freqs, (2.0 * noise_var / denom).astype(np.float64)


def power_law(freqs: np.ndarray, power: np.ndarray) -> dict:
    """``np.polyfit`` of log10 P on log10 f over the default fit band."""
    f_min, f_max = FIT_BAND
    use = (freqs >= f_min) & (freqs <= f_max) & (power > 0)
    slope, intercept = np.polyfit(np.log10(freqs[use]), np.log10(power[use]), 1)
    return {"a": 10.0**intercept, "b": slope, "n_points": int(use.sum())}


def welch(x: np.ndarray, segment: int) -> tuple[np.ndarray, np.ndarray]:
    """Periodic Hann, 50% overlap, no detrending, one-sided density."""
    from scipy.signal import get_window, welch as scipy_welch

    return scipy_welch(
        x, fs=1.0, window=get_window("hann", segment, fftbins=True),
        nperseg=segment, noverlap=segment // 2, detrend=False,
        scaling="density",
    )


def load_ordinates(path) -> np.ndarray:
    """Zero ordinates of a one-per-line table, as float64 (``#`` lines skipped)."""
    with open(path) as fh:
        rows = [line.strip() for line in fh]
    return np.array([float(r) for r in rows if r and not r.startswith("#")])


def zero_sum(points: np.ndarray, ordinates: np.ndarray) -> np.ndarray:
    """-2 sqrt(x) sum_k [cos(t_k ln x)/2 + t_k sin(t_k ln x)] / (1/4 + t_k^2)."""
    t = ordinates.astype(np.longdouble)
    out = np.empty(points.size)
    for i, x in enumerate(points.astype(np.longdouble)):
        phase = t * np.log(x)
        terms = (0.5 * np.cos(phase) + t * np.sin(phase)) / (0.25 + t * t)
        out[i] = float(-2.0 * np.sqrt(x) * np.sum(terms))
    return out
