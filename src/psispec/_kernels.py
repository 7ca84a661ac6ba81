"""The hot code of the pipeline, vectorized with numpy.

``mangoldt_segment`` sieves the von Mangoldt function on one segment from
tables of base primes and their powers built once per run, striking
composites with slices and one scatter, and returns its support, the
points where it is nonzero, which ``densify`` lays out in rows of
``ROW_LEN`` values; ``half_jump_prefix`` extends psi over one row,
``burg_recursion`` adds a row to the running sums of the order-1 Burg
fit, ``zero_pair_sum`` totals the explicit formula, term by term at sparse
points and by interpolation from Chebyshev nodes in ln x where points
crowd, ``format_rows`` writes CSV rows at 17 significant digits and
``parse_rows`` reads them back, bit for bit.

Accuracy note: the prefix and the Burg sums carry their running totals as
Kahan pairs and the zero sum totals the terms of each point or node by
numpy's pairwise summation, so none accumulates rounding error that grows
linearly with the length of the input.
"""

import functools
import math

import numpy as np

# ---------------------------------------------------------------------------
# von Mangoldt function on a segment [lo, hi)
# ---------------------------------------------------------------------------


def mangoldt_segment(lo, hi, base_primes, powers, power_logs):
    """Lambda on [lo, hi) by its support: the offsets from ``lo``, in
    order, of every m with Lambda(m) != 0, and Lambda(m) at each, as two
    arrays (``densify`` lays them out as the values at every m).

    ``base_primes`` must hold every prime <= isqrt(hi - 1), in order;
    ``powers`` every power p**k (k >= 1) of them below hi, sorted, and
    ``power_logs`` the log p of each (``prime_series._base_primes`` builds
    the three for a whole grid, and primes or powers beyond the segment
    are ignored).  m < 2 is never in the support.

    The powers take their log p from the table, one ``searchsorted`` per
    segment.  Composites are flagged in one boolean array of the segment,
    struck in two tiers, so that the Python work per segment does not grow
    with the number of base primes:

    - each prime p < (hi - lo) / 64 strikes its multiples by a slice;
    - every larger prime strikes a few times at most, and all of them
      strike in one scatter.

    Each prime starts at max(p*p, first multiple >= lo), so it never strikes
    itself, and smaller multiples have a prime factor below p.  Survivors
    and the powers in the table are the support; survivors that are no
    power in the table are primes above the base primes and carry their
    own log.
    """
    n = hi - lo
    composite = np.zeros(n, dtype=bool)
    primes = base_primes[: np.searchsorted(base_primes, math.isqrt(hi - 1), "right")]
    sparse = np.searchsorted(primes, n / 64)
    sliced = primes[:sparse]
    for p, start in zip(sliced.tolist(), _first_strikes(lo, sliced).tolist()):
        composite[start::p] = True
    if sparse < primes.size:
        _strike_sparse(composite, lo, primes[sparse:])
    i, j = np.searchsorted(powers, (lo, hi))
    at = powers[i:j] - lo
    composite[at] = False
    if lo < 2:
        composite[: 2 - lo] = True
    support = np.flatnonzero(np.logical_not(composite, out=composite))
    del composite
    values = support.astype(np.float64)
    values += lo  # exact: every m is below 2**53
    np.log(values, out=values)
    values[np.searchsorted(support, at)] = power_logs[i:j]
    return support, values


def densify(support, values, n):
    """The ``n`` values at offsets 0 ... n - 1 of which ``values`` are
    those at the offsets ``support`` and the rest are zero: Lambda on a
    row from its share of ``mangoldt_segment``'s support."""
    out = np.zeros(n)
    out[support] = values
    return out


def _first_strikes(lo, primes):
    """Offset from ``lo`` of max(p*p, first multiple >= lo) for each p."""
    return np.maximum(primes * primes, -(-lo // primes) * primes) - lo


def _strike_sparse(composite, lo, primes):
    """Flag in ``composite``, the segment from ``lo``, the multiples of each
    of ``primes`` from max(p*p, first multiple >= lo), by one scatter."""
    n = composite.size
    first = _first_strikes(lo, primes)
    hits = first < n
    p, first = primes[hits], first[hits]
    if not p.size:
        return
    counts = (n - 1 - first) // p + 1
    # one cumsum walks every prime's run: each run's first step jumps from
    # the last strike of the run before it to the prime's first multiple
    steps = np.repeat(p, counts)
    starts = np.cumsum(counts) - counts
    steps[starts] = np.diff(first, prepend=0)
    steps[starts[1:]] -= (counts[:-1] - 1) * p[:-1]
    composite[np.cumsum(steps, out=steps)] = True


# ---------------------------------------------------------------------------
# Compensated half-jump prefix sum
# ---------------------------------------------------------------------------
#
# out[j] = sum(lam[:j+1]) + carry - 0.5 * lam[j], where ``carry`` is the
# running total of earlier rows held as a Kahan pair (s, c) with
# true total ~= s - c.  Returns (out, s, c) so rows chain.

#: The row length: ``prime_series`` lays Lambda out in rows of it, one
#: prefix call each, and ``spectral`` cuts every series into rows of it.
ROW_LEN = 4096


def kahan_add(s, c, x):
    """The Kahan pair ``(s, c)``, whose total is ``s - c``, plus ``x``."""
    y = x - c
    t = s + y
    return t, (t - s) - y


def half_jump_prefix(lam, s, c):
    """Psi over one row of Lambda, ``lam``, in a fresh array, and the pair
    moved on by the row's pairwise total.  ``prime_series`` calls it once
    per row of ``ROW_LEN`` values; ``lam`` is not written."""
    out = np.cumsum(lam)
    out += s - c
    out -= lam * 0.5
    return (out, *kahan_add(s, c, float(lam.sum())))


# ---------------------------------------------------------------------------
# Order-1 Burg sums over one row
# ---------------------------------------------------------------------------
#
# With f = x[1:] and b = x[:-1], the order-1 reflection coefficient is
# k = -2 <f,b> / (<f,f> + <b,b>) and the noise variance <x,x> / n (1 - k^2);
# the four sums are carried from row to row as Kahan pairs, as the prefix
# carries psi.


def burg_recursion(y, sums, last):
    """The Kahan pairs ``sums`` of <x,x>, <f,f>, <b,b> and <f,b> over the
    rows before ``y``, plus the parts of row ``y``, in that order.

    ``last`` is the sample before ``y``, whose products with ``y[0]`` join
    the row's <b,b> and <f,b>, or None when ``y`` is the first row, which
    then has one term fewer in <f,f>.  A part that overflows is left
    non-finite, unwarned, for the caller to refuse."""
    with np.errstate(over="ignore", invalid="ignore"):
        yy = float(np.dot(y, y))
        bb = float(np.dot(y[:-1], y[:-1]))
        fb = float(np.dot(y[1:], y[:-1]))
        if last is None:
            parts = (yy, float(np.dot(y[1:], y[1:])), bb, fb)
        else:
            parts = (yy, yy, last * last + bb, last * float(y[0]) + fb)
    return [kahan_add(*sc, part) for sc, part in zip(sums, parts)]


# ---------------------------------------------------------------------------
# Pair sum over nontrivial zeta zeros
# ---------------------------------------------------------------------------
#
# out[i] = -2 sqrt(x) * S(L),  S(L) = sum_k (cos(t_k L)/2 + t_k sin(t_k L))
# / (1/4 + t_k^2), with L = ln x and ``t_desc`` the ordinates in descending
# order.  S is evaluated by one of two routes:
#
# - Direct: the terms are formed in tiles of points x zeros, and each
#   point's row is totalled by numpy's pairwise sum: against a
#   Kahan-compensated loop over the terms, 200 points near 10^6 with 2000
#   zeros deviate by 4.5e-16 of the largest |value|.  Each row is totalled
#   on its own, so the result does not depend on the tile size.
# - Interpolated: term k has amplitude 1/|rho_k| = (1/4 + t_k^2)^(-1/2) and
#   frequency t_k in L, so S is band-limited to t_max = t_desc[0] and is a
#   polynomial to machine precision over a short window in L (the idea of
#   Odlyzko and Schoenhage, Trans. AMS 309, 1988).  The points, sorted by
#   L, fall in windows of half-width h = 8 / t_max laid from the smallest
#   L.  A window holding more than 2M points, M = ``_NODES`` = 40, takes the
#   direct route only at M Chebyshev points of the second kind spanning it,
#   and fills its points by the barycentric formula (Berrut and Trefethen,
#   SIAM Rev. 46, 2004).  The truncation error of M-point interpolation at
#   these nodes is at most 4 (h t_max / 2)^M / M! ~ 6e-24 times
#   sum_k 1/|rho_k|; what remains is the rounding of t_k L within each
#   term, as on the direct route.  The weights are those of the exact
#   nodes, not of the nodes as rounded to float64: weights computed from
#   the rounded nodes moved the results by at most 1.3e-14 of the largest
#   |value| (5000 points near 10^6).
#
# Every other point takes the direct route, whose bits do not depend on the
# other points.  Both routes depend only on the set of points, not on their
# order, and hold one tile of at most ``_TILE_TERMS`` values.  The tiles
# run on one thread: two threads halved the direct route's time but
# shortened the ``numeric`` benchmark's wall time in only 8 of 10
# interleaved pairs on a 2-core machine.

#: Terms per tile: 2^15 float64 values, 256 KiB per temporary.  Two are
#: live per tile, within a 2 MiB L2.  Tiles of 2^17 terms raised the peak
#: RSS of ``reconstruct --n 5000 --x-start 1010000 --K 2000`` from 32.6 to
#: 33.3 MB, above that of its sieve.
_TILE_TERMS = 1 << 15
#: Chebyshev points per interpolated window.
_NODES = 40
#: Half-width of a window in L times the largest ordinate.
_WINDOW_PHASE = 8.0


@functools.cache
def _chebyshev():
    """The ``_NODES`` Chebyshev points cos(j pi / (M - 1)) and their
    barycentric weights, (-1)^j halved at both ends; made on the first
    call, since numpy's cos adds about 0.4 MB of resident code to a
    process that has not used it yet."""
    j = np.arange(_NODES)
    weights = np.where(j % 2, -1.0, 1.0)
    weights[[0, -1]] *= 0.5
    return np.cos(np.pi * j / (_NODES - 1)), weights


def zero_pair_sum(xs, t_desc):
    """The explicit-formula sum -2 sqrt(x) S(ln x) at each of the points
    ``xs`` (one-dimensional), over the ordinates ``t_desc`` (descending)."""
    # math.log, not np.log: numpy's vectorised log can differ by one ulp,
    # and t up to a few thousand carries that into the sum
    lx = np.fromiter(map(math.log, xs.tolist()), dtype=np.float64, count=xs.size)
    out = np.empty(lx.size, dtype=np.float64)
    rest = slice(None)
    if t_desc.size and lx.size > 2 * _NODES:
        rest = _interpolate_windows(lx, t_desc, out)
    out[rest] = _direct_sums(lx[rest], t_desc)
    out *= -2.0 * np.sqrt(xs)
    out += 0.0  # an empty sum, -2 sqrt(x) * 0.0, is +0.0, not -0.0
    return out


def _direct_sums(lx, t_desc):
    """S at each of ``lx``, term by term."""
    n = lx.shape[0]
    out = np.empty(n, dtype=np.float64)
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
    return out


def _interpolate_windows(lx, t_desc, out):
    """Write S into ``out`` at the points of every window that holds more
    than 2M of ``lx``, and return the indices of the other points."""
    half = _WINDOW_PHASE / t_desc[0]
    order = np.argsort(lx)
    ls = lx[order]
    window = np.floor((ls - ls[0]) / (2.0 * half))
    starts = np.flatnonzero(np.diff(window, prepend=-1.0))
    ends = np.append(starts[1:], ls.size)
    dense = ends - starts > 2 * _NODES
    if dense.any():
        centres = ls[0] + (window[starts[dense]] + 0.5) * (2.0 * half)
        nodes = centres[:, None] + half * _chebyshev()[0]
        values = _direct_sums(nodes.ravel(), t_desc).reshape(nodes.shape)
        for lo, hi, node, value in zip(
            starts[dense].tolist(), ends[dense].tolist(), nodes, values
        ):
            out[order[lo:hi]] = _barycentric(ls[lo:hi], node, value)
    return order[np.repeat(~dense, ends - starts)]


def _barycentric(ls, nodes, values):
    """The polynomial through (``nodes``, ``values``) at each of ``ls``, by
    the second barycentric formula; a point equal to a node takes its
    value."""
    weights = _chebyshev()[1]
    out = np.empty(ls.size, dtype=np.float64)
    rows = max(1, _TILE_TERMS // _NODES)
    for lo in range(0, ls.size, rows):
        q = np.subtract.outer(ls[lo : lo + rows], nodes)
        hit_row, hit_node = np.nonzero(q == 0.0)
        q[hit_row, hit_node] = 1.0
        np.divide(weights, q, out=q)
        tile = out[lo : lo + rows]
        np.divide((q * values).sum(axis=1), q.sum(axis=1), out=tile)
        tile[hit_row] = values[hit_node]
    return out


# ---------------------------------------------------------------------------
# CSV rows at 17 significant digits
# ---------------------------------------------------------------------------
#
# A value is laid out in a field of 40 bytes, five little-endian uint64
# words, and the NUL bytes are deleted at the end:
#
#   word 0    sign, "0." and up to three zeros (exponent below 0), d0, "."
#   words 1-4 d1 ... d16 in 16-bit lanes: the digit in the low byte, and
#             in the high byte the "." that follows it, if it does
#
# with the column separator in the unused high byte of d16's lane.  What a
# field holds besides the digits depends only on the decimal exponent E and
# on how many digits are kept, so it comes from one table row.

#: Veltkamp's splitting factor for float64: 2**27 + 1.
_SPLIT = 134217729.0
#: 10**s for s = 0 ... 22, exact in float64 (5**s < 2**53), with its
#: Veltkamp halves of at most 26 significant bits each.
_POW10 = np.array([float(10**s) for s in range(23)])
_POW10_HI = _POW10 * _SPLIT - (_POW10 * _SPLIT - _POW10)
_POW10_LO = _POW10 - _POW10_HI
#: Decimal exponents written in fixed notation: %g's -4 <= E < precision.
_E_MIN, _E_MAX = -4, 16


def _digit_groups():
    """Tables over q = 0 ... 9999: its four digits, thousands first, in the
    low bytes of 16-bit lanes; and, for the group at position k = 0 ... 3
    after d0, entry k * 10**4 + q, the number of digits after d0 up to the
    last nonzero one of q (0 for q = 0)."""
    grid = np.ix_(*[np.arange(10, dtype=np.uint64)] * 4)
    lanes = grid[0] | grid[1] << 16 | grid[2] << 32 | grid[3] << 48
    place = [np.where(g > 0, np.uint8(i + 1), np.uint8(0)) for i, g in enumerate(grid)]
    last = np.maximum(np.maximum(place[0], place[1]), np.maximum(place[2], place[3]))
    last = last.reshape(1, -1)
    offsets = np.arange(0, 16, 4, dtype=np.uint8)[:, None]
    return lanes.ravel(), np.where(last > 0, last + offsets, np.uint8(0)).ravel()


def _field_overlay():
    """Field bytes besides the digits, as rows of five uint64 words, one row
    per (E, cut) at ``(E - _E_MIN) * 18 + cut``: "0." and the zeros that
    precede d0 when E < 0, "0" on the lanes of the ``cut`` digits kept,
    and "." after d_E when a digit after it is kept."""
    exp = np.arange(_E_MIN, _E_MAX + 1)[:, None, None]
    cut = np.arange(18)[None, :, None]
    i = np.arange(17)[None, None, :]  # digit index, d0 ... d16
    field = np.zeros((exp.size, cut.size, 40), dtype=np.uint8)
    field[:, :, 1:6] = np.where(exp <= [-1, -1, -2, -3, -4], list(b"0.000"), 0)
    field[:, :, 6::2] = np.where(i < cut, ord("0"), 0)
    field[:, :, 7::2] = np.where((i == exp) & (cut > i + 1), ord("."), 0)
    return field.reshape(-1, 40).view(np.uint64).copy()


@functools.cache
def _format_tables():
    """The digit-group and field tables, built on the first call, so that
    commands that write no CSV do not pay for them."""
    return (*_digit_groups(), _field_overlay())


def _scaled(a, e):
    """floor and round-half-even of a * 10**(16 - e), as int64, from the
    exact product p + err (Dekker's two-product over Veltkamp halves)."""
    s = 16 - e
    c = a * _SPLIT
    a_hi = c - (c - a)
    del c
    a_lo = a - a_hi
    b_hi = _POW10_HI.take(s)
    b_lo = _POW10_LO.take(s)
    p = a * _POW10.take(s)
    del s
    err = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    del a_hi, a_lo, b_hi, b_lo
    whole = p.astype(np.int64)
    del p
    return whole + np.floor(err).astype(np.int64), whole + np.rint(err).astype(np.int64)


def format_rows(columns) -> str:
    """CSV text of equal-length float64 ``columns``: one line per index, the
    values joined by ",", each exactly ``format(v, ".17g")``.

    For |v| in [1e-4, 1e17) the 17 digits D = round-half-even(|v| *
    10**(16 - E)), with E the decimal exponent of |v|, come from integer
    arithmetic on an exact product:

    - E starts as floor(log10 |v|), which can be one off next to a power
      of ten, and is moved by one where the exact floor of |v| * 10**(16 -
      E) falls outside [10**16, 10**17).  These values have E in [-4, 16],
      so 16 - E is in [0, 20] and 10**(16 - E) is exact in float64.
    - p + err = |v| * 10**(16 - E) exactly, with p the float64 product and
      err from Dekker's two-product: the Veltkamp halves of both factors
      have at most 26 bits, so every partial product is exact, and |v| >=
      1e-4 keeps them all clear of underflow.
    - p >= 10**16 > 2**53 is an even integer, so round-half-even of
      p + err is p + rint(err): numpy's rint rounds halves to even, as
      ``format`` does for a tie of the exact decimal value.
    - D never rounds up to 10**17, which would move E: the largest float64
      below each 10**k, k = -3 ... 17, lies at least 8 units of the 17th
      digit below it.

    The digits are then laid out as %g's fixed notation for -4 <= E <= 16,
    trailing fraction zeros and a bare "." dropped.  Every other value (0,
    -0, nan, ±inf, |v| < 1e-4 and |v| >= 1e17) is written by ``format``
    itself into its field.  This relies only on IEEE binary64 arithmetic
    with rounding to nearest even, which numpy's float64 ufuncs follow.
    """
    n_cols = len(columns)
    values = np.column_stack(columns).astype(np.float64, copy=False).ravel()
    size = values.size
    negative = values < 0
    a = np.abs(values)
    fast = (a >= 1e-4) & (a < 1e17)  # False for nan
    slow = np.flatnonzero(~fast)
    slow_values = values[slow].tolist()
    del values
    a[slow] = 1.0  # laid out as "1", then overwritten
    e = np.clip(np.floor(np.log10(a)), _E_MIN, _E_MAX).astype(np.int64)
    floor, digits = _scaled(a, e)
    shift = (floor >= 10**17).astype(np.int64) - (floor < 10**16)
    del floor
    near = np.flatnonzero(shift)
    if near.size:
        e[near] += shift[near]
        _, digits[near] = _scaled(a[near], e[near])
    del a, shift, near

    d0, rest = np.divmod(digits, 10**16)
    del digits
    upper, lower = np.divmod(rest, 10**8)
    del rest
    groups = np.empty((size, 4), dtype=np.int64)
    np.divmod(upper, 10**4, out=(groups[:, 0], groups[:, 1]))
    np.divmod(lower, 10**4, out=(groups[:, 2], groups[:, 3]))
    del upper, lower
    group_lanes, group_last, overlay = _format_tables()
    # digits kept: up to the last nonzero one, and all of the integer part
    last = group_last.take(groups + np.arange(0, 40_000, 10_000))
    nonzero = np.maximum(np.maximum(last[:, 0], last[:, 1]), np.maximum(last[:, 2], last[:, 3]))
    del last
    cut = np.maximum(nonzero.astype(np.int64) + 1, e + 1)
    del nonzero

    field = overlay.take((e - _E_MIN) * 18 + cut, axis=0)
    del e, cut
    # lane by lane, so that the temporary is a quarter of one take's
    for lane in range(4):
        field[:, lane + 1] |= group_lanes.take(groups[:, lane])
    del groups
    field[:, 0] |= d0.astype(np.uint64) << np.uint64(48)
    del d0
    field[:, 0] |= np.where(negative, np.uint64(ord("-")), np.uint64(0))
    del negative
    seps = np.full(n_cols, ord(","), dtype=np.uint64)
    seps[-1] = ord("\n")
    field.reshape(-1, n_cols, 5)[:, :, 4] |= seps << np.uint64(56)
    if slow.size:
        text = [format(v, ".17g") for v in slow_values]
        raw = np.array(text, dtype="S39").view(np.uint8).reshape(slow.size, 39)
        field.view(np.uint8).reshape(-1, 40)[slow, :39] = raw
    data = field.tobytes()
    del field
    data = data.translate(None, b"\0")
    return data.decode("ascii")


# ---------------------------------------------------------------------------
# CSV rows back to float64
# ---------------------------------------------------------------------------
#
# The syntax is checked on the bytes below "0" alone: the kind of each, of
# the one before it, and whether the digits between them number 0, 1 ... 22
# or more.  A field -?I(.F)? with k fraction digits is the integer D = IF
# divided by 10**k, and one ``np.fromstring`` call over the text with "."
# deleted, "\n" mapped to "," and "-" to a blank reads D of every field.

#: Kind of each byte below "0": "\n", ",", "-", ".", anything else.
_KIND = np.full(48, 4, dtype=np.int8)
_KIND[list(b"\n,-.")] = range(4)
#: Longest digit run of a canonical field.  An integer part of at most 22
#: digits is below 1e22, so every canonical field is a finite number.
_RUN_MAX = 22


def _syntax_table():
    """Allowed (kind before, kind, digits between) at ``(before * 5 +
    kind) * 3 + runs``, where runs is 0 for no digits, 1 for 1 ...
    ``_RUN_MAX`` and 2 for more: "-" right after a separator, or a
    separator or "." after digits, but not "." after "." in one field."""
    table = np.zeros((5, 5, 3), dtype=bool)
    table[:2, 2, 0] = True
    table[:4, :2, 1] = True
    table[:3, 3, 1] = True
    return table.ravel()


_SYNTAX = _syntax_table()
#: 5**k as uint64, k = 0 ... 22.
_POW5_INT = np.array([5**k for k in range(_RUN_MAX + 1)], dtype=np.uint64)
_FIELDS = bytes.maketrans(b"\n-", b", ")
_MANTISSA = np.uint64(2**52 - 1)
_HIDDEN = np.uint64(2**52)


def parse_rows(data: bytes, n_cols: int, usecols):
    """Columns ``usecols`` of the CSV rows in ``data``, each its own
    float64 array holding exactly ``float`` of every field's text; or None
    unless ``data`` is canonical: rows of ``n_cols`` fields
    ``-?[0-9]+(\\.[0-9]+)?`` joined by "," and each ending in "\\n", with
    no digit run longer than 22.

    Every field is checked for that syntax; only those of ``usecols`` are
    converted.  A field with D < 10**19 is rounded correctly without a
    string-to-double call (Clinger's fast path, with the 53-bit limit on D
    lifted by an exact correction step):

    - q = float(D) / 10**k.  float(D) is within half an ulp of D, 10**k is
      exact for k <= 22, and the division rounds once more, so q is within
      1.5 ulp of v = D / 10**k: the correctly rounded value or one of its
      neighbours, and in the binade of v unless q is a power of two.
    - Write q = m * 2**e with 2**52 <= m < 2**53 and s = e + k.  Then
      v - q = (R / h) * ulp / 2 for the integers R = D * 2**(1 - s) -
      2m * 5**k and h = 5**k if s <= 1, or R = D - 2m * 5**k * 2**(s - 1)
      and h = 5**k * 2**(s - 1) if s > 1.  The result is q + ulp if R > h,
      q - ulp if R < -h, q if |R| < h, and the one of them with an even m
      if |R| = h, as ``float`` rounds a tie of the decimal value.  Adding
      +-1 to the bit pattern of q gives q +- ulp, also where q + ulp is the
      next power of two.
    - |R| < 3h <= 3 * 5**22 < 2**63, so R is exact when computed modulo
      2**64 in wrapping uint64 arithmetic and read as int64, however large
      D * 2**(1 - s) and 2m * 5**k are.  numpy shifts a uint64 by 64 or
      more to 0, which is that power of two modulo 2**64.
    - Below a power of two q the ulp halves, so m = 2**52 with R < 0 is not
      decided here.

    Those fields, and any with D >= 10**19 (20 or more significant digits;
    ``np.fromstring`` saturates at 2**64 - 1), go to ``float`` of their own
    text.  This relies only on IEEE binary64 arithmetic with rounding to
    nearest even, which numpy's float64 ufuncs follow.
    """
    b = np.frombuffer(data, dtype=np.uint8)
    if not b.size:
        return [np.empty(0) for _ in usecols]
    if b[-1] != ord("\n") or b.max() > ord("9"):
        return None
    punct = np.flatnonzero(b < ord("0"))
    kind = _KIND.take(b[punct])
    before = np.roll(kind, 1)
    before[0] = 0  # the chunk starts as after a "\n"
    gap = np.diff(punct, prepend=-1)  # digits between, plus one
    runs = (gap > 1).view(np.int8) + (gap > _RUN_MAX + 1).view(np.int8)
    if not _SYNTAX.take((before * 5 + kind) * 3 + runs).all():
        return None
    del runs
    sep = np.flatnonzero(kind <= 1)
    row = [1] * (n_cols - 1) + [0]
    if sep.size % n_cols or not (kind[sep].reshape(-1, n_cols) == row).all():
        return None

    # the used fields, column by column: f, their index among all fields,
    # and in ``punct``, head and tail, the separators before and after them
    f = (np.arange(0, sep.size, n_cols) + np.array(usecols)[:, None]).ravel()
    sep = np.concatenate(([-1], sep))
    head, tail = sep.take(f), sep.take(f + 1)
    del sep
    negative = kind.take(head + 1) == 2
    del kind
    k = np.where(before.take(tail) == 3, gap.take(tail) - 1, 0)
    del before, gap
    d = np.fromstring(data.translate(_FIELDS, b"."), dtype=np.uint64, sep=",")
    d = d.take(f)
    del f

    q = d.astype(np.float64) / _POW10.take(k)
    bits = q.view(np.uint64)
    # q = m * 2**e, with e the biased exponent less 1023 + 52
    s = (bits >> np.uint64(52)).view(np.int64) + (k - 1075)
    h = _POW5_INT.take(k) << np.maximum(s - 1, 0).astype(np.uint64)
    del k
    m = (bits & _MANTISSA) | _HIDDEN
    scaled = d << np.maximum(1 - s, 0).astype(np.uint64)
    del s
    r = (scaled - (m << np.uint64(1)) * h).view(np.int64)
    del scaled, m
    r[d == 0] = 0  # q = 0 is exact
    h = h.view(np.int64)
    odd = (bits & np.uint64(1)).view(np.int64)
    step = (r + odd > h).view(np.int8) - (r - odd < -h).view(np.int8)
    del h, odd
    edge = ((bits & _MANTISSA) == 0) & (r < 0)
    del r
    slow = np.flatnonzero((d >= np.uint64(10**19)) | edge)
    del d, edge
    bits += step.astype(np.uint64)
    del step
    values = bits.view(np.float64)
    np.negative(values, out=values, where=negative)
    del negative
    if slow.size:
        start = np.concatenate(([-1], punct)).take(head[slow] + 1) + 1
        end = punct.take(tail[slow])
        values[slow] = [float(data[i:j]) for i, j in zip(start.tolist(), end.tolist())]
    return [column.copy() for column in values.reshape(len(usecols), -1)]
