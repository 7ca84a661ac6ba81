"""The zero-sum side of the explicit formula, for cross-validation.

Under the Riemann hypothesis the fluctuation of psi admits the exact
representation (conjugate zero pairs combined into a real form)

    psi_fluc(x) = -2 sqrt(x) sum_k [cos(t_k ln x)/2 + t_k sin(t_k ln x)]
                                   / (1/4 + t_k^2),

with t_k the ordinates of the nontrivial zeros.  Truncations of this sum
give an independent check on the prime-side pipeline.  The asymptotic
spectrum ``P(f) = 2 ln^2(f/(2 pi)) / f^2`` holds only for f >= 2 pi, in the
angular variable conjugate to ln x, as ``analytic --help`` says.
"""

import math
from importlib import resources
from pathlib import Path

import numpy as np

from . import _kernels
from .errors import (DataFormatError, DomainError, content_lines, numeric_lines,
                     open_input)
from .prime_series import _scalar_or_array

TWO_PI = 2.0 * math.pi


def bundled_zeros_path() -> Path:
    """Path of the zero table shipped with the package."""
    return Path(resources.files(__package__) / "data" / "zeta_zeros_2000.txt")


def load_zeros(path) -> np.ndarray:
    """The ordinates of a zero table, one decimal per line, as an ascending
    float64 array.

    Its lines are walked by ``errors.content_lines`` and read by
    ``errors.numeric_lines``, like every input file's: blank lines and
    ``#`` comments, after an ordinate too, are skipped, and a line that is
    not one finite number is refused in the CSV reader's words.  So is an
    ordinate that is nonpositive, not above the one before, or a first one
    at or below 14, each by a :class:`DataFormatError` naming its line.
    """
    path = Path(path)
    with open_input(path, "zeros file") as fh:
        data = fh.read().encode("utf-8", "surrogateescape")
    ordinates = []
    prev = None
    lines = list(content_lines(path, data, 1))
    for (lineno, line), (_, (t,)) in zip(lines, numeric_lines(path, lines, 1)):
        if t <= 0.0:
            raise DataFormatError(
                f"{path}: line {lineno}: ordinate must be positive, got {line}"
            )
        if prev is None and t <= 14.0:
            raise DataFormatError(
                f"{path}: line {lineno}: first ordinate must exceed 14, got {line}"
            )
        if prev is not None and t <= prev:
            raise DataFormatError(
                f"{path}: line {lineno}: ordinates must be strictly ascending "
                f"({line} after {prev})"
            )
        ordinates.append(t)
        prev = t
    if not ordinates:
        raise DataFormatError(f"{path}: no ordinates found")
    return np.asarray(ordinates, dtype=np.float64)


def psi_fluc_from_zeros(x, ordinates):
    """Zero-sum reconstruction of the fluctuation at ``x`` over every one
    of ``ordinates``; truncate by passing the first K, ``zeros[:K]``.

    ``ordinates`` must be one-dimensional and real, finite, positive and
    strictly ascending, as ``load_zeros`` returns them, or a DomainError
    is raised: the kernel takes the last as the largest, t_K, to size its
    windows.  Accepts a scalar or an array of any shape of finite points
    ``x >= 2``, and returns the same shape.  The terms of each point decay
    only like ``1/t_k`` and are totalled by pairwise summation, whose error
    grows like ``log K``.  Where more than 80 points crowd into a window of
    half-width 8 / t_K in ln x, the sum is taken only at 40 Chebyshev
    points of that window and interpolated (``_kernels.zero_pair_sum``).
    Either way the error is set by the rounding of t_k ln x in each term:
    against a 30-digit sum at points among 5000 near 10^6 with all 2000
    zeros, both routes err by at most 2.4e-13 of the largest |value|.
    """
    t = np.asarray(ordinates)
    if t.ndim != 1 or t.dtype.kind not in "biuf" or not (
        np.all(np.isfinite(t) & (t > 0)) and np.all(t[1:] > t[:-1])
    ):
        raise DomainError(
            "ordinates must be one-dimensional, real, finite, positive and "
            "strictly ascending"
        )
    arr = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if not np.all(np.isfinite(arr) & (arr >= 2.0)):
        raise DomainError("reconstruction is defined for finite x >= 2 only")
    t_desc = t[::-1].astype(np.float64)
    out = _kernels.zero_pair_sum(arr.ravel(), t_desc).reshape(arr.shape)
    return _scalar_or_array(x, out)


def analytic_psd(f):
    """Asymptotic one-sided density ``2 ln^2(f/(2 pi)) / f^2``, for f >= 2 pi
    in the angular variable conjugate to ln x; it predicts nothing below."""
    arr = np.asarray(f, dtype=np.float64)
    if not np.all(np.isfinite(arr) & (arr > 0.0)):
        raise DomainError("frequency must be positive and finite")
    lg = np.log(arr / TWO_PI)
    out = 2.0 * lg * lg / (arr * arr)
    return _scalar_or_array(f, out)
