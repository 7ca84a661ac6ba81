"""psispec: power spectrum of the fluctuation of Chebyshev's psi function.

The pipeline: sieve psi on an integer grid, subtract the smooth part,
estimate the one-sided power spectral density (Burg maximum entropy or
Welch), and fit a power law ``P(f) = a f^b`` in log-log coordinates.
The zero-sum route (truncated explicit formula over nontrivial zeta
zeros) and the asymptotic spectrum provide independent cross-checks.
"""

import os

# One OpenBLAS thread unless OPENBLAS_NUM_THREADS or OMP_NUM_THREADS
# chooses.  psispec's BLAS calls, the four dot products per row of Burg's
# sums and the least-squares power-law fit, work on
# memory-bound or small arrays, which a second thread does not speed up;
# an idle OpenBLAS thread instead spins after numpy loads and after each
# call, taking CPU from the main thread.  OpenBLAS reads the variable
# when it loads, so this holds only when psispec is imported before numpy,
# as the ``psispec`` command does.
if "OMP_NUM_THREADS" not in os.environ:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .errors import (
    DataFormatError,
    DegenerateInputError,
    DomainError,
    PsispecError,
    ResourceError,
)
from .powerlaw import DEFAULT_BAND, PowerLawFit, fit_power_law
from .prime_series import (
    fluctuation_at,
    fluctuation_rows,
    fluctuation_series,
    psi_rows,
    psi_series,
    smooth_part,
)
from .spectral import (
    ArModel,
    BlockSeries,
    PowerSpectrum,
    ar_psd,
    burg_fit,
    default_segment_len,
    remove_mean,
    welch_psd,
)
from .zeta import (
    analytic_psd,
    bundled_zeros_path,
    load_zeros,
    psi_fluc_from_zeros,
)

__version__ = "0.1.0"

__all__ = [
    "PsispecError",
    "DomainError",
    "DegenerateInputError",
    "DataFormatError",
    "ResourceError",
    "psi_series",
    "smooth_part",
    "fluctuation_series",
    "fluctuation_at",
    "psi_rows",
    "fluctuation_rows",
    "ArModel",
    "PowerSpectrum",
    "BlockSeries",
    "burg_fit",
    "ar_psd",
    "welch_psd",
    "remove_mean",
    "default_segment_len",
    "PowerLawFit",
    "DEFAULT_BAND",
    "fit_power_law",
    "load_zeros",
    "bundled_zeros_path",
    "psi_fluc_from_zeros",
    "analytic_psd",
    "__version__",
]
