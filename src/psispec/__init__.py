"""psispec: power spectrum of the fluctuation of Chebyshev's psi function.

The pipeline: sieve psi on an integer grid, subtract the smooth part,
estimate the one-sided power spectral density (Burg maximum entropy or
Welch), and fit a power law ``P(f) = a f^b`` in log-log coordinates.
The zero-sum route (truncated explicit formula over nontrivial zeta
zeros) and the asymptotic spectrum provide independent cross-checks.
"""

from .errors import (
    DataFormatError,
    DegenerateInputError,
    DomainError,
    PsispecError,
    ResourceError,
)
from .powerlaw import DEFAULT_BAND, PowerLawFit, fit_power_law
from .prime_series import (
    GridSeries,
    fluctuation_at,
    fluctuation_series,
    grid_segments,
    psi_series,
    sieve_prime_power_logs,
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
    ZetaZeros,
    analytic_fourier_mag,
    analytic_psd,
    analytic_spectrum,
    bundled_zeros_path,
    load_zeros,
    psi_fluc_from_zeros,
    zero_density_avg,
)

__version__ = "0.1.0"

__all__ = [
    "PsispecError",
    "DomainError",
    "DegenerateInputError",
    "DataFormatError",
    "ResourceError",
    "GridSeries",
    "sieve_prime_power_logs",
    "psi_series",
    "smooth_part",
    "fluctuation_series",
    "fluctuation_at",
    "grid_segments",
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
    "ZetaZeros",
    "load_zeros",
    "bundled_zeros_path",
    "psi_fluc_from_zeros",
    "zero_density_avg",
    "analytic_fourier_mag",
    "analytic_psd",
    "analytic_spectrum",
    "__version__",
]
