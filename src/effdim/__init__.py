"""Effective-dimension toolkit.

Covariance spectra and effective dimensions, ellipsoid entropy bounds and
covers, deviation suprema of products of marginals (exact for identity
factors at r = 2, else lower estimates by search), the Hessian deviation
of ERM problems (exact at the probe points), Bregman preconditioning,
non-isotropic randomized smoothing, and a CLI harness (``effdim``).
"""

__version__ = "0.1.0"

from .rng import RngStream
from .spectrum import CovarianceSpectrum, make_spectrum, effective_dimension

__all__ = [
    "RngStream",
    "CovarianceSpectrum",
    "make_spectrum",
    "effective_dimension",
    "__version__",
]
