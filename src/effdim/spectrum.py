"""Covariance spectra, effective dimensions, Gaussian sampling, tail bounds.

Spectra are stored as standard deviations ``sigma_i`` (descending, strictly
positive), never as variances, to keep the squared/unsquared convention in
one place.  The covariance is ``diag(sigma**2)``: every quantity here depends
on Sigma only through its spectrum, so no rotation is stored.  The same
sigma are the semi-axes of the ellipsoid Sigma^{1/2} B (see
:mod:`effdim.entropy`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import RngStream


class BadSpectrum(Exception):
    """Spectrum values violate positivity or descending order."""


@dataclass(frozen=True)
class CovarianceSpectrum:
    """Ordered spectrum sigma_1 >= ... >= sigma_d > 0."""

    sigmas: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.sigmas, dtype=float)
        object.__setattr__(self, "sigmas", s)
        if s.ndim != 1 or len(s) < 1:
            raise BadSpectrum("sigmas must be a nonempty 1-d array")
        if not np.all(s > 0):
            raise BadSpectrum("sigmas must be strictly positive")
        if np.any(np.diff(s) > 0):
            raise BadSpectrum("sigmas must be non-increasing")

    @property
    def dim(self) -> int:
        return len(self.sigmas)

    def covariance(self) -> np.ndarray:
        return np.diag(self.sigmas**2)


@dataclass(frozen=True)
class SampleMatrix:
    """n rows of d-dimensional samples."""

    rows: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rows, dtype=float)
        object.__setattr__(self, "rows", r)
        if r.ndim != 2 or r.shape[0] < 1 or r.shape[1] < 1:
            raise ValueError("rows must be a nonempty (n, d) array")
        if not np.all(np.isfinite(r)):
            raise ValueError("rows must be finite")

    @property
    def n(self) -> int:
        return self.rows.shape[0]


def effective_dimension(s: CovarianceSpectrum, r: int) -> float:
    """d_eff(r) = sum_i (sigma_i / sigma_1)^{2/r}, in [1, d].

    Computed in log-space so extreme condition numbers do not underflow to
    spurious zeros; scale-invariant in the spectrum by construction.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    log_ratio = np.log(s.sigmas) - np.log(s.sigmas[0])
    return float(np.sum(np.exp((2.0 / r) * log_ratio)))


def make_spectrum(kind, d: int | None = None, sigma1: float = 1.0,
                  alpha: float | None = None,
                  values=None) -> CovarianceSpectrum:
    """Construct a spectrum.

    ``kind`` is one of ``"isotropic"``, ``"power_law"`` (sigma_i =
    sigma1 * i^{-alpha}), or ``"custom"`` (explicit descending positive
    ``values``).
    """
    if kind == "custom":
        if values is None:
            raise BadSpectrum("custom spectrum requires values")
        return CovarianceSpectrum(np.asarray(values, dtype=float))
    if d is None or d < 1:
        raise BadSpectrum("d must be >= 1")
    if sigma1 <= 0:
        raise BadSpectrum("sigma1 must be positive")
    if kind == "isotropic":
        return CovarianceSpectrum(np.full(d, float(sigma1)))
    if kind == "power_law":
        if alpha is None or alpha <= 0:
            raise BadSpectrum("power_law requires alpha > 0")
        i = np.arange(1, d + 1, dtype=float)
        return CovarianceSpectrum(sigma1 * i**-alpha)
    raise BadSpectrum(f"unknown spectrum kind {kind!r}")


def sample_gaussian(s: CovarianceSpectrum, n: int, rng: RngStream) -> SampleMatrix:
    """n i.i.d. N(0, Sigma) rows: standard normals scaled by sigma."""
    if n < 1:
        raise ValueError("n must be >= 1")
    z = rng.generator().standard_normal((n, s.dim))
    z *= s.sigmas
    return SampleMatrix(z)


def max_norm_bound(s: CovarianceSpectrum, n: int, delta: float) -> float:
    """High-probability bound on max_i ||a_i||^2 over n subgaussian samples.

    Returns 4 * sigma_1^2 * (2 d_eff(1) + ln(1/delta) + ln n); the constant
    is as derived by the Chernoff argument (lambda = 1/(2 sigma_1^2)), not
    optimized.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not (0 < delta < 1):
        raise ValueError("delta must lie in (0, 1)")
    deff1 = effective_dimension(s, 1)
    return float(4.0 * s.sigmas[0] ** 2 * (2.0 * deff1 + np.log(1.0 / delta) + np.log(n)))
