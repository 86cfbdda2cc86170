"""Covariance spectra, effective dimensions, Gaussian sampling, tail bounds.

Spectra are stored as standard deviations ``sigma_i`` (descending, strictly
positive), never as variances, to keep the squared/unsquared convention in
one place.  The covariance is ``diag(sigma**2)``: every quantity here depends
on Sigma only through its spectrum, so no rotation is stored.  The same
sigma are the semi-axes of the ellipsoid Sigma^{1/2} B (see
:mod:`effdim.entropy`).  A d-sized pass, here or there, runs over blocks of
``BLOCK`` entries: it holds the spectrum plus one 512 KiB block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import RngStream


BLOCK = 2**16


def block_sum(f, x: np.ndarray) -> float:
    """``f(x).sum()`` for an elementwise f, bit for bit, applying f one block
    at a time.  Splits x as numpy's pairwise float64 sum (``pairwise_sum``,
    loops_utils.h) does: halve, round the first half down to a multiple of
    8, recurse, add; below ``BLOCK`` entries np.sum recurses the same way."""
    if len(x) <= BLOCK:
        return float(f(x).sum())
    half = len(x) // 2 - len(x) // 2 % 8
    return block_sum(f, x[:half]) + block_sum(f, x[half:])


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
        if not s.min() > 0:
            raise BadSpectrum("sigmas must be strictly positive")
        for i in range(0, len(s), BLOCK):
            w = s[i:i + BLOCK + 1]  # overlaps the next block by one entry
            if np.any(w[1:] > w[:-1]):
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

    def power(v):
        w = np.log(v)
        w -= np.log(s.sigmas[0])
        w *= 2.0 / r
        return np.exp(w, out=w)

    return block_sum(power, s.sigmas)


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
        i **= -alpha
        i *= sigma1
        return CovarianceSpectrum(i)
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
