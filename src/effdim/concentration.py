"""Estimation of uniform deviation suprema and bound curves.

Every route estimates one quantity: the supremum over x_1, ..., x_r in the
unit ball of |E_n[prod_k f_k(a . x_k)] - E[prod_k f_k(a . x_k)]|, with
E = 0 when uncentered.  For identity factors the form is multilinear, so
the ball and the sphere give the same value.

- Identity factors depend on the data only through the deviation tensor
  D = E_n[a^{⊗r}] - E[a^{⊗r}] (just E_n[a^{⊗r}] when uncentered), and the
  supremum is its operator norm.  For r = 2 that is one d x d eigensolve
  of A^T A / n - Sigma (:func:`linalg.tensor_opnorm`), so the value is
  *exact*.  For r >= 3 it is a *lower estimate* by multilinear block ascent
  from random unit starts (exact maximization is NP-hard for three or more
  factors) that never forms D, so d has no d**r cap: block k moves to
  D(x_1, ..., ·, ..., x_r) = E_n[a prod_{j != k} (a . x_j)] minus, when
  centered, its Gaussian expectation, the gradient of the hafnian of the
  Gram matrix X Sigma X^T, a sum over the 2**(r - 1) sign vectors
  (:func:`_gaussian_product_moment_grad`, the one Wick engine; its cost
  per update does not depend on d, and odd r, where it is zero, skips
  it).  The estimate is the largest ||g|| over the updates.  This is the
  implicit tensor power iteration of Anandkumar, Ge, Hsu, Kakade &
  Telgarsky (JMLR 2014); it equals, to rounding, the same
  ascent run on a dense D with the same starts.  The reference is a
  :class:`CovarianceSpectrum`.
- Nonlinear factors (relu, clip) give a *lower estimate* by multistart
  projected gradient ascent of |dev| over the n rows, against an
  independent Monte-Carlo reference sample of N rows: each step moves
  along sign(dev) times the gradient of dev and projects onto the unit
  ball, and the estimate is the largest |dev| seen.  Restart 0 starts
  every factor at a_i / ||a_i|| for the data row a_i of largest norm,
  where an uncentered relu x relu product mean is already at least
  max_i ||a_i||**2 / n; restart 1 starts at its negation, so at d = 1
  the starts hold every factor at +1 and at -1; the other restarts start
  at random unit vectors.
  ``effdim concentration`` draws the reference once per spectrum per run
  and every trial reads that one array, so the trials share its error:
  its stderr 1/sqrt(N) is not reported, no output carries it, and the std
  across trials does not include it.  One kernel (:func:`_product_means`)
  projects both the data and the N-row reference in row chunks of about
  2**16 entries, so an ascent step allocates no array as long as the
  reference; the final evaluation takes means only.

Both routes are cross-checked against a sphere-net oracle at low
dimension in the tests, and the nonlinear route against exact and grid
maxima over the ball at d = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import LimitExceeded, tensor_opnorm
from .rng import RngStream
from .spectrum import CovarianceSpectrum, SampleMatrix, effective_dimension, \
    max_norm_bound


@dataclass(frozen=True)
class Nonlinearity:
    """1-Lipschitz scalar function with f(0) = 0: identity, relu, or clip(B)."""

    kind: str
    bound: float | None = None  # clip level B, for kind="clip" only

    def __post_init__(self):
        if self.kind not in ("identity", "relu", "clip"):
            raise ValueError(f"unknown nonlinearity {self.kind!r}")
        if self.kind == "clip" and (self.bound is None or self.bound <= 0):
            raise ValueError("clip requires a positive bound")
        if self.kind != "clip" and self.bound is not None:
            raise ValueError(f"{self.kind} takes no bound")

    def __call__(self, z: np.ndarray) -> np.ndarray:
        if self.kind == "identity":
            return z
        if self.kind == "relu":
            return np.maximum(z, 0.0)
        return np.clip(z, -self.bound, self.bound)

    def deriv(self, z: np.ndarray) -> np.ndarray:
        if self.kind == "identity":
            return np.ones_like(z)
        if self.kind == "relu":
            return (z > 0).astype(float)
        return (np.abs(z) < self.bound).astype(float)


@dataclass(frozen=True)
class SearchConfig:
    """Multistart projected gradient ascent budget.

    For nonlinear factors, which the ascent searches over the unit ball,
    restart 0 starts every factor at the data row of largest norm,
    normalised, restart 1 at its negation, and restarts 2..R-1 at random
    unit vectors (one ``standard_normal((R, r, d))`` draw, whose rows 0 and
    1 are replaced), so the restarts of a smaller budget are a prefix of
    those of a larger one.
    """

    restarts: int = 8
    iters: int = 100
    # Projected-ascent step (nonlinear factors only); by default 0.1 / s**r
    # with s**2 = d * mean(a_ij**2) over the data.  ``effdim concentration``
    # applies it to the data of its spectra scaled to sigma_1 in [1, 2).
    step: float | None = None


@dataclass(frozen=True)
class DeviationEstimate:
    value: float


def empirical_sup_deviation(
    samples: SampleMatrix,
    fs: list[Nonlinearity],
    r: int,
    centered: bool = True,
    ref=None,
    search: SearchConfig = SearchConfig(),
    rng: RngStream = RngStream(0),
) -> DeviationEstimate:
    """Supremum over x_1..x_r in the unit ball of |E_n[prod_k f_k(a . x_k)]
    - E[prod_k f_k(a . x_k)]|, with ``fs`` listing the r factors and E = 0
    when uncentered.

    ``ref`` supplies the expectation terms for centered mode: identity
    factors take a :class:`CovarianceSpectrum` (exact Gaussian moments),
    nonlinear factors a :class:`SampleMatrix` of independent draws (a
    Monte-Carlo reference with stderr 1/sqrt(N)); any other ``ref`` raises
    ValueError.  Identity factors are exact at r = 2 and at r >= 3 a
    block-ascent lower estimate that never forms the d**r deviation tensor,
    so d is not capped; nonlinear factors are a projected-ascent lower
    estimate of |dev| whose restart 1 starts at the negation of restart
    0's longest-row start (see the module docstring).  A deviation that
    is not finite raises OverflowError on either route.
    """
    if r < 2:
        raise ValueError("r must be >= 2")
    identity = all(f.kind == "identity" for f in fs)
    ref_type = CovarianceSpectrum if identity else SampleMatrix
    if centered and not isinstance(ref, ref_type):
        raise ValueError(f"centered mode with these factors needs a "
                         f"{ref_type.__name__} reference")
    A = samples.rows
    d = A.shape[1]

    if identity:
        if r == 2:
            dev = A.T @ A / len(A)
            value = tensor_opnorm(dev - ref.covariance() if centered else dev)
        else:
            value = _identity_block_ascent(A, ref.sigmas**2 if centered else None,
                                           r, search, rng)
        return DeviationEstimate(value=value)
    ref_rows = ref.rows if centered else None

    sq_norms = np.einsum("ij,ij->i", A, A)
    sigma1 = math.sqrt(float(sq_norms.mean()))
    if not math.isfinite(sigma1):  # the starts would normalise to 0
        raise OverflowError("the mean squared norm of the data rows overflows float64")
    step = search.step if search.step is not None else 0.1 / sigma1**r
    gen = rng.generator()
    R = search.restarts
    X = gen.standard_normal((R, r, d))
    top = int(np.argmax(sq_norms))
    if sq_norms[top] > 0:
        X[0] = A[top]
        X[1:2] = -A[top]  # restart 1, when R >= 2
    X /= np.linalg.norm(X, axis=2, keepdims=True)

    def value_and_grads(X, grads=True):
        vals, g = _product_means(A, X, fs, grads)
        if ref_rows is not None:
            ref_vals, ref_g = _product_means(ref_rows, X, fs, grads)
            vals -= ref_vals
            if grads:
                g -= ref_g
        return vals, g

    # NaN propagates through np.max, so the check below sees it
    best = 0.0
    for _ in range(search.iters):
        vals, grads = value_and_grads(X)
        best = float(np.max(np.abs(vals), initial=best))
        X = X + step * np.where(vals < 0, -1.0, 1.0)[:, None, None] * grads
        norms = np.linalg.norm(X, axis=2, keepdims=True)
        X = np.where(norms > 1.0, X / norms, X)
    vals, _ = value_and_grads(X, grads=False)
    best = float(np.max(np.abs(vals), initial=best))
    if not math.isfinite(best):
        raise OverflowError("the deviation overflows float64")
    return DeviationEstimate(value=best)


# Rows of the Monte-Carlo reference for nonlinear factors; ``effdim
# concentration`` draws it once per spectrum per run and shares it across trials.
MC_REF_ROWS = 10**6
# Rows per chunk of the nonlinear projection kernel keep its (R, r, rows)
# blocks near 2**16 entries, so they stay in cache: on a 2-core Xeon,
# 2**14 to 2**17 ran alike and 2**20 about twice as slow.
_PROJ_CHUNK_ENTRIES = 2**16


def _product_means(rows: np.ndarray, X: np.ndarray, fs: list[Nonlinearity],
                   grads: bool = True):
    """Means over ``rows`` of prod_k f_k(a . X[j, k]) for each restart j,
    shape (R,), and with ``grads`` their gradients in X, shape (R, r, d)
    (else None).

    Runs over row chunks: one projection matmul per chunk, then prefix and
    suffix products give each factor's product of the others, and one
    matmul sums the R*r gradients over the chunk's rows.
    """
    n = len(rows)
    R, r, d = X.shape
    P = X.reshape(R * r, d)
    chunk = max(1, _PROJ_CHUNK_ENTRIES // (R * r))
    sums = np.zeros(R)
    G = np.zeros((R * r, d)) if grads else None
    for i in range(0, n, chunk):
        B = rows[i:i + chunk]
        U = (P @ B.T).reshape(R, r, len(B))
        F = [f(U[:, k]) for k, f in enumerate(fs)]
        # W[:, k] = f_k'(u_k) * prod_{j<k} f_j(u_j) * prod_{j>k} f_j(u_j)
        if grads:
            W = np.empty_like(U)
            W[:, 0] = fs[0].deriv(U[:, 0])
        prefix = F[0]
        for k in range(1, r):
            if grads:
                np.multiply(prefix, fs[k].deriv(U[:, k]), out=W[:, k])
            prefix = prefix * F[k]
        sums += prefix.sum(axis=1)
        if grads:
            suffix = F[r - 1]
            for k in range(r - 2, -1, -1):
                W[:, k] *= suffix
                if k:
                    suffix = suffix * F[k]
            G += W.reshape(R * r, len(B)) @ B
    return sums / n, None if G is None else (G / n).reshape(R, r, d)


def _identity_block_ascent(A: np.ndarray, var: np.ndarray | None, r: int,
                           search: SearchConfig, rng: RngStream) -> float:
    """Lower estimate of sup |D(x_1, ..., x_r)| over unit x_k by block ascent.

    D(x_1, ..., x_r) = E_n[prod_k (a . x_k)] minus, when ``var`` (the
    diagonal of Sigma) is given, E[prod_k (a . x_k)] for a ~ N(0, Sigma).
    Starts are ``rng.generator().standard_normal((restarts, r, d))``
    normalized per vector.  Each sweep sets, in turn, x_k <- g / ||g|| with
    g = D(x_1, ..., ·, ..., x_r), the exact maximizer over block k with the
    others fixed, so the value never decreases.  The result is the largest
    ||g|| over the updates, so it is non-decreasing in ``iters`` (and in
    ``restarts``) for a fixed ``rng``.  D is multilinear, so at a start
    D(x_1, ..., x_r) = x_1 . g for the first update's g, at most ||g|| by
    Cauchy-Schwarz: the starts need no pass of their own, and with
    ``iters`` = 0 the result is 0.0, the trivial lower bound.  The
    projections U = X A^T are kept and one block of them is refreshed per
    update, so each update costs O(restarts * n * d), plus
    O(restarts * 2**(r - 1) * r**2) for the Wick term when centred at even
    r, and no d**r array is formed.
    """
    n, d = A.shape
    X = rng.generator().standard_normal((search.restarts, r, d))
    X /= np.linalg.norm(X, axis=2, keepdims=True)
    U = X @ A.T  # (restarts, r, n)
    best = 0.0
    others = [[j for j in range(r) if j != k] for k in range(r)]
    for _ in range(search.iters):
        for k in range(r):
            g = U[:, others[k]].prod(axis=1) @ A / n
            if var is not None and r % 2 == 0:  # odd Gaussian moments vanish
                g -= _gaussian_product_moment_grad(X, X * var, k)
            norms = np.linalg.norm(g, axis=1)
            moved = norms > 1e-300
            X[moved, k] = g[moved] / norms[moved, None]
            U[:, k] = X[:, k] @ A.T
            # NaN propagates through np.max, so the check below sees it
            best = float(np.max(norms, initial=best))
    if not math.isfinite(best):
        raise OverflowError("the deviation overflows float64")
    return best


# Rows of the largest Wick sign table, 2**(r - 1) at r = 14.  A centred
# trial (d = 5, n = 256, default search, one core of a 2-core Xeon) takes
# about 4 s at r = 14; r = 16's 32768 rows would take about 46 s, so a
# 30-trial run about 23 minutes at --jobs 1.
MAX_SIGN_ROWS = 2**13


def _gaussian_product_moment_grad(X: np.ndarray, SX: np.ndarray,
                                  k: int) -> np.ndarray:
    """Gradient in x_k of E[prod_j (a . x_j)] for blocks X (R, r, d) with
    SX[:, m] = Sigma x_m, shape (R, d).

    The moment is the hafnian of the Gram matrix G = X Sigma X^T, the
    coefficient of t_1...t_r in exp(t^T G t / 2).  Inclusion-exclusion over
    signs extracts it (Kan, J. Multivariate Anal. 2008): with m = r / 2,
    haf(G) = sum_s (prod_j s_j) (s^T G s / 2)**m / (2**(r - 1) m!) over the
    2**(r - 1) sign vectors s with s_1 = 1, so the gradient is
    SX^T v / (2**(r + m - 2) (m - 1)!) with
    v = sum_s (prod_{j != k} s_j) (s^T G s)**(m - 1) s.  One call costs
    O(R 2**(r - 1) r**2) and no d-sized array per sign; it is zero for odd
    r, where nothing is built.  The sum alternates, so its rounding error
    grows with r and most where G is near diagonal (unit vectors in large
    d): the tests hold it to 2**r * 1e-13 relative to ||g|| against the
    sum over pairings, at r <= 10 and d up to 200.
    Raises :class:`LimitExceeded` naming r and the row count, before
    building anything, when 2**(r - 1) exceeds ``MAX_SIGN_ROWS``."""
    R, r, d = X.shape
    if r % 2:
        return np.zeros((R, d))
    rows = 1 << (r - 1)
    if rows > MAX_SIGN_ROWS:
        raise LimitExceeded(f"Wick sign table at r {r}: {rows} rows exceed "
                            f"the cap of {MAX_SIGN_ROWS}")
    S = np.ones((r, rows))  # column i: S[j, i] = -1 where bit j - 1 of i is set
    for j in range(1, r):
        S[j].reshape(-1, 2, 1 << (j - 1))[:, 1] = -1.0
    q = np.einsum("rjs,js->rs", (SX @ X.transpose(0, 2, 1)) @ S, S)  # s^T G s
    m = r // 2
    v = (S.prod(axis=0) * S[k] * q ** (m - 1)) @ S.T
    return (v[:, None] @ SX)[:, 0] / (2.0 ** (r + m - 2) * math.factorial(m - 1))


def bound_curve(theorem: str, s: CovarianceSpectrum, n: int, r: int) -> float:
    """Right-hand side of the printed large-deviation bounds, with unit
    constant.

    ``theorem`` is "1" (centered) or "2" (uncentered).  The
    product bound B = B_1...B_r is the high-probability radius to the r-th
    power (delta = 1/n truncation device).
    """
    sigma1 = float(s.sigmas[0])
    B = max_norm_bound(s, n, min(1.0 / n, 0.5)) ** (r / 2.0)
    ln_d = math.log(s.dim)
    if theorem == "1":
        deff_r = effective_dimension(s, r)
        deff_1 = effective_dimension(s, 1)
        scale = (B / sigma1**r) ** (2.0 / r - 1.0)
        term1 = deff_r * ln_d / (n * scale)
        term2 = math.sqrt(deff_1 * ln_d) / math.sqrt(n)
        return sigma1**r * (term1 + term2)
    if theorem == "2":
        deff_r = effective_dimension(s, r)
        scale = (B / sigma1**r) ** (1.0 - 2.0 / r)
        return sigma1**r * (1.0 + deff_r * ln_d / n * scale)
    raise ValueError(f"unknown theorem {theorem!r}")
