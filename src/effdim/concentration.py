"""Estimation of uniform deviation suprema and bound curves.

What each route returns:

- Identity factors depend on the data only through the deviation tensor
  D = E_n[a^{⊗r}] - E[a^{⊗r}] (just E_n[a^{⊗r}] when uncentered), and the
  supremum is its operator norm.  For r = 2 that is one d x d eigensolve
  of A^T A / n - Sigma (:func:`linalg.tensor_opnorm`), so the value is
  *exact*.  For r >= 3 it is a *lower estimate* by multilinear block ascent
  from random unit starts (exact maximization is NP-hard for three or more
  factors) that never forms D, so d has no d**r cap: block k moves to
  D(x_1, ..., ·, ..., x_r) = E_n[a prod_{j != k} (a . x_j)] minus, when
  centered, its Gaussian expectation, the Wick sum
  sum_{m != k} Sigma x_m E[prod_{j != k, m} (a . x_j)] over the Gram
  entries x_p^T Sigma x_q (:func:`_gaussian_product_moment_grad`, the one
  Wick engine; zero at odd r).  The estimate is the largest ||g|| over the
  updates.  This is the implicit tensor power iteration of Anandkumar, Ge,
  Hsu, Kakade & Telgarsky (JMLR 2014); it equals, to rounding, the same
  ascent run on a dense D with the same starts.  The reference is a
  :class:`CovarianceSpectrum`.
- Nonlinear factors (relu, clip) give a *lower estimate* by multistart
  projected gradient ascent over the n rows, against an independent
  Monte-Carlo reference sample of N rows.  Restart 0 starts every factor
  at a_i / ||a_i|| for the data row a_i of largest norm, where an
  uncentered relu x relu product mean is already at least
  max_i ||a_i||**2 / n; the other restarts start at random unit vectors.
  ``effdim concentration`` draws the reference once per spectrum per run
  and every trial reads that one array, so the trials share its error:
  its stderr 1/sqrt(N) is not reported, no output carries it, and the std
  across trials does not include it.  One kernel (:func:`_product_means`)
  projects both the data and the N-row reference in row chunks of about
  2**16 entries, so an ascent step allocates no array as long as the
  reference; the final evaluation takes means only.

Both routes are cross-checked against a sphere-net oracle at low
dimension in the tests.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .linalg import tensor_opnorm
from .rng import RngStream
from .spectrum import CovarianceSpectrum, SampleMatrix, effective_dimension, \
    max_norm_bound


@dataclass(frozen=True)
class Nonlinearity:
    """1-Lipschitz scalar function with f(0) = 0: identity, relu, or clip(B)."""

    kind: str
    bound: float | None = None  # clip level B, required for kind="clip"

    def __post_init__(self):
        if self.kind not in ("identity", "relu", "clip"):
            raise ValueError(f"unknown nonlinearity {self.kind!r}")
        if self.kind == "clip" and (self.bound is None or self.bound <= 0):
            raise ValueError("clip requires a positive bound")

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

    For nonlinear factors restart 0 starts every factor at the data row of
    largest norm, normalised, and restarts 1..R-1 at random unit vectors
    (one ``standard_normal((R, r, d))`` draw, whose row 0 is replaced), so
    the restarts of a smaller budget are a prefix of those of a larger one.
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


@functools.lru_cache
def _pairings(m: int) -> np.ndarray:
    """Every pairing of the indices 0..m-1 as an int array of shape
    (pairings, m // 2, 2): (m - 1)!! pairings for even m, none for odd m."""
    def pairings(items):
        if not items:
            yield []
            return
        first, rest = items[0], items[1:]
        for i, second in enumerate(rest):
            for sub in pairings(rest[:i] + rest[i + 1:]):
                yield [(first, second)] + sub

    out = list(pairings(list(range(m))))
    out = np.array(out, dtype=int).reshape(len(out), m // 2, 2)
    out.flags.writeable = False  # one cached array is shared by every caller
    return out


def empirical_sup_deviation(
    samples: SampleMatrix,
    fs: list[Nonlinearity],
    r: int,
    centered: bool = True,
    ref=None,
    search: SearchConfig = SearchConfig(),
    rng: RngStream = RngStream(0),
) -> DeviationEstimate:
    """Supremum over unit x_1..x_r of the empirical (centered) product mean
    of f_1(a . x_1)...f_r(a . x_r), with ``fs`` listing the r factors.

    ``ref`` supplies the expectation terms for centered mode: identity
    factors take a :class:`CovarianceSpectrum` (exact Gaussian moments),
    nonlinear factors a :class:`SampleMatrix` of independent draws (a
    Monte-Carlo reference with stderr 1/sqrt(N)); any other ``ref`` raises
    ValueError.  Identity factors are exact at r = 2 and at r >= 3 a
    block-ascent lower estimate that never forms the d**r deviation tensor,
    so d is not capped; nonlinear factors are a projected-ascent lower
    estimate (see the module docstring).
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
    step = search.step if search.step is not None else 0.1 / sigma1**r
    gen = rng.generator()
    R = search.restarts
    X = gen.standard_normal((R, r, d))
    top = int(np.argmax(sq_norms))
    if sq_norms[top] > 0:
        X[0] = A[top]
    X /= np.linalg.norm(X, axis=2, keepdims=True)

    def value_and_grads(X, grads=True):
        vals, g = _product_means(A, X, fs, grads)
        if ref_rows is not None:
            ref_vals, ref_g = _product_means(ref_rows, X, fs, grads)
            vals -= ref_vals
            if grads:
                g -= ref_g
        return vals, g

    best = -math.inf
    for _ in range(search.iters):
        vals, grads = value_and_grads(X)
        best = max(best, float(vals.max()))
        X = X + step * grads
        norms = np.linalg.norm(X, axis=2, keepdims=True)
        X = np.where(norms > 1.0, X / norms, X)
    vals, _ = value_and_grads(X, grads=False)
    best = max(best, float(vals.max()))

    if centered:
        best = max(best, 0.0)
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
    update, so each update costs O(restarts * n * d) and no d**r array is
    formed.
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
            if var is not None:
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


def _gaussian_product_moment_grad(X: np.ndarray, SX: np.ndarray,
                                  k: int) -> np.ndarray:
    """Gradient in x_k of E[prod_j (a . x_j)] for blocks X (R, r, d) with
    SX[:, m] = Sigma x_m, shape (R, d): E[a prod_{j != k} (a . x_j)], the
    sum over pairings of Sigma x_m, m the partner of k, times the Gram
    entries of the other pairs; zero for odd r, which has no pairing."""
    P = _pairings(X.shape[1])
    gram = SX @ X.transpose(0, 2, 1)
    has_k = (P == k).any(axis=-1)  # one pair per pairing holds k
    partner = P[has_k].sum(axis=-1) - k
    rest = np.where(has_k, 1.0, gram[:, P[..., 0], P[..., 1]]).prod(axis=-1)
    return np.einsum("rp,rpd->rd", rest, SX[:, partner])


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
