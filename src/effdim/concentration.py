"""Estimation of uniform deviation suprema and bound curves.

What each route returns:

- Identity factors depend on the data only through the deviation tensor
  D = E_n[a^{⊗r}] - E[a^{⊗r}] (just E_n[a^{⊗r}] when uncentered), and the
  supremum is its operator norm (:func:`linalg.tensor_opnorm`).  For r = 2
  that is one d x d eigensolve, so the value is *exact*.  For r >= 3 it is
  a *lower estimate* by multilinear block ascent on the d**r tensor (exact
  maximization is NP-hard for three or more factors).  D is stored densely,
  so d**r is capped at 2**25 entries (:class:`linalg.DimTooLarge`).  The
  reference is the exact Gaussian moment tensor of a
  :class:`CovarianceSpectrum`.
- Nonlinear factors (relu, clip) give a *lower estimate* by multistart
  projected gradient ascent over the n rows, against an independent
  Monte-Carlo reference sample of N rows.  The reference's stderr
  1/sqrt(N) is not reported: no output carries it.  One kernel
  (:func:`_product_means`) projects both the data and the N-row reference
  in row chunks of about 2**16 entries, so an ascent step allocates no
  array as long as the reference; the final evaluation takes means only.

Both routes are cross-checked against a sphere-net oracle at low
dimension in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._parallel import parallel_map
from .linalg import DimTooLarge, tensor_opnorm
from .rng import RngStream
from .spectrum import CovarianceSpectrum, SampleMatrix, effective_dimension, \
    max_norm_bound, sample_gaussian


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


def identity_fs(r: int) -> list[Nonlinearity]:
    return [Nonlinearity("identity")] * r


@dataclass(frozen=True)
class SearchConfig:
    """Multistart projected gradient ascent budget."""

    restarts: int = 8
    iters: int = 100
    # Projected-ascent step (nonlinear factors only); by default 0.1 / s**r
    # with s**2 = d * mean(a_ij**2) over the data.
    step: float | None = None


@dataclass(frozen=True)
class DeviationEstimate:
    value: float
    mode: str  # "centered" | "uncentered"


def _pairings(items: list[int]):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for i, second in enumerate(rest):
        remainder = rest[:i] + rest[i + 1:]
        for sub in _pairings(remainder):
            yield [(first, second)] + sub


def empirical_sup_deviation(
    samples: SampleMatrix,
    fs: list[Nonlinearity],
    r: int,
    centered: bool = True,
    ref=None,
    search: SearchConfig = SearchConfig(),
    rng: RngStream = RngStream(0),
) -> DeviationEstimate:
    """Supremum over unit x_1..x_r of the empirical (centered) product mean.

    ``ref`` supplies the expectation terms for centered mode: identity
    factors take a :class:`CovarianceSpectrum` (the exact Gaussian moment
    tensor), nonlinear factors a :class:`SampleMatrix` of independent draws
    (a Monte-Carlo reference with stderr 1/sqrt(N)); any other ``ref``
    raises ValueError.  Identity factors are exact at r = 2 and a
    block-ascent lower estimate on the d**r deviation tensor at r >= 3;
    nonlinear factors are a projected-ascent lower estimate (see the module
    docstring).
    """
    if r < 2:
        raise ValueError("r must be >= 2")
    if len(fs) != r:
        raise ValueError("need one nonlinearity per factor")
    identity = all(f.kind == "identity" for f in fs)
    ref_type = CovarianceSpectrum if identity else SampleMatrix
    if centered and not isinstance(ref, ref_type):
        raise ValueError(f"centered mode with these factors needs a "
                         f"{ref_type.__name__} reference")
    mode = "centered" if centered else "uncentered"
    A = samples.rows
    d = A.shape[1]

    if identity:
        dev = _moment_tensor(A, r)
        if centered:
            dev -= gaussian_moment_tensor(ref, r)
        value = tensor_opnorm(dev, restarts=search.restarts, iters=search.iters, rng=rng)
        return DeviationEstimate(value=value, mode=mode)
    ref_rows = ref.rows if centered else None

    sigma1 = math.sqrt(max(float(np.mean(A**2) * d), 1e-30))
    step = search.step if search.step is not None else 0.1 / sigma1**r
    gen = rng.generator()
    R = search.restarts
    X = gen.standard_normal((R, r, d))
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
    return DeviationEstimate(value=best, mode=mode)


# Rows of the Monte-Carlo reference drawn per trial for nonlinear factors.
_MC_REF_ROWS = 10**6
# Dense d**p tensors are capped at 2**25 float64 entries (256 MiB each).
_MAX_TENSOR_ENTRIES = 2**25
# Rows per chunk of the moment engine keep each Khatri-Rao block near 2**20 entries.
_CHUNK_ENTRIES = 2**20
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


def _check_tensor_size(d: int, p: int) -> None:
    if d**p > _MAX_TENSOR_ENTRIES:
        raise DimTooLarge(
            f"an order-{p} tensor in dimension {d} has {d**p} entries, "
            f"above the dense limit of {_MAX_TENSOR_ENTRIES}"
        )


def _khatri_rao_power(B: np.ndarray, m: int) -> np.ndarray:
    """Row-wise m-fold Kronecker power: row i is b_i^{⊗m} flattened, (rows, d**m)."""
    out = B
    for _ in range(m - 1):
        out = (out[:, :, None] * B[:, None, :]).reshape(len(B), -1)
    return out


def _moment_tensor(A: np.ndarray, p: int) -> np.ndarray:
    """E_n[a^{⊗p}] as (a^{⊗ceil(p/2)})^T (a^{⊗floor(p/2)}) / n.

    One matmul per row chunk; no (n, d**p) block is ever formed.
    """
    n, d = A.shape
    _check_tensor_size(d, p)
    hi, lo = (p + 1) // 2, p // 2
    chunk = max(1, _CHUNK_ENTRIES // d**hi)
    out = np.zeros((d**hi, d**lo))
    for i in range(0, n, chunk):
        block = A[i:i + chunk]
        out += _khatri_rao_power(block, hi).T @ _khatri_rao_power(block, lo)
    return (out / n).reshape((d,) * p)


def gaussian_moment_tensor(s: CovarianceSpectrum, p: int) -> np.ndarray:
    """Exact E[a^{⊗p}] for a ~ N(0, Sigma): zero for odd p, else the Wick sum
    over all pairings of the p axes of products of Sigma entries."""
    d = s.dim
    _check_tensor_size(d, p)
    out = np.zeros((d,) * p)
    if p % 2:
        return out
    cov = s.covariance()
    for pairing in _pairings(list(range(p))):
        operands = []
        for i, j in pairing:
            operands += [cov, [i, j]]
        out += np.einsum(*operands, list(range(p)))
    return out


def bound_curve(theorem: str, s: CovarianceSpectrum, n: int, r: int,
                lam: float = 0.0) -> float:
    """Right-hand side of the printed large-deviation bounds, with unit
    constant.

    ``theorem`` is "1" (centered) or "2" (uncentered).  The
    product bound B = B_1...B_r is the high-probability radius to the r-th
    power (delta = 1/n truncation device).
    """
    sigma1 = float(s.sigmas[0])
    d = s.dim
    B = max_norm_bound(s, n, min(1.0 / n, 0.5)) ** (r / 2.0)
    ln_d = math.log(d) if d > 1 else 0.0
    if theorem == "1":
        deff_r = effective_dimension(s, r)
        deff_1 = effective_dimension(s, 1)
        scale = (B / sigma1**r) ** (2.0 / r - 1.0)
        term1 = (lam + deff_r * ln_d) / (n * scale)
        term2 = (math.sqrt(lam) + math.sqrt(deff_1 * ln_d)) / math.sqrt(n)
        return sigma1**r * (term1 + term2)
    if theorem == "2":
        deff_r = effective_dimension(s, r)
        scale = (B / sigma1**r) ** (1.0 - 2.0 / r)
        return sigma1**r * (1.0 + (deff_r * ln_d + lam) / n * scale)
    raise ValueError(f"unknown theorem {theorem!r}")


def scaling_experiment(
    spectra: dict[str, CovarianceSpectrum],
    n_grid: list[int],
    trials: int,
    r: int,
    fs: list[Nonlinearity] | None = None,
    centered: bool = True,
    search: SearchConfig = SearchConfig(),
    rng: RngStream = RngStream(0),
    jobs: int = 1,
) -> dict:
    """Deviation estimates over an n grid, with log-log slope fits.

    Trials are paired across spectra to reduce comparison variance: each
    spectrum's data for one trial is ``sample_gaussian(sp, n, stream)`` on
    the trial's own stream, and every call restarts that stream at Philox
    counter 0, so all spectra scale the same standard-normal draws.
    Requires trials >= 30.  Returns ``{"rows": [...], "slopes": {spectrum_id:
    {"slope", "stderr", "means"}}}``, slope and stderr None without a fit;
    each row's keys are ``seed, trial, spectrum_id, n, value, mode`` in that
    order, with ``seed`` the master seed of ``rng``, and rows are sorted by
    ``(spectrum_id, n, trial)``.
    Results do not depend on ``jobs``: every task draws only from its own
    child stream and rows are sorted after the map.
    """
    if trials < 30:
        raise ValueError("trials must be >= 30")
    if fs is None:
        fs = identity_fs(r)
    if len({sp.dim for sp in spectra.values()}) != 1:
        raise ValueError("paired trials require spectra of equal dimension")

    tasks = []
    task_id = 0
    for n in n_grid:
        for trial in range(trials):
            tasks.append((task_id, n, trial))
            task_id += 1

    def run_task(task):
        task_id, n, trial = task
        stream = rng.child(task_id)
        out = []
        for sid, sp in sorted(spectra.items()):
            samples = sample_gaussian(sp, n, stream)
            ref = sp if all(f.kind == "identity" for f in fs) else None
            if centered and ref is None:
                ref = sample_gaussian(sp, _MC_REF_ROWS, stream.child(0))
            est = empirical_sup_deviation(
                samples, fs, r, centered=centered, ref=ref,
                search=search, rng=stream.child(1),
            )
            out.append({
                "seed": rng.master_seed, "trial": trial, "spectrum_id": sid,
                "n": n, "value": est.value, "mode": est.mode,
            })
        return out

    rows = [row for chunk in parallel_map(run_task, tasks, jobs) for row in chunk]
    rows.sort(key=lambda row: (row["spectrum_id"], row["n"], row["trial"]))
    slopes = {}
    for sid in spectra:
        means = []
        for n in n_grid:
            vals = np.array([row["value"] for row in rows
                             if row["spectrum_id"] == sid and row["n"] == n])
            # The squares inside np.std overflow for values near 1e154 and
            # above; scaling by an exact power of two first keeps them finite
            # and leaves the std of normal floats bit-equal.
            k = np.frexp(np.abs(vals).max())[1]
            std = np.ldexp(np.std(np.ldexp(vals, -k)), k)
            means.append((n, float(np.mean(vals)), float(std)))
        slope, stderr = _loglog_slope([m[0] for m in means], [m[1] for m in means])
        slopes[sid] = {"slope": slope, "stderr": stderr, "means": means}
    return {"rows": rows, "slopes": slopes}


def _loglog_slope(ns, means):
    """Log-log slope and its stderr; (None, None) for < 2 n or a mean <= 0."""
    if len(ns) < 2 or min(means) <= 0:
        return None, None
    x = np.log(np.asarray(ns, dtype=float))
    y = np.log(np.asarray(means, dtype=float))
    A = np.column_stack([x, np.ones_like(x)])
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    dof = max(len(x) - 2, 1)
    resid = y - A @ coef
    s2 = float(resid @ resid) / dof
    cov = s2 * np.linalg.inv(A.T @ A)
    return float(coef[0]), float(math.sqrt(max(cov[0, 0], 0.0)))
