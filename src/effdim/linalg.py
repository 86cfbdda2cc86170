"""Dense symmetric linear algebra and tensor operations.

Matrices are plain float64 numpy arrays and tensors of order p are dense
``dim**p`` arrays; the operator norm of either is :func:`tensor_opnorm`.
All functions here are pure; nothing is mutated in place.
"""

from __future__ import annotations

import numpy as np

from .rng import RngStream


class LimitExceeded(Exception):
    """Declared computational limit, named by the message: a size beyond
    what is stored or enumerated densely, or a solver that fails."""


def _contract_all_but(t: np.ndarray, X: np.ndarray, k: int) -> np.ndarray:
    """t(x_1, ..., x_{k-1}, ·, x_{k+1}, ..., x_p) for every start: (R, d).

    ``X`` holds one block of p vectors per start, shape (R, p, d).
    """
    others = [j for j in range(t.ndim) if j != k]
    g = np.tensordot(X[:, others[0]], np.moveaxis(t, k, -1), axes=([1], [0]))
    for j in others[1:]:
        g = np.einsum("ri...,ri->r...", g, X[:, j])
    return g


def tensor_opnorm(
    t: np.ndarray,
    restarts: int = 16,
    iters: int = 200,
    rng: RngStream = RngStream(0),
) -> float:
    """Operator norm sup |t(x_1, ..., x_p)| over unit vectors x_k.

    For p = 2 this is exact: the largest |eigenvalue| of the symmetric
    matrix t.  Raises OverflowError if t has an inf or NaN entry, ValueError
    if t is not symmetric within a relative 1e-12, and :class:`LimitExceeded`
    if the eigensolver fails.  For p >= 3 (NP-hard in general) it is a lower
    estimate by multilinear block-coordinate ascent: each sweep sets, in turn,
    x_k <- t(..., ·, ...) / ||·||, the exact maximizer over block k with the
    others fixed, so the value never decreases.  Starts are
    ``rng.generator().standard_normal((restarts, p, d))`` normalized per
    vector, and the result is the best value seen, so it is non-decreasing
    in ``iters`` (and in ``restarts``) for a fixed ``rng``.
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    p = t.ndim
    if not np.isfinite(t).all():
        raise OverflowError("tensor has inf/NaN entries: its scale overflows float64")
    if p == 2:
        if not np.abs(t - t.T).max() <= 1e-12 * (1 + np.abs(t).max()):
            raise ValueError("matrix is not symmetric")
        try:
            return float(np.abs(np.linalg.eigvalsh(t)).max())
        except np.linalg.LinAlgError as exc:
            raise LimitExceeded(f"eigensolver: {exc}") from exc
    X = rng.generator().standard_normal((restarts, p, t.shape[0]))
    X /= np.linalg.norm(X, axis=2, keepdims=True)
    start_vals = np.einsum("ri,ri->r", _contract_all_but(t, X, 0), X[:, 0])
    best = float(np.abs(start_vals).max())
    for _ in range(iters):
        for k in range(p):
            g = _contract_all_but(t, X, k)
            norms = np.linalg.norm(g, axis=1)
            moved = norms > 1e-300
            X[moved, k] = g[moved] / norms[moved, None]
            best = max(best, float(norms.max()))
    return best
