"""Dense symmetric linear algebra.

Matrices are plain float64 numpy arrays; the operator norm of a symmetric
matrix is :func:`tensor_opnorm`.  Order r >= 3 deviation tensors are never
stored: the concentration module maximizes them by block ascent on their
contractions.  All functions here are pure; nothing is mutated in place.
"""

from __future__ import annotations

import numpy as np


class LimitExceeded(Exception):
    """Declared computational limit, named by the message: a size beyond
    what is stored or enumerated densely, or a solver that fails."""


def tensor_opnorm(t: np.ndarray) -> float:
    """Operator norm sup |x_1^T t x_2| over unit vectors of a symmetric
    matrix t: exactly its largest |eigenvalue|.

    Raises OverflowError if t has an inf or NaN entry, ValueError if t is
    not symmetric within a relative 1e-12, and :class:`LimitExceeded` if the
    eigensolver fails.
    """
    if not np.isfinite(t).all():
        raise OverflowError("tensor has inf/NaN entries: its scale overflows float64")
    if not np.abs(t - t.T).max() <= 1e-12 * (1 + np.abs(t).max()):
        raise ValueError("matrix is not symmetric")
    try:
        return float(np.abs(np.linalg.eigvalsh(t)).max())
    except np.linalg.LinAlgError as exc:
        raise LimitExceeded(f"eigensolver: {exc}") from exc
