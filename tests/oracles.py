"""Enumeration oracles shared by the test modules.

Not part of the library: nothing under ``src/`` calls them.
"""

import math

import numpy as np

from effdim.linalg import DimTooLarge




def sphere_net(dim: int, resolution: float) -> np.ndarray:
    """Unit-sphere net: every unit vector is within ``resolution`` of a point.

    Enumeration oracle only, capped at dim <= 4.  Built recursively from
    polar-angle grids; the per-level steps are chosen so the accumulated
    Euclidean error stays below ``resolution``.
    """
    if dim > 4:
        raise DimTooLarge(f"sphere_net supports dim <= 4, got {dim}")
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if not (0 < resolution < 1):
        raise ValueError("resolution must lie in (0, 1)")
    return _sphere_net_rec(dim, resolution)


def _sphere_net_rec(dim: int, res: float) -> np.ndarray:
    if dim == 1:
        return np.array([[1.0], [-1.0]])
    if dim == 2:
        # Full-circle angular grid; chord error <= half the angular step.
        n = int(math.ceil(2.0 * math.pi / res))
        angles = 2.0 * math.pi * np.arange(n) / n
        return np.column_stack([np.cos(angles), np.sin(angles)])
    # Split the error budget: sqrt(2)*h/2 for the polar angle, rest recursive.
    h = res / (math.sqrt(2.0) * (dim - 1))
    thetas = np.arange(0.0, math.pi + h, h)
    sub_res = res * (dim - 2) / (dim - 1)
    rows = []
    for theta in thetas:
        s = math.sin(theta)
        c = math.cos(theta)
        if s < 1e-12:
            sub = _sphere_net_rec(dim - 1, 0.5)[:1]
        else:
            sub = _sphere_net_rec(dim - 1, min(sub_res / s, 0.999))
        block = np.empty((len(sub), dim))
        block[:, 0] = c
        block[:, 1:] = s * sub
        rows.append(block)
    pts = np.vstack(rows)
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    return np.unique(np.round(pts, 12), axis=0)
