"""Enumeration, Monte-Carlo and step-by-step oracles shared by the test modules.

Not part of the library: nothing under ``src/`` calls them.
"""

import math

import numpy as np

from effdim.linalg import DimTooLarge
from effdim.precond import ErmProblem
from effdim.smoothing import (
    DRAW_BLOCK,
    _default_width,
    _direction_scale,
    _theta_next,
    grad_estimator,
)


def effective_dimension_whole(s, r):
    """d_eff(r) by one pass over the whole spectrum: one work array its size."""
    w = np.log(s.sigmas)
    w -= np.log(s.sigmas[0])
    w *= 2.0 / r
    return float(np.exp(w, out=w).sum())


def log_sum_whole(x, scale):
    """sum_i ln(x_i / scale) over one work array the size of x."""
    w = x / scale
    return float(np.log(w, out=w).sum())


def count_above_whole(x, t):
    """#{i : x_i > t} by a mask the size of x."""
    return int(np.count_nonzero(x > t))


def theta_sequence(T):
    """theta_0 = 1 followed by T - 1 steps of the engine's theta update.

    Satisfies (1 - theta_{t+1}) / theta_{t+1}^2 = 1 / theta_t^2 and
    theta_t <= 2 / (t + 1).
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    th = np.empty(T)
    th[0] = 1.0
    for t in range(T - 1):
        th[t + 1] = _theta_next(th[t])
    return th


def bregman_div(phi, x, y):
    """D_phi(x, y) = phi(x) - phi(y) - <grad phi(y), x - y>."""
    return float(phi.value(x) - phi.value(y) - phi.grad(y) @ (x - y))


def draw_block(gen, steps, n, m, d, direction):
    """One whole block of optimizer draws in the smoothing stream layout:
    sample indices (steps, m), then directions (steps, m, d)."""
    idx = gen.integers(0, n, size=(steps, m))
    return idx, gen.standard_normal((steps, m, d)) * _direction_scale(direction, d)


def smooth_value_estimate(f, x, gamma, m, rng, direction=None):
    """Monte-Carlo estimate of f^gamma(x); returns (mean, stderr).

    ``f`` is a callable or an :class:`ErmProblem` (its value is used).
    gamma = 0 short-circuits to (f(x), 0).
    """
    func = f.value if isinstance(f, ErmProblem) else f
    if gamma == 0.0:
        return float(func(x)), 0.0
    if m < 2:
        raise ValueError("need m >= 2 perturbations for a stderr")
    z = (rng.generator().standard_normal((m, len(x)))
         * _direction_scale(direction, len(x)))
    vals = np.array([func(x + gamma * z[j]) for j in range(m)])
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(m))


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


def rs_reference(problem, cfg, direction, rng, f_star=0.0, gap_tol=None):
    """Step-by-step loop of :func:`effdim.smoothing.rs_lockstep` for one
    trial and one direction (None for isotropic, else a spectrum): whole-
    block draws, one full objective value and stop check per step.
    Returns (gaps, last iterate)."""
    d, m, R = problem.d, cfg.batch, cfg.radius
    L = float(np.linalg.norm(problem.A, axis=1).max()) + problem.lam * R
    u = cfg.u if cfg.u is not None else _default_width(R, direction, problem)
    c_eta = L / (R * math.sqrt(m))
    gen = rng.generator()
    x = np.zeros(d)
    z = x.copy()
    G = x.copy()
    theta = 1.0
    gaps = [problem.value(x) - f_star]
    for t in range(cfg.iters):
        k = t % DRAW_BLOCK
        if k == 0:
            idx, dirs = draw_block(gen, DRAW_BLOCK, problem.n, m, d, direction)
        y = (1.0 - theta) * x + theta * z
        G += grad_estimator(problem, y[None], np.array([theta * u]),
                            idx[k][None], dirs[k][None])[0] / theta
        theta_next = _theta_next(theta)
        z = G / -((L / u + c_eta * math.sqrt(t + 2.0)) / theta_next)
        nrm = math.sqrt(z @ z)
        if nrm > R:
            z *= R / nrm
        x = (1.0 - theta) * x + theta * z
        gaps.append(problem.value(x) - f_star)
        if gap_tol is not None and gaps[-1] <= gap_tol:
            break
        theta = theta_next
    return gaps, x
