"""Randomized smoothing of nonsmooth ERM objectives and an accelerated
dual-averaging optimizer driven by smoothed stochastic subgradients.

f^gamma(x) = E f(x + gamma Z) with Z either standard normal (isotropic)
or shaped by a covariance spectrum with standard deviations sigma:
Z = diag(sqrt(sigma)) G for standard normal G, so Cov Z = diag(sigma) =
Sigma^{1/2}, the square root of the data covariance Sigma = diag(sigma^2)
(see :func:`_draw_directions`).  The optimizer anneals the smoothing width
along the usual accelerated theta sequence and keeps iterates in a
Euclidean ball by radial projection.

Stream layout of :func:`rs_optimize`: a run makes one generator from its
stream and draws in blocks of ``DRAW_BLOCK`` steps: first the sample
indices, ``integers(0, n, (DRAW_BLOCK, m))``, then the standard normal
directions, ``standard_normal((DRAW_BLOCK, m, d))``.  Whole blocks are
always drawn, so step t's draws depend only on the stream and t, never on
``iters`` or on where the run stops.  A caller that runs both smoothing
directions of one trial on the same stream gets common random numbers:
shaped directions are the isotropic ones scaled by sqrt(sigma).
``DRAW_BLOCK`` is part of the output contract: changing it changes every
run's draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import RngStream
from .spectrum import CovarianceSpectrum, effective_dimension
from .precond import ErmProblem


@dataclass(frozen=True)
class SmoothingConfig:
    radius: float            # feasible ball ||x|| <= radius
    iters: int
    batch: int               # perturbed subgradients per step (m)
    u: float | None = None   # base smoothing width; None picks a default
    # None = isotropic (Cov Z = I); a spectrum gives Cov Z = Sigma^{1/2}
    direction: CovarianceSpectrum | None = None

    def __post_init__(self):
        if self.radius <= 0 or self.iters < 1 or self.batch < 1:
            raise ValueError("radius, iters and batch must be positive")
        if self.u is not None and self.u <= 0:
            raise ValueError("u must be positive")


@dataclass(frozen=True)
class SmoothingRun:
    xs: np.ndarray           # (T+1, d)
    gaps: list[float]        # true objective at x_t minus the reference optimum


# Steps per block of draws in rs_optimize; part of the output contract.
DRAW_BLOCK = 64


def _theta_next(theta: float) -> float:
    """theta_{t+1} = 2 / (1 + sqrt(1 + 4 / theta_t^2))."""
    return 2.0 / (1.0 + math.sqrt(1.0 + 4.0 / (theta * theta)))


def theta_sequence(T: int) -> np.ndarray:
    """theta_0 = 1 followed by T - 1 steps of :func:`_theta_next`.

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


def _draw_directions(gen, shape: tuple[int, ...],
                     direction: CovarianceSpectrum | None) -> np.ndarray:
    """Standard normal draws of ``shape`` (last axis d), scaled by
    sqrt(sigma) for shaped directions so that Cov Z = Sigma^{1/2}."""
    z = gen.standard_normal(shape)
    if direction is None:
        return z
    return z * np.sqrt(direction.sigmas)


def _draw_block(gen, steps: int, n: int, m: int, d: int,
                direction: CovarianceSpectrum | None):
    """One block of optimizer draws: sample indices (steps, m), then
    directions (steps, m, d).  The order is part of the stream layout."""
    idx = gen.integers(0, n, size=(steps, m))
    return idx, _draw_directions(gen, (steps, m, d), direction)


def smooth_value_estimate(f, x: np.ndarray, gamma: float, m: int,
                          rng: RngStream,
                          direction: CovarianceSpectrum | None = None):
    """Monte-Carlo estimate of f^gamma(x); returns (mean, stderr).

    ``f`` is a callable or an :class:`ErmProblem` (its value is used).
    gamma = 0 short-circuits to (f(x), 0).
    """
    func = f.value if isinstance(f, ErmProblem) else f
    if gamma == 0.0:
        return float(func(x)), 0.0
    if m < 2:
        raise ValueError("need m >= 2 perturbations for a stderr")
    gen = rng.generator()
    z = _draw_directions(gen, (m, len(x)), direction)
    vals = np.array([func(x + gamma * z[j]) for j in range(m)])
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(m))


def grad_estimator(problem: ErmProblem, y: np.ndarray, gamma: float,
                   idx: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Averaged smoothed stochastic subgradient of the ERM objective.

    Term j takes sample ``idx[j]`` (uniform over the rows) and evaluates
    the loss subgradient at the perturbed point y + gamma z[j], where the
    directions ``z`` (m, d) come from :func:`_draw_directions`.  The result
    is unbiased for the gradient of the smoothed single-sample objective.
    """
    pts = y + gamma * z
    rows = problem.A[idx]
    margins = np.einsum("jd,jd->j", rows, pts)
    slopes = problem.loss.deriv(margins, problem.b[idx])
    return slopes @ rows / len(idx) + problem.lam * y


def smoothing_bounds(gamma: float, lip: float, d: int,
                     spectrum: CovarianceSpectrum | None = None,
                     n: int | None = None, delta: float = 0.05) -> dict:
    """Printed gap and smoothness bounds for the smoothed objective, with
    unit constant.

    Isotropic (spectrum None): gap <= gamma * lip * sqrt(d), smoothness
    <= lip / gamma.  Shaped directions use the spectral form in terms of
    the effective dimensions of the data covariance.
    """
    if gamma <= 0 or lip < 0:
        raise ValueError("gamma must be positive and lip nonnegative")
    if spectrum is None:
        return {"gap": gamma * lip * math.sqrt(d), "smoothness": lip / gamma}
    if n is None or n < 1:
        raise ValueError("shaped bounds need the sample size n")
    sigma1 = float(spectrum.sigmas[0])
    d1 = effective_dimension(spectrum, 1)
    d2 = effective_dimension(spectrum, 2)
    ln_d = math.log(spectrum.dim) if spectrum.dim > 1 else 0.0
    gap = gamma * lip * math.sqrt(sigma1**3 * (d1 + math.log(n / delta)) * d2)
    smooth = (
        lip * math.sqrt(sigma1) * math.sqrt(d2) / (gamma * d1)
        * (1.0 + math.sqrt((d1 * ln_d + math.log(1.0 / delta)) / n))
    )
    return {"gap": gap, "smoothness": smooth}


def _default_width(cfg: SmoothingConfig, problem: ErmProblem) -> float:
    d = problem.d
    if cfg.direction is None:
        return cfg.radius * d ** (-0.25)
    sp = cfg.direction
    sigma1 = float(sp.sigmas[0])
    d1 = effective_dimension(sp, 1)
    d2 = effective_dimension(sp, 2)
    shape = math.sqrt(sigma1**3 * (d1 + math.log(max(problem.n, 2))) * d2)
    return cfg.radius / math.sqrt(max(shape, 1e-12))


def rs_optimize(problem: ErmProblem, cfg: SmoothingConfig,
                rng: RngStream = RngStream(0),
                f_star: float = 0.0,
                gap_tol: float | None = None) -> SmoothingRun:
    """Accelerated dual averaging on the annealed smoothed objective.

    All draws come from one generator made from ``rng``, in blocks of
    ``DRAW_BLOCK`` steps (see the module docstring), so step t's draws
    depend only on ``rng`` and t.  Runs that share ``rng`` share their
    draws: with the same ``u``, a shaped run perturbs along the isotropic
    run's directions scaled by sqrt(sigma).

    y_t = (1 - theta_t) x_t + theta_t z_t; the smoothed stochastic
    gradient at y_t with width u_t = theta_t * u is accumulated with
    weight 1/theta_t, z_{t+1} minimizes the accumulated linear model plus
    (L_{t+1} + eta_{t+1}/theta_{t+1})/2 ||x||^2 over the radius ball
    (closed form plus radial projection), and
    x_{t+1} = (1 - theta_t) x_t + theta_t z_{t+1}, from x_0 = z_0 = 0.  L is
    max_i ||a_i|| + lam * radius, the Lipschitz constant of the objective
    on the ball.
    """
    d = problem.d
    T = cfg.iters
    m = cfg.batch
    R = cfg.radius
    L = float(np.linalg.norm(problem.A, axis=1).max()) + problem.lam * R
    u = cfg.u if cfg.u is not None else _default_width(cfg, problem)

    gen = rng.generator()
    c_eta = L / (R * math.sqrt(m))
    x = np.zeros(d)
    z = x.copy()
    G = np.zeros(d)
    theta = 1.0

    xs = [x]
    gaps = [problem.value(x) - f_star]
    for t in range(T):
        k = t % DRAW_BLOCK
        if k == 0:
            idx, dirs = _draw_block(gen, DRAW_BLOCK, problem.n, m, d,
                                    cfg.direction)
        y = (1.0 - theta) * x + theta * z
        g = grad_estimator(problem, y, theta * u, idx[k], dirs[k])
        G += g / theta
        theta_next = _theta_next(theta)
        # coef = L_{t+1} + eta_{t+1} / theta_{t+1}, L_{t+1} = L / (theta_{t+1} u)
        coef = (L / u + c_eta * math.sqrt(t + 2.0)) / theta_next
        z = G / -coef
        nrm = math.sqrt(z @ z)
        if nrm > R:
            z *= R / nrm
        x = (1.0 - theta) * x + theta * z
        xs.append(x)
        gaps.append(problem.value(x) - f_star)
        if gap_tol is not None and gaps[-1] <= gap_tol:
            break
        theta = theta_next
    return SmoothingRun(np.array(xs), gaps)


def iters_to_gap(run: SmoothingRun, tol: float) -> int | None:
    """First iteration index whose gap is <= tol, or None if never reached."""
    for t, gap in enumerate(run.gaps):
        if gap <= tol:
            return t
    return None
