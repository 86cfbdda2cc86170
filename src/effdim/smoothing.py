"""Randomized smoothing of nonsmooth ERM objectives and an accelerated
dual-averaging optimizer driven by smoothed stochastic subgradients.

f^gamma(x) = E f(x + gamma Z) with Z either standard normal (isotropic)
or shaped by a covariance spectrum with standard deviations sigma:
Z = diag(sqrt(sigma)) G for standard normal G, so Cov Z = diag(sigma) =
Sigma^{1/2}, the square root of the data covariance Sigma = diag(sigma^2)
(see :func:`_draw_directions`).  The optimizer anneals the smoothing width
along the usual accelerated theta sequence and keeps iterates in a
Euclidean ball by radial projection.
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


def theta_sequence(T: int) -> np.ndarray:
    """theta_0 = 1, theta_{t+1} = 2 / (1 + sqrt(1 + 4 / theta_t^2)).

    Satisfies (1 - theta_{t+1}) / theta_{t+1}^2 = 1 / theta_t^2 and
    theta_t <= 2 / (t + 1).
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    th = np.empty(T)
    th[0] = 1.0
    for t in range(T - 1):
        th[t + 1] = 2.0 / (1.0 + math.sqrt(1.0 + 4.0 / th[t] ** 2))
    return th


def _draw_directions(gen, m: int, d: int,
                     direction: CovarianceSpectrum | None) -> np.ndarray:
    z = gen.standard_normal((m, d))
    if direction is None:
        return z
    return z * np.sqrt(direction.sigmas)


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
    z = _draw_directions(gen, m, len(x), direction)
    vals = np.array([func(x + gamma * z[j]) for j in range(m)])
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(m))


def grad_estimator(problem: ErmProblem, y: np.ndarray, gamma: float, m: int,
                   rng: RngStream,
                   direction: CovarianceSpectrum | None = None) -> np.ndarray:
    """Averaged smoothed stochastic subgradient of the ERM objective.

    Each of the m terms picks a uniform sample index and evaluates the
    loss subgradient at the perturbed point y + gamma Z_j, so the result
    is unbiased for the gradient of the smoothed single-sample objective.
    """
    gen = rng.generator()
    n, d = problem.A.shape
    idx = gen.integers(0, n, size=m)
    z = _draw_directions(gen, m, d, direction)
    pts = y + gamma * z
    rows = problem.A[idx]
    margins = np.einsum("jd,jd->j", rows, pts)
    slopes = problem.loss.deriv(margins, problem.b[idx])
    g = (rows * slopes[:, None]).mean(axis=0)
    return g + problem.lam * y


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

    # theta_T is needed for the final z-step coefficient.
    th = theta_sequence(T + 1)
    x = np.zeros(d)
    z = x.copy()
    G = np.zeros(d)

    xs = [x.copy()]
    gaps = [problem.value(x) - f_star]
    for t in range(T):
        theta = th[t]
        u_t = theta * u
        y = (1.0 - theta) * x + theta * z
        g = grad_estimator(problem, y, u_t, m, rng.child(t),
                           direction=cfg.direction)
        G += g / theta
        theta_next = th[t + 1]
        L_next = L / (theta_next * u)
        eta_next = L * math.sqrt(t + 2.0) / (R * math.sqrt(m))
        coef = L_next + eta_next / theta_next
        z = -G / coef
        nrm = np.linalg.norm(z)
        if nrm > R:
            z *= R / nrm
        x = (1.0 - theta) * x + theta * z
        xs.append(x.copy())
        gaps.append(problem.value(x) - f_star)
        if gap_tol is not None and gaps[-1] <= gap_tol:
            break
    return SmoothingRun(np.array(xs), gaps)


def iters_to_gap(run: SmoothingRun, tol: float) -> int | None:
    """First iteration index whose gap is <= tol, or None if never reached."""
    for t, gap in enumerate(run.gaps):
        if gap <= tol:
            return t
    return None
