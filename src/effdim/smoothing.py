"""Randomized smoothing of nonsmooth ERM objectives and an accelerated
dual-averaging optimizer driven by smoothed stochastic subgradients.

f^gamma(x) = E f(x + gamma Z) with Z either standard normal (isotropic)
or shaped by a covariance spectrum with standard deviations sigma:
Z = diag(sqrt(sigma)) G for standard normal G, so Cov Z = diag(sigma) =
Sigma^{1/2}, the square root of the data covariance Sigma = diag(sigma^2)
(see :func:`_direction_scale`).  The optimizer anneals the smoothing width
along the usual accelerated theta sequence and keeps iterates in a
Euclidean ball by radial projection.

Stream layout of :func:`rs_optimize`: a run makes one generator from its
stream and draws in blocks of ``DRAW_BLOCK`` steps.  Each block draws its
sample indices whole, ``integers(0, n, (DRAW_BLOCK, m))``, then its
standard normal directions one step at a time, ``standard_normal((m, d))``;
the values equal those of one whole-block draw
``standard_normal((DRAW_BLOCK, m, d))``, and the next block's indices
follow them.  Step t's draws depend only on the stream and t, never on
``iters`` or on where the run stops.  :func:`rs_lockstep` advances every
config on every trial together: the trials are equal consecutive blocks
of rows of one data array, each with one stream, and all configs of a
trial draw from that trial's one generator.  So the configs of a trial
use common random numbers: shaped directions are the isotropic ones
scaled by sqrt(sigma).  ``DRAW_BLOCK`` is part of the output contract:
changing it changes every run's draws.
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
    gaps: list[float]        # true objective at x_t minus the reference optimum
    x: np.ndarray            # (d,) the last iterate


# Steps per block of draws and of stop-rule checks; part of the output contract.
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


def _direction_scale(direction: CovarianceSpectrum | None, d: int) -> np.ndarray:
    """Per-coordinate factor that turns standard normal draws into
    directions: sqrt(sigma) for shaped directions, so that Cov Z =
    Sigma^{1/2}, and ones for isotropic ones."""
    return np.ones(d) if direction is None else np.sqrt(direction.sigmas)


def grad_estimator(problem: ErmProblem, y: np.ndarray, gamma: np.ndarray,
                   idx: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Averaged smoothed stochastic subgradients of the ERM objective, one
    per run.

    The leading axis indexes runs: y (runs, d), gamma (runs,), idx
    (runs, m) and z (runs, m, d).  Term j of run r takes row ``idx[r, j]``
    and evaluates the loss subgradient at the perturbed point
    y[r] + gamma[r] z[r, j], where the directions z come from standard
    normal draws times :func:`_direction_scale`.  With ``idx`` uniform over
    the rows, row r of the result is unbiased for the gradient of the
    smoothed single-sample objective at y[r].  ``problem`` may hold the
    rows of several trials, as in :func:`rs_lockstep`: each run then
    indexes only its own trial's block of rows.
    """
    pts = y[:, None, :] + gamma[:, None, None] * z
    rows = problem.A[idx]
    margins = np.einsum("rjd,rjd->rj", rows, pts)
    slopes = problem.loss.deriv(margins, problem.b[idx])
    return (slopes[:, None, :] @ rows)[:, 0] / idx.shape[1] + problem.lam * y


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
    try:
        shape = math.sqrt(sigma1**3 * (d1 + math.log(max(problem.n, 2))) * d2)
    except OverflowError:
        raise OverflowError(f"sigma1**3 overflows float64 at sigma1 {sigma1:g}") from None
    return cfg.radius / math.sqrt(max(shape, 1e-12))


def rs_optimize(problem: ErmProblem, cfg: SmoothingConfig,
                rng: RngStream = RngStream(0),
                f_star: float = 0.0,
                gap_tol: float | None = None) -> SmoothingRun:
    """Accelerated dual averaging on the annealed smoothed objective.

    The one-trial, one-config call of :func:`rs_lockstep`.  All draws come
    from one generator made from ``rng``: each block of ``DRAW_BLOCK`` steps
    draws its sample indices whole, then its directions one step at a time,
    which gives the same values as a whole-block draw (see the module
    docstring).  So step t's draws depend only on ``rng`` and t, and runs
    that share ``rng`` share their draws: with the same ``u``, a shaped run
    perturbs along the isotropic run's directions scaled by sqrt(sigma).

    y_t = (1 - theta_t) x_t + theta_t z_t; the smoothed stochastic
    gradient at y_t with width u_t = theta_t * u is accumulated with
    weight 1/theta_t, z_{t+1} minimizes the accumulated linear model plus
    (L_{t+1} + eta_{t+1}/theta_{t+1})/2 ||x||^2 over the radius ball
    (closed form plus radial projection), and
    x_{t+1} = (1 - theta_t) x_t + theta_t z_{t+1}, from x_0 = z_0 = 0.  L is
    max_i ||a_i|| + lam * radius, the Lipschitz constant of the objective
    on the ball.  The run stops after ``cfg.iters`` steps or at the first
    step t >= 1 whose gap is <= ``gap_tol``.
    """
    return rs_lockstep(problem, [rng], [cfg], f_star, gap_tol)[0][0]


def rs_lockstep(data: ErmProblem, streams: list[RngStream],
                cfgs: list[SmoothingConfig],
                f_star: float = 0.0,
                gap_tol: float | None = None) -> list[list[SmoothingRun]]:
    """:func:`rs_optimize` for every trial and config, with every run
    advanced together; ``out[k][j]`` is config j on trial k.

    The rows of ``data`` split into ``len(streams)`` equal consecutive
    blocks: trial k is block k, a view of ``data``, with generator
    ``streams[k]``.  Every config runs on every trial, and all configs of a
    trial draw from that trial's one generator, so they share its draws.
    Each step is computed for all active runs at once.  The stop rule is
    checked once per block: each run's block of iterates is evaluated with
    one matmul and truncated at its first gap <= ``gap_tol``, and a run
    leaves the batch once it stops.  Each result equals :func:`rs_optimize`
    on its trial's rows alone.  The configs must share a batch size.
    """
    K, J = len(streams), len(cfgs)
    if not K or data.n % K:
        raise ValueError("data must split into one equal block of rows per stream")
    if not J or any(cfg.batch != cfgs[0].batch for cfg in cfgs):
        raise ValueError("lockstep configs need a common batch size")
    n, d, m = data.n // K, data.d, cfgs[0].batch
    trials = [ErmProblem(data.A[k * n:(k + 1) * n], data.b[k * n:(k + 1) * n],
                         data.loss, data.lam) for k in range(K)]
    gens = [rng.generator() for rng in streams]

    # Run r is config r % J on trial r // J, and reads rows n * (r // J) + i.
    trial = np.repeat(np.arange(K), J)
    runs = [(trials[k], cfg) for k in range(K) for cfg in cfgs]
    R = np.array([cfg.radius for _, cfg in runs])
    L = np.array([float(np.linalg.norm(p.A, axis=1).max()) for p in trials])[trial]
    L += data.lam * R
    u = np.array([cfg.u if cfg.u is not None else _default_width(cfg, p)
                  for p, cfg in runs])
    L_over_u = L / u
    c_eta = L / (R * math.sqrt(m))
    scale = np.stack([_direction_scale(cfg.direction, d) for _, cfg in runs])
    iters = np.array([cfg.iters for _, cfg in runs])

    gaps = [[p.value(np.zeros(d)) - f_star] for p, _ in runs]
    final = [None] * len(runs)
    live = np.arange(len(runs))
    x = np.zeros((len(runs), d))
    z = x.copy()
    G = x.copy()
    xs = np.empty((len(runs), DRAW_BLOCK, d))   # the block's iterates
    theta = 1.0
    t0 = 0
    while live.size:
        steps = min(DRAW_BLOCK, int(iters[live].max()) - t0)
        active, slot = np.unique(trial[live], return_inverse=True)
        idx = np.stack([gens[k].integers(0, n, (DRAW_BLOCK, m)) for k in active])
        idx = np.ascontiguousarray((idx[slot] + n * trial[live, None, None])
                                   .transpose(1, 0, 2))
        normals = np.empty((len(active), m, d))
        dirs = np.empty((live.size, m, d))
        rad, lu, ceta, width = R[live], L_over_u[live], c_eta[live], u[live]
        sc = scale[live, None, :]
        for k in range(steps):
            for buf, s in zip(normals, active):
                gens[s].standard_normal((m, d), out=buf)
            np.multiply(normals[slot], sc, out=dirs)
            y = (1.0 - theta) * x + theta * z
            G += grad_estimator(data, y, theta * width, idx[k], dirs) / theta
            theta_next = _theta_next(theta)
            # coef = L_{t+1} + eta_{t+1} / theta_{t+1}, L_{t+1} = L / (theta_{t+1} u)
            coef = (lu + ceta * math.sqrt(t0 + k + 2.0)) / theta_next
            z = G / -coef[:, None]
            # One dot product per run, as z @ z for a single run; the factor
            # is min(1, R / ||z||) without dividing by a zero norm.
            nrm = np.sqrt((z[:, None, :] @ z[:, :, None])[:, 0, 0])
            z *= (rad / np.maximum(nrm, rad))[:, None]
            x = (1.0 - theta) * x + theta * z
            xs[:live.size, k] = x
            theta = theta_next

        keep = []
        for j, r in enumerate(live):
            block = xs[j, :min(steps, iters[r] - t0)]
            vals = runs[r][0].values(block) - f_star
            hits = np.flatnonzero(vals <= gap_tol) if gap_tol is not None else []
            used = hits[0] + 1 if len(hits) else len(block)
            gaps[r] += vals[:used].tolist()
            if len(hits) or t0 + len(block) == iters[r]:
                final[r] = block[used - 1].copy()
            else:
                keep.append(j)
        live, x, z, G = live[keep], x[keep], z[keep], G[keep]
        t0 += steps
    out = [SmoothingRun(g, x_end) for g, x_end in zip(gaps, final)]
    return [out[k * J:(k + 1) * J] for k in range(K)]


def iters_to_gap(run: SmoothingRun, tol: float) -> int | None:
    """First iteration index whose gap is <= tol, or None if never reached."""
    for t, gap in enumerate(run.gaps):
        if gap <= tol:
            return t
    return None
