"""Randomized smoothing of nonsmooth ERM objectives and an accelerated
dual-averaging optimizer driven by smoothed stochastic subgradients.

f^gamma(x) = E f(x + gamma Z) with Z either standard normal (isotropic)
or shaped by a covariance spectrum with standard deviations sigma:
Z = diag(sqrt(sigma)) G for standard normal G, so Cov Z = diag(sigma) =
Sigma^{1/2}, the square root of the data covariance Sigma = diag(sigma^2)
(see :func:`_direction_scale`).  The optimizer anneals the smoothing width
along the usual accelerated theta sequence and keeps iterates in a
Euclidean ball by radial projection.

Stream layout of :func:`rs_lockstep`: a trial makes one generator from its
stream and draws in blocks of ``DRAW_BLOCK`` steps.  Each block draws its
sample indices whole, ``integers(0, n, (DRAW_BLOCK, m))``, then its
standard normal directions one step at a time, ``standard_normal((m, d))``;
the values equal those of one whole-block draw
``standard_normal((DRAW_BLOCK, m, d))``, and the next block's indices
follow them.  Step t's draws depend only on the stream and t, never on
``iters`` or on where the run stops.  Every direction of a trial draws
from that trial's one generator, so the directions of a trial use common
random numbers: shaped directions are the isotropic ones scaled by
sqrt(sigma).  ``DRAW_BLOCK`` is part of the output contract: changing it
changes every run's draws.
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
    u: float | None = None   # base smoothing width; None picks one per direction

    def __post_init__(self):
        if self.radius <= 0 or self.iters < 1 or self.batch < 1:
            raise ValueError("radius, iters and batch must be positive")
        if self.u is not None and self.u <= 0:
            raise ValueError("u must be positive")


@dataclass(frozen=True)
class SmoothingRun:
    gaps: list[float]        # true objective at x_t, the gap to the optimum 0
    x: np.ndarray            # (d,) the last iterate
    iters_to_tol: int | None  # first t with gaps[t] <= gap_tol, None if none


# Steps per block of draws and of stop-rule checks; part of the output contract.
DRAW_BLOCK = 64


def _theta_next(theta: float) -> float:
    """theta_{t+1} = 2 / (1 + sqrt(1 + 4 / theta_t^2))."""
    return 2.0 / (1.0 + math.sqrt(1.0 + 4.0 / (theta * theta)))


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


def _default_width(radius: float, direction: CovarianceSpectrum | None,
                   problem: ErmProblem) -> float:
    if direction is None:
        return radius * problem.d ** (-0.25)
    sigma1 = float(direction.sigmas[0])
    d1 = effective_dimension(direction, 1)
    d2 = effective_dimension(direction, 2)
    try:
        shape = math.sqrt(sigma1**3 * (d1 + math.log(max(problem.n, 2))) * d2)
    except OverflowError:
        raise OverflowError(f"sigma1**3 overflows float64 at sigma1 {sigma1:g}") from None
    return radius / math.sqrt(max(shape, 1e-12))


def _max_row_norm(A: np.ndarray) -> float:
    """max_i ||a_i||.  Scaling by an exact power of two first keeps the
    squares inside the norm from underflowing (or overflowing), and leaves
    the norm of normal floats bit-equal."""
    k = np.frexp(np.abs(A).max())[1]
    return float(np.ldexp(np.linalg.norm(np.ldexp(A, -k), axis=1), k).max())


def rs_lockstep(data: ErmProblem, streams: list[RngStream], cfg: SmoothingConfig,
                directions: list[CovarianceSpectrum | None],
                gap_tol: float | None = None) -> list[list[SmoothingRun]]:
    """Accelerated dual averaging on the annealed smoothed objective, for
    every trial and direction; ``out[k][j]`` is direction j on trial k.

    A direction is None for isotropic smoothing (Cov Z = I) or a spectrum
    for shaped smoothing (Cov Z = Sigma^{1/2}); every run shares ``cfg``.
    The rows of ``data`` split into ``len(streams)`` equal consecutive
    blocks: trial k is block k, a view of ``data``, with generator
    ``streams[k]``.  All directions of a trial draw from that trial's one
    generator (see the module docstring), so a shaped run perturbs along
    the isotropic run's directions scaled by sqrt(sigma).

    y_t = (1 - theta_t) x_t + theta_t z_t; the smoothed stochastic
    gradient at y_t with width u_t = theta_t * u is accumulated with
    weight 1/theta_t, z_{t+1} minimizes the accumulated linear model plus
    (L_{t+1} + eta_{t+1}/theta_{t+1})/2 ||x||^2 over the radius ball
    (closed form plus radial projection), and
    x_{t+1} = (1 - theta_t) x_t + theta_t z_{t+1}, from x_0 = z_0 = 0.  L is
    max_i ||a_i|| + lam * radius, the Lipschitz constant of the objective
    on the ball; an L of 0 raises OverflowError.  A run stops after
    ``cfg.iters`` steps or at the first step t >= 1 whose gap is <=
    ``gap_tol``.  The gap is the objective value itself: ``data`` is a
    planted hinge problem, labels b = A x* with x* in the ball, whose
    optimum over the ball is 0.  A run's ``iters_to_tol`` counts gap 0 too,
    so it is 0 for a run that starts within tolerance.

    Each step is computed for all active runs at once.  The stop rule is
    checked once per block: each run's block of iterates is evaluated with
    one matmul and truncated at its first gap <= ``gap_tol``, and a run
    leaves the batch once it stops.  Each result equals the call on its
    trial's rows and that direction alone.
    """
    K, J = len(streams), len(directions)
    if not K or data.n % K:
        raise ValueError("data must split into one equal block of rows per stream")
    if not J:
        raise ValueError("lockstep needs at least one direction")
    n, d, m, R = data.n // K, data.d, cfg.batch, cfg.radius
    trials = [ErmProblem(data.A[k * n:(k + 1) * n], data.b[k * n:(k + 1) * n],
                         data.loss, data.lam) for k in range(K)]
    gens = [rng.generator() for rng in streams]

    # Run r is direction r % J on trial r // J, and reads rows n * (r // J) + i.
    trial = np.repeat(np.arange(K), J)
    runs = [(trials[k], direction) for k in range(K) for direction in directions]
    L = np.array([_max_row_norm(p.A) for p in trials])[trial]
    L += data.lam * R
    if not L.all():
        raise OverflowError("the Lipschitz constant max_i ||a_i|| + lam * radius "
                            "is 0: every row is zero or underflows float64")
    u = np.array([cfg.u if cfg.u is not None else _default_width(R, direction, p)
                  for p, direction in runs])
    L_over_u = L / u
    c_eta = L / (R * math.sqrt(m))
    scale = np.stack([_direction_scale(direction, d) for _, direction in runs])

    gaps = [[p.value(np.zeros(d))] for p, _ in runs]
    tol_at = [0 if gap_tol is not None and g[0] <= gap_tol else None for g in gaps]
    final = [None] * len(runs)
    live = np.arange(len(runs))
    x = np.zeros((len(runs), d))
    z = x.copy()
    G = x.copy()
    xs = np.empty((len(runs), DRAW_BLOCK, d))   # the block's iterates
    theta = 1.0
    t0 = 0
    while live.size:
        steps = min(DRAW_BLOCK, cfg.iters - t0)
        active, slot = np.unique(trial[live], return_inverse=True)
        idx = np.stack([gens[k].integers(0, n, (DRAW_BLOCK, m)) for k in active])
        idx = np.ascontiguousarray((idx[slot] + n * trial[live, None, None])
                                   .transpose(1, 0, 2))
        normals = np.empty((len(active), m, d))
        dirs = np.empty((live.size, m, d))
        lu, ceta, width = L_over_u[live], c_eta[live], u[live]
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
            z *= (R / np.maximum(nrm, R))[:, None]
            x = (1.0 - theta) * x + theta * z
            xs[:live.size, k] = x
            theta = theta_next

        keep = []
        for j, r in enumerate(live):
            vals = runs[r][0].values(xs[j, :steps])
            hits = np.flatnonzero(vals <= gap_tol) if gap_tol is not None else []
            used = hits[0] + 1 if len(hits) else steps
            gaps[r] += vals[:used].tolist()
            if len(hits) and tol_at[r] is None:
                tol_at[r] = t0 + used
            if len(hits) or t0 + steps == cfg.iters:
                final[r] = xs[j, used - 1].copy()
            else:
                keep.append(j)
        live, x, z, G = live[keep], x[keep], z[keep], G[keep]
        t0 += steps
    out = [SmoothingRun(*run) for run in zip(gaps, final, tol_at)]
    return [out[k * J:(k + 1) * J] for k in range(K)]
