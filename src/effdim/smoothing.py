"""Randomized smoothing of the planted hinge objective and an accelerated
dual-averaging optimizer driven by smoothed stochastic subgradients.

The objective is the unregularized hinge ERM
f(x) = (1/n) sum_i max(a_i . x - b_i, 0) with planted labels b = A x* for
an x* in the feasible ball, so its optimum is 0 and f(x_t) is the gap.
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


def _hinge_values(X: np.ndarray, A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The hinge objective of rows A (n, d) and labels b (n,) at each row
    of X (k, d), with one matmul."""
    return np.maximum(X @ A.T - b, 0.0).sum(axis=1) / A.shape[0]


def grad_estimator(A: np.ndarray, b: np.ndarray, y: np.ndarray, gamma: np.ndarray,
                   idx: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Averaged smoothed stochastic subgradients of the hinge objective, one
    per run.

    A (N, d) and b (N,) are the rows and labels that ``idx`` indexes.  The
    leading axis of the rest indexes runs: y (runs, d), gamma (runs,), idx
    (runs, m) and z (runs, m, d).  Term j of run r takes row ``idx[r, j]``
    and evaluates the hinge subgradient at the perturbed point
    y[r] + gamma[r] z[r, j], where the directions z come from standard
    normal draws times :func:`_direction_scale`.  The slope takes the
    0 side at the kink, so subgradients are deterministic.  With ``idx``
    uniform over a trial's rows, row r of the result is unbiased for the
    gradient of the smoothed objective at y[r].  A and b may hold the
    rows of several trials, as in :func:`rs_lockstep`: each run then
    indexes only its own trial's rows.
    """
    pts = y[:, None, :] + gamma[:, None, None] * z
    rows = A[idx]
    margins = np.einsum("rjd,rjd->rj", rows, pts)
    slopes = (margins > b[idx]).astype(float)
    return (slopes[:, None, :] @ rows)[:, 0] / idx.shape[1]


def smoothing_bounds(gamma: float, lip: float, d: int,
                     spectrum: CovarianceSpectrum | None = None,
                     n: int | None = None, delta: float = 0.05) -> dict:
    """Printed gap and smoothness bounds for the smoothed objective, with
    unit constant.

    Isotropic (spectrum None): gap <= gamma * lip * sqrt(d), smoothness
    <= lip / gamma.  Shaped directions use the spectral form in terms of
    the effective dimensions of the data covariance: gap <= gamma * lip *
    sqrt(sigma_1^3 (d_eff(1) + ln(n / delta)) d_eff(2)).  A sigma_1 whose
    cube overflows float64 raises OverflowError naming it.
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
    ln_d = math.log(spectrum.dim)
    try:
        gap = gamma * lip * math.sqrt(sigma1**3 * (d1 + math.log(n / delta)) * d2)
    except OverflowError:
        raise OverflowError(f"sigma1**3 overflows float64 at sigma1 {sigma1:g}") from None
    smooth = (
        lip * math.sqrt(sigma1) * math.sqrt(d2) / (gamma * d1)
        * (1.0 + math.sqrt((d1 * ln_d + math.log(1.0 / delta)) / n))
    )
    return {"gap": gap, "smoothness": smooth}


def _default_width(radius: float, direction: CovarianceSpectrum | None,
                   n: int, d: int) -> float:
    """The default smoothing width u = R / sqrt(G), with G the printed gap
    bound of :func:`smoothing_bounds` per unit width and unit Lipschitz
    constant, floored at 1e-12.

    Isotropic directions have G = sqrt(d), so u = R d^{-1/4}, the width of
    Duchi, Bartlett & Wainwright (SIAM J. Optim. 2012); it is written as
    that power, which can differ from R / sqrt(sqrt(d)) in the last bit.
    Shaped directions take G from the call at delta = 1, so that
    ln(n / delta) is ln n, and at max(n, 2), so that n = 1 takes ln 2.
    """
    if direction is None:
        return radius * d ** (-0.25)
    gap = smoothing_bounds(1.0, 1.0, d, direction, max(n, 2), delta=1.0)["gap"]
    return radius / math.sqrt(max(gap, 1e-12))


def _max_row_norm(A: np.ndarray) -> float:
    """max_i ||a_i||.  Scaling by an exact power of two first keeps the
    squares inside the norm from underflowing (or overflowing), and leaves
    the norm of normal floats bit-equal."""
    k = np.frexp(np.abs(A).max())[1]
    return float(np.ldexp(np.linalg.norm(np.ldexp(A, -k), axis=1), k).max())


def rs_lockstep(A: np.ndarray, b: np.ndarray, streams: list[RngStream],
                cfg: SmoothingConfig, directions: list[CovarianceSpectrum | None],
                gap_tol: float | None = None) -> list[list[SmoothingRun]]:
    """Accelerated dual averaging on the annealed smoothed hinge objective,
    for every trial and direction; ``out[k][j]`` is direction j on trial k.

    A is (K, n, d) and b is (K, n): trial k has rows ``A[k]``, labels
    ``b[k]`` and generator ``streams[k]``.  Each trial is a planted hinge
    problem with x* in the radius ball (see the module docstring), so the
    gap is the objective value itself.  A direction is
    None for isotropic smoothing (Cov Z = I) or a spectrum for shaped
    smoothing (Cov Z = Sigma^{1/2}); every run shares ``cfg``.  All
    directions of a trial draw from that trial's one generator, so a
    shaped run perturbs along the isotropic run's directions scaled by
    sqrt(sigma).

    y_t = (1 - theta_t) x_t + theta_t z_t; the smoothed stochastic
    gradient at y_t with width u_t = theta_t * u is accumulated with
    weight 1/theta_t, z_{t+1} minimizes the accumulated linear model plus
    (L_{t+1} + eta_{t+1}/theta_{t+1})/2 ||x||^2 over the radius ball
    (closed form plus radial projection), and
    x_{t+1} = (1 - theta_t) x_t + theta_t z_{t+1}, from x_0 = z_0 = 0.  L is
    max_i ||a_i||, the Lipschitz constant of the objective; an L of 0
    raises OverflowError.  A run stops after ``cfg.iters`` steps or at the
    first step t >= 1 whose gap is <= ``gap_tol``.  A run's
    ``iters_to_tol`` counts gap 0 too, so it is 0 for a run that starts
    within tolerance.

    Each step is computed for all active runs at once.  The stop rule is
    checked once per block: each run's block of iterates is evaluated with
    one matmul and truncated at its first gap <= ``gap_tol``, and a run
    leaves the batch once it stops.  Each result equals the call on its
    trial's rows and that direction alone.
    """
    K, J = len(streams), len(directions)
    if not K or A.ndim != 3 or A.shape[0] != K or b.shape != A.shape[:2]:
        raise ValueError("A must be (K, n, d) and b (K, n), one trial per stream")
    if not J:
        raise ValueError("lockstep needs at least one direction")
    if not (np.isfinite(A).all() and np.isfinite(b).all()):
        raise ValueError("non-finite entries in problem data")
    _, n, d = A.shape
    m, R = cfg.batch, cfg.radius
    rows, labels = A.reshape(K * n, d), b.reshape(K * n)
    gens = [rng.generator() for rng in streams]

    # Run r is direction r % J on trial r // J, and reads rows n * (r // J) + i.
    trial = np.repeat(np.arange(K), J)
    run_dirs = directions * K
    L = np.array([_max_row_norm(a) for a in A])[trial]
    if not L.all():
        raise OverflowError("the Lipschitz constant max_i ||a_i|| is 0: every "
                            "row is zero or underflows float64")
    u = np.array([cfg.u if cfg.u is not None else _default_width(R, direction, n, d)
                  for direction in run_dirs])
    L_over_u = L / u
    c_eta = L / (R * math.sqrt(m))
    scale = np.stack([_direction_scale(direction, d) for direction in run_dirs])

    gaps = [_hinge_values(np.zeros((1, d)), A[k], b[k]).tolist() for k in trial]
    tol_at = [0 if gap_tol is not None and g[0] <= gap_tol else None for g in gaps]
    final = [None] * len(run_dirs)
    live = np.arange(len(run_dirs))
    x = np.zeros((len(run_dirs), d))
    z = x.copy()
    G = x.copy()
    xs = np.empty((len(run_dirs), DRAW_BLOCK, d))   # the block's iterates
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
            G += grad_estimator(rows, labels, y, theta * width, idx[k], dirs) / theta
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
            vals = _hinge_values(xs[j, :steps], A[trial[r]], b[trial[r]])
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
