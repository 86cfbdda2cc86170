"""Regularized ERM, Hessian-deviation measurement, and Bregman
preconditioned gradient descent.

The preconditioner phi is itself an :class:`ErmProblem`: the ERM
objective on an auxiliary sample with regularization lambda + mu, built
as ``dataclasses.replace(aux, lam=aux.lam + mu)``.  When the uniform
Hessian deviation between the two samples is at most mu, F is 1-smooth
and (1 + 2 mu / lambda)^{-1}-strongly convex relative to phi
(:func:`kappa_bound`), so Bregman proximal gradient steps contract the
optimality gap by that relative condition number per communication
round.  The measured mu (:func:`hessian_deviation_sup`) is the exact
maximum deviation over x = 0 and the probe points, a lower estimate of
the supremum over the unit ball; :func:`mu_formula` is the printed bound.

The data are never split: each outer iteration of :func:`precond_bgd` or
:func:`vanilla_gd` needs exactly one full gradient of F, which in the
distributed setting is one communication round, so the number of rounds
is the number of outer iterations (:attr:`PrecondRun.rounds`).

Dense factorizations use numpy's LAPACK: Newton steps solve against the
Cholesky factor L of the Hessian (``np.linalg.cholesky``), and
:func:`relative_condition` reduces the generalized eigenproblem of
(hess F, hess phi) to the symmetric matrix L^{-1} hess F L^{-T}, with L the
Cholesky factor of hess phi, before ``np.linalg.eigvalsh``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .concentration import bound_curve
from .linalg import tensor_opnorm
from .spectrum import CovarianceSpectrum, effective_dimension


class SingularPhi(Exception):
    """The Hessian of phi is not positive definite at a probe point."""


class InnerSolveFailure(Exception):
    """Damped Newton failed to solve the Bregman proximal subproblem."""


_LOGISTIC_HESS_LIP = 1.0 / (6.0 * math.sqrt(3.0))  # max |d/dz sigmoid'(z)|


@dataclass(frozen=True)
class Loss:
    """Scalar margin loss: logistic, ridge (squared), or hinge.

    The hinge derivative takes the 0-side value at its kink so that
    subgradient evaluations are deterministic.
    """

    kind: str

    def __post_init__(self):
        if self.kind not in ("logistic", "ridge", "hinge"):
            raise ValueError(f"unknown loss {self.kind!r}")

    def value(self, z, b):
        if self.kind == "logistic":
            return np.logaddexp(0.0, -b * z)
        if self.kind == "ridge":
            return 0.5 * (z - b) ** 2
        return np.maximum(z - b, 0.0)

    def deriv(self, z, b):
        if self.kind == "logistic":
            return -b * _sigmoid(-b * z)
        if self.kind == "ridge":
            return z - b
        return (z > b).astype(float)

    def second(self, z, b):
        if self.kind == "logistic":
            s = _sigmoid(b * z)
            return s * (1.0 - s)
        if self.kind == "ridge":
            return np.ones_like(np.asarray(z, dtype=float))
        return np.zeros_like(np.asarray(z, dtype=float))

    @property
    def second_max(self) -> float:
        return {"logistic": 0.25, "ridge": 1.0, "hinge": 0.0}[self.kind]

    @property
    def hess_lipschitz(self) -> float:
        return {"logistic": _LOGISTIC_HESS_LIP, "ridge": 0.0, "hinge": 0.0}[self.kind]


def _sigmoid(z):
    return 0.5 * (1.0 + np.tanh(0.5 * np.asarray(z, dtype=float)))


@dataclass(frozen=True)
class ErmProblem:
    """F(x) = lam/2 ||x||^2 + (1/n) sum_i loss(a_i^T x; b_i)."""

    A: np.ndarray
    b: np.ndarray
    loss: Loss
    lam: float = 0.0

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if A.ndim != 2 or b.shape != (A.shape[0],):
            raise ValueError("A must be (n, d) with one label per row")
        if not (np.isfinite(A).all() and np.isfinite(b).all()):
            raise ValueError("non-finite entries in problem data")
        if self.lam < 0:
            raise ValueError("lam must be nonnegative")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def d(self) -> int:
        return self.A.shape[1]

    def value(self, x: np.ndarray) -> float:
        z = self.A @ x
        # sum / n is np.mean's arithmetic without its dispatch on small arrays
        return 0.5 * self.lam * float(x @ x) + float(self.loss.value(z, self.b).sum()) / self.n

    def values(self, X: np.ndarray) -> np.ndarray:
        """:meth:`value` at each row of X (k, d), with one matmul."""
        Z = X @ self.A.T
        return (0.5 * self.lam * np.einsum("kd,kd->k", X, X)
                + self.loss.value(Z, self.b).sum(axis=1) / self.n)

    def grad(self, x: np.ndarray) -> np.ndarray:
        z = self.A @ x
        return self.lam * x + self.A.T @ self.loss.deriv(z, self.b) / self.n

    def hessian(self, x: np.ndarray) -> np.ndarray:
        return self.lam * np.eye(self.d) + self.data_hessian(x)

    def data_hessian(self, x: np.ndarray) -> np.ndarray:
        """Hessian of the data term only (no lam/2 ||x||^2)."""
        z = self.A @ x
        w = self.loss.second(z, self.b)
        return (self.A.T * w) @ self.A / self.n

    def smoothness(self) -> float:
        """Upper bound on the operator norm of the Hessian, for GD steps."""
        opnorm = float(np.linalg.norm(self.A, 2))
        return self.lam + self.loss.second_max * opnorm**2 / self.n


def kappa_bound(lam: float, mu: float) -> float:
    """Relative condition bound 1 + 2 mu / lam of F against phi."""
    if lam <= 0:
        raise SingularPhi("kappa bound requires lam > 0")
    return 1.0 + 2.0 * mu / lam


def relative_condition(problem: ErmProblem, phi, probes) -> dict:
    """Relative smoothness / strong-convexity over a set of probe points.

    Returns generalized-eigenvalue extremes of (hess F, hess phi) at each
    probe: L_rel = max over probes of the largest eigenvalue, sigma_rel =
    min over probes of the smallest.  Raises SingularPhi when the
    preconditioner Hessian is not positive definite at some probe.
    """
    L_vals, s_vals = [], []
    for x in probes:
        HF = problem.hessian(x)
        try:
            L = np.linalg.cholesky(phi.hessian(x))
        except np.linalg.LinAlgError as exc:
            raise SingularPhi("preconditioner Hessian not positive definite") from exc
        # Reduce to the standard problem L^{-1} HF L^{-T}, as LAPACK's sygv does.
        M = np.linalg.solve(L, np.linalg.solve(L, HF).T)
        eig = np.linalg.eigvalsh(M)
        L_vals.append(float(eig[-1]))
        s_vals.append(float(eig[0]))
    return {"L_rel": max(L_vals), "sigma_rel": min(s_vals)}


def hessian_deviation_sup(problem_a: ErmProblem, problem_b: ErmProblem,
                          points: np.ndarray) -> float:
    """max over the rows x of ``points`` of || H_a(x) - H_b(x) ||_op for
    the data Hessians.

    Exact at each point (one symmetric eigensolve).  The CLI passes x = 0
    and the probes at which :func:`relative_condition` is evaluated, so mu
    dominates the deviation at every probe by construction; over the unit
    ball it is a lower estimate of the supremum.
    """
    if problem_a.d != problem_b.d:
        raise ValueError("dimension mismatch")
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.shape[0] == 0:
        raise ValueError("need at least one point")
    return max(tensor_opnorm(problem_a.data_hessian(x) - problem_b.data_hessian(x))
               for x in points)


# Failure probability and ball radius of the printed bound on mu.
_MU_DELTA = 0.05
_MU_RADIUS = 1.0


def mu_formula(s: CovarianceSpectrum, n: int, n_aux: int,
               hess_lipschitz: float, second_max: float) -> float:
    """Printed bound on the uniform Hessian deviation over the ball of
    radius ``_MU_RADIUS``, holding with probability 1 - ``_MU_DELTA``.

    The deviation splits at x = 0 into an x-dependent part and
    loss''(0) (Sigma_n - Sigma_aux), the gap between the two sample
    covariances.  The first part scales with ``hess_lipschitz``, the
    largest |third derivative| of the loss (0 for ridge).  The second is
    at most ``second_max`` times ||Sigma_n - Sigma|| + ||Sigma_aux - Sigma||,
    each bounded by Theorem 1 at r = 2 (:func:`bound_curve`).
    """
    sigma1 = float(s.sigmas[0])
    d = s.dim
    ln_d = math.log(d) if d > 1 else 0.0
    ln_inv = math.log(1.0 / _MU_DELTA)
    d1 = effective_dimension(s, 1)
    d3 = effective_dimension(s, 3)
    term1 = (d3 * ln_d + ln_inv) * math.sqrt(d1 + math.log(n / _MU_DELTA)) / n
    term2 = (math.sqrt(ln_inv) + math.sqrt(d1 * ln_d)) / math.sqrt(n)
    moving = _MU_RADIUS * sigma1**3 * hess_lipschitz * (term1 + term2)
    at_zero = second_max * (bound_curve("1", s, n, 2) + bound_curve("1", s, n_aux, 2))
    return moving + at_zero


_NEWTON_MAX_ITER = 100


def newton_minimize(value, grad, hess, x0: np.ndarray,
                    tol: float = 1e-12) -> np.ndarray:
    """Damped Newton with Cholesky solves and backtracking line search."""
    x = np.asarray(x0, dtype=float).copy()
    scale = max(abs(value(x)), 1.0)
    for _ in range(_NEWTON_MAX_ITER):
        g = grad(x)
        if np.linalg.norm(g) <= tol * scale:
            return x
        H = hess(x)
        try:
            L = np.linalg.cholesky(H)
        except np.linalg.LinAlgError as exc:
            raise InnerSolveFailure("Hessian factorization failed") from exc
        step = np.linalg.solve(L.T, np.linalg.solve(L, g))
        t = 1.0
        f0 = value(x)
        descent = float(g @ step)
        for _ in range(60):
            if value(x - t * step) <= f0 - 1e-4 * t * descent:
                break
            t *= 0.5
        else:
            raise InnerSolveFailure("line search stalled")
        x = x - t * step
    g = grad(x)
    if np.linalg.norm(g) <= math.sqrt(tol) * scale:
        return x
    raise InnerSolveFailure(f"no convergence in {_NEWTON_MAX_ITER} Newton steps")


def solve_erm(problem: ErmProblem) -> np.ndarray:
    """High-accuracy minimizer of a smooth ERM problem (reference optimum)."""
    if problem.loss.kind == "hinge":
        raise ValueError("hinge objective is nonsmooth; no Newton reference")
    return newton_minimize(problem.value, problem.grad, problem.hessian,
                           np.zeros(problem.d), tol=1e-13)


@dataclass(frozen=True)
class PrecondRun:
    gaps: list[float]  # F(x_t) - F* for t = 0..T

    @property
    def rounds(self) -> int:
        """Gradient communication rounds: one per outer iteration."""
        return len(self.gaps) - 1


def _descend(problem: ErmProblem, step, iters: int, f_star: float,
             gap_tol: float) -> PrecondRun:
    """x_{t+1} = step(x_t, grad F(x_t)) from x_0 = 0, stopping once the gap
    F(x_t) - f_star is at most gap_tol or after iters steps."""
    x = np.zeros(problem.d)
    gaps = [problem.value(x) - f_star]
    for _ in range(iters):
        x = step(x, problem.grad(x))
        gaps.append(problem.value(x) - f_star)
        if gaps[-1] <= gap_tol:
            break
    return PrecondRun(gaps)


def precond_bgd(problem: ErmProblem, phi: ErmProblem, f_star: float,
                gap_tol: float, iters: int = 50) -> PrecondRun:
    """Bregman proximal gradient descent x_{t+1} = argmin <grad F(x_t), x>
    + D_phi(x, x_t), inner problems solved by damped Newton."""

    def step(x, g):
        shift = g - phi.grad(x)
        return newton_minimize(
            lambda y: float(shift @ y) + phi.value(y),
            lambda y: shift + phi.grad(y),
            phi.hessian,
            x,
        )

    return _descend(problem, step, iters, f_star, gap_tol)


def vanilla_gd(problem: ErmProblem, f_star: float, gap_tol: float,
               iters: int = 10_000) -> PrecondRun:
    """Plain gradient descent with step 1/L, same round accounting."""
    lr = 1.0 / problem.smoothness()
    return _descend(problem, lambda x, g: x - lr * g, iters, f_star, gap_tol)
