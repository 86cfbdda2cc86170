"""Enumeration, Monte-Carlo and step-by-step oracles shared by the test modules.

Not part of the library: nothing under ``src/`` calls them.
"""

import itertools
import math

import numpy as np

from effdim.concentration import _gaussian_product_moment_grad
from effdim.linalg import LimitExceeded
from effdim.smoothing import (
    DRAW_BLOCK,
    _default_width,
    _direction_scale,
    _theta_next,
    grad_estimator,
)
from effdim.spectrum import effective_dimension


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


def kb_deff_closed_form(s, eps, r):
    """The d_eff(r) closed form of K at t = eps * sigma_1, for d >= 2.

    With a = (d_eff(r) - 1) eps^{-2/r}, it is ln(1/eps) + (r/2) min(d - 1,
    a/e) ln(max(e, a/(d - 1))): Jensen's inequality over the at most d - 1
    axes i >= 2 above t, whose (sigma_i / sigma_1)^{2/r} sum to d_eff(r) - 1,
    puts K_b below it.
    """
    d = s.dim
    deff = effective_dimension(s, r)
    ln_inv_eps = math.log(1.0 / eps)
    a = eps ** (-2.0 / r) * (deff - 1.0)
    lead = min(d - 1.0, a / math.e) / (2.0 / r)
    return ln_inv_eps + lead * math.log(max(math.e, a / (d - 1.0)))


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

    gamma = 0 short-circuits to (f(x), 0).
    """
    if gamma == 0.0:
        return float(f(x)), 0.0
    if m < 2:
        raise ValueError("need m >= 2 perturbations for a stderr")
    z = (rng.generator().standard_normal((m, len(x)))
         * _direction_scale(direction, len(x)))
    vals = np.array([f(x + gamma * z[j]) for j in range(m)])
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(m))


def sphere_net(dim: int, resolution: float) -> np.ndarray:
    """Unit-sphere net: every unit vector is within ``resolution`` of a point.

    Enumeration oracle only, capped at dim <= 4.  Built recursively from
    polar-angle grids; the per-level steps are chosen so the accumulated
    Euclidean error stays below ``resolution``.
    """
    if dim > 4:
        raise LimitExceeded(f"sphere_net supports dim <= 4, got {dim}")
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


def default_width_closed_form(radius, direction, n, d):
    """:func:`effdim.smoothing._default_width` with its gap bound written
    out by hand rather than read from
    :func:`effdim.smoothing.smoothing_bounds`: R / sqrt(sqrt(d)) isotropic,
    else R / sqrt(sqrt(sigma_1^3 (d_eff(1) + ln max(n, 2)) d_eff(2))),
    floored at 1e-12 under the outer root."""
    if direction is None:
        return radius / math.sqrt(math.sqrt(d))
    sigma1 = float(direction.sigmas[0])
    d1 = effective_dimension(direction, 1)
    d2 = effective_dimension(direction, 2)
    try:
        shape = math.sqrt(sigma1**3 * (d1 + math.log(max(n, 2))) * d2)
    except OverflowError:
        raise OverflowError(f"sigma1**3 overflows float64 at sigma1 {sigma1:g}") from None
    return radius / math.sqrt(max(shape, 1e-12))


def rs_reference(A, b, cfg, direction, rng, gap_tol=None):
    """Step-by-step loop of :func:`effdim.smoothing.rs_lockstep` for one
    trial, rows A (n, d) and labels b (n,), and one direction (None for
    isotropic, else a spectrum): whole-block draws, one full hinge
    objective value and stop check per step.  Returns (gaps, last iterate)."""
    n, d = A.shape
    m, R = cfg.batch, cfg.radius

    def gap(x):
        return float(np.maximum(A @ x - b, 0.0).sum()) / n

    L = float(np.linalg.norm(A, axis=1).max())
    u = cfg.u if cfg.u is not None else _default_width(R, direction, n, d)
    c_eta = L / (R * math.sqrt(m))
    gen = rng.generator()
    x = np.zeros(d)
    z = x.copy()
    G = x.copy()
    theta = 1.0
    gaps = [gap(x)]
    for t in range(cfg.iters):
        k = t % DRAW_BLOCK
        if k == 0:
            idx, dirs = draw_block(gen, DRAW_BLOCK, n, m, d, direction)
        y = (1.0 - theta) * x + theta * z
        G += grad_estimator(A, b, y[None], np.array([theta * u]),
                            idx[k][None], dirs[k][None])[0] / theta
        theta_next = _theta_next(theta)
        z = G / -((L / u + c_eta * math.sqrt(t + 2.0)) / theta_next)
        nrm = math.sqrt(z @ z)
        if nrm > R:
            z *= R / nrm
        x = (1.0 - theta) * x + theta * z
        gaps.append(gap(x))
        if gap_tol is not None and gaps[-1] <= gap_tol:
            break
        theta = theta_next
    return gaps, x


# Rows per chunk of moment_tensor keep each Khatri-Rao block near 2**20 entries.
_CHUNK_ENTRIES = 2**20


def _khatri_rao_power(B, m):
    """Row-wise m-fold Kronecker power: row i is b_i^{⊗m} flattened, (rows, d**m)."""
    out = B
    for _ in range(m - 1):
        out = (out[:, :, None] * B[:, None, :]).reshape(len(B), -1)
    return out


def moment_tensor(A, p):
    """Dense E_n[a^{⊗p}] as (a^{⊗ceil(p/2)})^T (a^{⊗floor(p/2)}) / n, one
    matmul per row chunk; no (n, d**p) block is ever formed."""
    n, d = A.shape
    hi, lo = (p + 1) // 2, p // 2
    chunk = max(1, _CHUNK_ENTRIES // d**hi)
    out = np.zeros((d**hi, d**lo))
    for i in range(0, n, chunk):
        block = A[i:i + chunk]
        out += _khatri_rao_power(block, hi).T @ _khatri_rao_power(block, lo)
    return (out / n).reshape((d,) * p)


def basis_moment_tensor(s, p):
    """E[a^{⊗p}] for a ~ N(0, Sigma) from the library's Wick gradient
    :func:`effdim.concentration._gaussian_product_moment_grad`: entry
    (i_1, ..., i_p) is component i_1 of the gradient in x_1 at
    (e_{i_2}, ..., e_{i_p})."""
    d = s.dim
    X = np.zeros((d ** (p - 1), p, d))  # x_1 stays 0: the gradient ignores it
    X[:, 1:] = np.eye(d)[np.array(list(itertools.product(range(d), repeat=p - 1)))]
    g = _gaussian_product_moment_grad(X, X * s.sigmas**2, 0)  # (d**(p-1), d)
    return np.moveaxis(g.reshape((d,) * p), -1, 0)


def pairings(m):
    """Every pairing of the indices 0..m-1 as an int array of shape
    (pairings, m // 2, 2): (m - 1)!! pairings for even m, none for odd m."""
    def walk(items):
        if not items:
            yield []
            return
        first, rest = items[0], items[1:]
        for i, second in enumerate(rest):
            for sub in walk(rest[:i] + rest[i + 1:]):
                yield [(first, second)] + sub

    count = 0 if m % 2 else math.prod(range(m - 1, 0, -2))
    out = np.array(list(walk(list(range(m)))) if count else [], dtype=int)
    return out.reshape(count, m // 2, 2)


def wick_grad_by_pairings(X, SX, k):
    """Reference for :func:`effdim.concentration._gaussian_product_moment_grad`
    from Isserlis' theorem term by term: the sum over the (r - 1)!!
    pairings of Sigma x_m, m the partner of k, times the Gram entries
    x_p^T Sigma x_q of the other pairs; zero for odd r."""
    P = pairings(X.shape[1])
    gram = SX @ X.transpose(0, 2, 1)
    has_k = (P == k).any(axis=-1)  # one pair per pairing holds k
    partner = P[has_k].sum(axis=-1) - k
    rest = np.where(has_k, 1.0, gram[:, P[..., 0], P[..., 1]]).prod(axis=-1)
    return np.einsum("rp,rpd->rd", rest, SX[:, partner])


def gaussian_moment_tensor(s, p):
    """Dense E[a^{⊗p}] for a ~ N(0, Sigma): zero for odd p, else one einsum
    per pairing of the p axes over products of Sigma entries."""
    out = np.zeros((s.dim,) * p)
    if p % 2:
        return out
    cov = s.covariance()
    for pairing in pairings(p):
        operands = []
        for i, j in pairing:
            operands += [cov, [int(i), int(j)]]
        out += np.einsum(*operands, list(range(p)))
    return out


def _contract_all_but(t, X, k):
    """t(x_1, ..., x_{k-1}, ·, x_{k+1}, ..., x_p) for every start: (R, d)."""
    others = [j for j in range(t.ndim) if j != k]
    g = np.tensordot(X[:, others[0]], np.moveaxis(t, k, -1), axes=([1], [0]))
    for j in others[1:]:
        g = np.einsum("ri...,ri->r...", g, X[:, j])
    return g


def dense_block_ascent(t, restarts, iters, rng):
    """Block ascent for sup |t(x_1, ..., x_p)| on a dense order p >= 3
    tensor, with the starts and updates of the library's tensor-free route:
    ``rng.generator().standard_normal((restarts, p, d))`` normalized per
    vector, x_k <- t(..., ·, ...) / ||·||.  Unlike the library it keeps the
    start pass as the reference: the best of |t| at the starts and every
    norm."""
    p = t.ndim
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
