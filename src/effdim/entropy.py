"""Ellipsoid metric-entropy bounds and constructive desk-scale coverings.

An ellipsoid is given by a :class:`CovarianceSpectrum`: its sigma_1 >= ...
>= sigma_d > 0 are the semi-axes b_i of the axis-aligned ellipsoid
Sigma^{1/2} B = {x : sum_i (x_i / sigma_i)^2 <= 1}.  The unit-entropy bound
is reported as an explicit (K_b, correction) pair with the universal
constant ``c`` exposed as a parameter (default 1), so downstream
comparisons can fit ``c`` empirically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import DimTooLarge
from .rng import RngStream
from .spectrum import CovarianceSpectrum, block_sum, effective_dimension


@dataclass(frozen=True)
class EntropyBound:
    """Unit-entropy bound split into K_b and the c-multiplied bracket."""

    kb: float
    mb: int
    correction: float
    c: float

    @property
    def total(self) -> float:
        return self.kb + self.c * self.correction


@dataclass(frozen=True)
class BallCover:
    """An epsilon-ball cover whose centers lie on a grid.

    ``cells`` holds the integer grid indices of the centers, shape
    ``(size, d)``; center i is ``spacing * cells[i]``.
    """

    epsilon: float
    spacing: float
    cells: np.ndarray

    @property
    def centers(self) -> np.ndarray:
        return self.spacing * self.cells

    @property
    def size(self) -> int:
        return len(self.cells)


def kb_mb(e: CovarianceSpectrum) -> tuple[float, int]:
    """m_b = #{i : b_i > 1}; K_b = sum of ln(b_i) over those axes."""
    mb = e.dim - int(np.searchsorted(e.sigmas[::-1], 1.0, side="right"))
    return _log_sum(e.sigmas[:mb], 1.0), mb


def _log_sum(x: np.ndarray, scale: float) -> float:
    """sum_i ln(x_i / scale), one block at a time."""
    def log_ratio(v):
        w = v / scale
        return np.log(w, out=w)

    return block_sum(log_ratio, x)


def unit_entropy_bound(e: CovarianceSpectrum, c: float = 1.0) -> EntropyBound:
    """Non-asymptotic unit-entropy bound K_b + c[ln d + sqrt(ln+ b1 m_b ln d)]."""
    if c <= 0:
        raise ValueError("c must be positive")
    kb, mb = kb_mb(e)
    ln_d = math.log(e.dim)
    ln_b1 = max(math.log(e.sigmas[0]), 0.0)
    correction = ln_d + math.sqrt(ln_b1 * mb * ln_d)
    return EntropyBound(kb=kb, mb=mb, correction=correction, c=c)


def m_eps(s: CovarianceSpectrum, eps: float) -> int:
    """Exact count of sigma_i > eps * sigma_1, by binary search."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    return s.dim - int(np.searchsorted(s.sigmas[::-1], eps * s.sigmas[0], side="right"))


def eps_entropy_bound(s: CovarianceSpectrum, eps_grid, r: int = 1,
                      c: float = 1.0) -> list[tuple[int, float]]:
    """Entropy bounds for covering the unit sphere in the Sigma-metric: one
    ``(m_eps, bound)`` pair per eps of ``eps_grid``, with m_eps the count of
    :func:`m_eps` that the bound uses; d_eff(r) is computed once for the grid.

    Each is the minimum of the exact per-axis sum form and the closed-form
    d_eff(r) bound, each plus the shared c-bracket.  At d = 1 the sphere is
    two points of a segment and the bracket is 0, so the bound is ln(1/eps),
    the right order for covering a segment.  Also checks the
    companion inequality m_eps <= 1 + (d_eff(r) - 1) * eps^{-2/r} and raises
    ArithmeticError if it fails.
    """
    if not all(0 < eps <= 1 for eps in eps_grid):
        raise ValueError("eps must lie in (0, 1]")
    if r < 1:
        raise ValueError("r must be >= 1")
    deff = effective_dimension(s, r)
    return [_eps_bound(s, eps, r, c, deff) for eps in eps_grid]


def _eps_bound(s: CovarianceSpectrum, eps: float, r: int, c: float,
               deff: float) -> tuple[int, float]:
    """m_eps and the bound at one eps."""
    d = s.dim
    me = m_eps(s, eps)
    cap = 1 + (deff - 1) * eps ** (-2.0 / r)
    if not me <= cap + 1e-9:
        raise ArithmeticError(f"m_eps inequality violated: {me} > {cap}")
    ln_inv_eps = math.log(1.0 / eps)
    ln_d = math.log(d)
    bracket = ln_d + math.sqrt(max(ln_inv_eps, 0.0) * ln_d * me)
    if d == 1:
        return me, ln_inv_eps + c * bracket
    exact_sum = _log_sum(s.sigmas[:me], eps * s.sigmas[0])
    a = eps ** (-2.0 / r) * (deff - 1.0)
    lead = min(d - 1.0, a / math.e) / (2.0 / r)
    log_term = math.log(max(math.e, a / (d - 1.0)))
    closed_form = ln_inv_eps + lead * log_term
    return me, min(exact_sum, closed_form) + c * bracket


# Grid cells build_cover may enumerate before raising DimTooLarge.
_MAX_COVER_CELLS = 10**7


def build_cover(e: CovarianceSpectrum, eps: float) -> BallCover:
    """Constructive eps-cover of the ellipsoid by an axis-aligned grid.

    Grid spacing eps/sqrt(d); a center is kept iff its grid cell intersects
    the ellipsoid (separable exact test), so every ellipsoid point is within
    half a cell diagonal (= eps/2) of a kept center.  The cover property is
    guaranteed by this geometry; nothing is random.
    """
    if e.dim > 5:
        raise DimTooLarge(f"build_cover supports d <= 5, got {e.dim}")
    if eps <= 0:
        raise ValueError("eps must be positive")
    d = e.dim
    s = eps / math.sqrt(d)
    axes_counts = [int(math.floor((bi + s / 2) / s)) for bi in e.sigmas]
    total = 1
    for k in axes_counts:
        total *= 2 * k + 1
    if total > _MAX_COVER_CELLS:
        raise DimTooLarge(
            f"grid would enumerate {total} cells > {_MAX_COVER_CELLS}")
    # Cell [c - s/2, c + s/2]^d meets E_b iff the per-axis closest point is
    # inside: sum_i (closest_i / b_i)^2 <= 1.  Cells are extended one axis
    # at a time in meshgrid "ij" order, and a prefix whose partial sum
    # already exceeds 1 is dropped (every later term is >= 0).
    cells = np.zeros((1, 0), dtype=np.int64)
    sums = np.zeros(1)
    for k, bi in zip(axes_counts, e.sigmas):
        grid = np.arange(-k, k + 1)
        term = (np.maximum(np.abs(s * grid) - s / 2, 0.0) / bi) ** 2
        rows, cols = np.nonzero(sums[:, None] + term <= 1.0)
        sums = sums[rows] + term[cols]
        cells = np.column_stack([cells[rows], grid[cols]])
    return BallCover(epsilon=eps, spacing=s, cells=cells)


def sample_ellipsoid(e: CovarianceSpectrum, n: int, rng: RngStream) -> np.ndarray:
    """Uniform samples from the ellipsoid, shape ``(n, d)``.

    Exact radial law at every d: a uniform direction z/||z|| from a standard
    Gaussian z, a radius u^{1/d} from a uniform u, then scaled by the axes.
    Draws n*d normals and n uniforms from ``rng.generator()``.
    """
    if n < 1:
        raise ValueError("n_samples must be >= 1")
    gen = rng.generator()
    z = gen.standard_normal((n, e.dim))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    z *= gen.uniform(size=(n, 1)) ** (1.0 / e.dim)
    z *= e.sigmas
    return z


# Points per batch of verify_cover: its temporaries are a few batch-sized
# arrays, whatever the number of points.
_VERIFY_BATCH = 8192


def verify_cover(cover: BallCover, pts: np.ndarray) -> dict:
    """Check the cover on the points ``pts``, shape ``(n, d)``.

    Callers pass uniform points of the ellipsoid from
    :func:`sample_ellipsoid`, and may check several covers on one draw.
    Each point's exact Euclidean distance to its nearest center: rounding
    p / spacing gives p's nearest grid point, so when that point is a
    center it is p's nearest center.  Any other point searches the cells
    within a radius that starts at one spacing and grows by sqrt(2) until
    it holds a center, so the search stays within sqrt(2) times the
    answer.  Returns ``violations``, the number of points farther than
    ``cover.epsilon`` from every center, and ``max_dist``, the largest
    nearest-center distance; an empty cover gives ``len(pts)`` and ``inf``.
    A Monte-Carlo check: zero violations does not prove the cover.
    """
    if cover.size == 0:
        return {"violations": len(pts), "max_dist": float("inf")}
    tree = _CellTree(cover)
    violations, max_dist = 0, -math.inf
    for i in range(0, len(pts), _VERIFY_BATCH):
        batch = pts[i:i + _VERIFY_BATCH]
        sq, on_grid = tree.rounded(batch)
        rest = np.flatnonzero(~on_grid)
        sq[rest] = tree.search(batch[rest])
        nearest = np.sqrt(sq)
        violations += int(np.sum(nearest > cover.epsilon))
        max_dist = max(max_dist, float(nearest.max()))
    return {"violations": violations, "max_dist": max_dist}


class _CellTree:
    """The occupied cell prefixes of a cover, one sorted key array a level.

    The key of a prefix ``(c_0, ..., c_m)`` is its C-order index in the
    cells' bounding box, so the children of the prefix with key P are the
    level-(m+1) keys in ``[P * w, P * w + w)``, w the box's width on axis
    m+1.  Squared distances add one axis at a time in axis order, so every
    path gives the float of ``sum_k (p_k - spacing * c_k) ** 2``.
    """

    def __init__(self, cover: BallCover):
        self.s = cover.spacing
        self.lo = cover.cells.min(axis=0)
        self.width = cover.cells.max(axis=0) - self.lo + 1
        leaf = np.sort(np.ravel_multi_index(tuple((cover.cells - self.lo).T),
                                            self.width))
        self.keys = []
        for m in range(len(self.width)):
            key = leaf // math.prod(self.width[m + 1:].tolist())
            self.keys.append(key[np.r_[True, key[1:] != key[:-1]]])

    def rounded(self, pts):
        """Squared distance to the rounded point ``rint(p / spacing)``, and
        whether that point is a center."""
        grid = np.rint(pts / self.s)
        sq = np.zeros(len(pts))
        for m in range(pts.shape[1]):
            sq += (pts[:, m] - self.s * grid[:, m]) ** 2
        cell = grid - self.lo
        inside = np.flatnonzero(np.all((cell >= 0) & (cell < self.width), axis=1))
        key = np.ravel_multi_index(tuple(cell[inside].astype(np.intp).T), self.width)
        leaf = self.keys[-1]
        on_grid = np.zeros(len(pts), dtype=bool)
        on_grid[inside] = leaf[np.minimum(np.searchsorted(leaf, key), len(leaf) - 1)] == key
        return sq, on_grid

    def search(self, pts):
        """Squared distance to the nearest center: searches within squared
        radius spacing**2 * 2**k for k = 0, 1, ... until one holds a center."""
        sq = np.full(len(pts), np.inf)
        todo = np.arange(len(pts))
        bound = self.s ** 2
        while todo.size:
            sq[todo] = self._within(pts[todo], bound)
            todo = todo[np.isinf(sq[todo])]
            bound *= 2.0
        return sq

    def _within(self, pts, bound):
        """Squared distance to the nearest center if it is at most
        ``bound``, else inf.  Visits only the prefixes ``(c_0, ..., c_{d-2})``
        whose partial sum is at most ``bound`` (adding squares never lowers
        a float sum), then takes each one's center nearest on the last axis."""
        pt = np.arange(len(pts))
        node = np.zeros(len(pts), dtype=np.int64)
        acc = np.zeros(len(pts))
        for m, keys in enumerate(self.keys[:-1]):
            w = self.width[m]
            base = node * w
            x = pts[pt, m] / self.s - self.lo[m]
            reach = np.sqrt(bound - acc) / self.s
            # One spare cell each side absorbs rounding; the test below is exact.
            lo = np.clip(np.floor(x - reach) - 1, 0, w).astype(np.int64)
            hi = np.clip(np.ceil(x + reach) + 1, -1, w - 1).astype(np.int64)
            first = np.searchsorted(keys, base + lo)
            count = np.maximum(np.searchsorted(keys, base + hi, side="right") - first, 0)
            start = np.cumsum(count) - count
            child = np.arange(count.sum()) + np.repeat(first - start, count)
            pt, base, acc = (np.repeat(a, count) for a in (pt, base, acc))
            node = keys[child]
            acc = acc + self._step(pts[pt, m], m, base, node)
            keep = acc <= bound
            pt, node, acc = pt[keep], node[keep], acc[keep]
        # On the last axis the nearest center of a row is the first one at
        # or after the rounded coordinate or the last one before it.
        m, keys = len(self.keys) - 1, self.keys[-1]
        w = self.width[m]
        base = node * w
        want = np.clip(np.rint(pts[pt, m] / self.s) - self.lo[m], 0, w - 1)
        i = np.searchsorted(keys, base + want.astype(np.int64))
        cand = keys[np.clip(np.stack([i, i - 1]), 0, len(keys) - 1)]
        step = np.where((cand >= base) & (cand < base + w),
                        self._step(pts[pt, m], m, base, cand), np.inf)
        acc = acc + step.min(axis=0)
        best = np.full(len(pts), np.inf)
        np.minimum.at(best, pt, acc)
        best[best > bound] = np.inf
        return best

    def _step(self, coord, m, base, key):
        """(p_m - c_m) ** 2 for the child ``key`` of the prefix ``base / w``."""
        return (coord - self.s * (self.lo[m] + key - base)) ** 2
