import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import effdim.entropy
from effdim.entropy import (
    BallCover,
    DimTooLarge,
    build_cover,
    eps_entropy_bound,
    kb_mb,
    m_eps,
    sample_ellipsoid,
    unit_entropy_bound,
    verify_cover,
)
from effdim.rng import RngStream
from effdim.spectrum import CovarianceSpectrum, make_spectrum


def test_kb_mb_hand_values():
    e = CovarianceSpectrum(np.array([4.0, 2.0, 0.5]))
    kb, mb = kb_mb(e)
    assert mb == 2
    assert kb == pytest.approx(math.log(8.0), abs=1e-14)
    kb0, mb0 = kb_mb(CovarianceSpectrum(np.array([0.9, 0.5])))
    assert (kb0, mb0) == (0.0, 0)


def test_unit_entropy_bound_hand_value():
    e = CovarianceSpectrum(np.array([4.0, 2.0, 0.5]))
    bound = unit_entropy_bound(e, c=2.0)
    expected_corr = math.log(3) + math.sqrt(math.log(4) * 2 * math.log(3))
    assert bound.kb == pytest.approx(math.log(8.0), abs=1e-14)
    assert bound.correction == pytest.approx(expected_corr, abs=1e-12)
    assert bound.total == pytest.approx(math.log(8.0) + 2.0 * expected_corr, abs=1e-10)


def test_unit_entropy_bound_degenerate_dim_one():
    e = CovarianceSpectrum(np.array([5.0]))
    bound = unit_entropy_bound(e)
    assert bound.correction == 0.0
    assert bound.total == pytest.approx(math.log(5.0))


def test_m_eps_counts():
    s = make_spectrum("custom", values=[2.0, 1.0, 0.5, 0.25])
    assert m_eps(s, 0.6) == 1
    assert m_eps(s, 0.4) == 2
    assert m_eps(s, 0.1) == 4


def test_eps_entropy_bound_monotone_and_meps_inequality():
    gen = RngStream(31).generator()
    eps_grid = np.exp(np.linspace(math.log(0.98), math.log(0.01), 50))
    for _ in range(30):
        d = int(gen.integers(2, 40))
        sig = np.sort(gen.uniform(0.01, 10.0, d))[::-1]
        s = make_spectrum("custom", values=sig)
        for r in (1, 2, 3):
            vals = [eps_entropy_bound(s, eps, r=r) for eps in eps_grid]
            assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))


def test_eps_entropy_bound_raises_when_meps_inequality_fails(monkeypatch):
    # The inequality is a theorem; force a failure by under-reporting d_eff.
    import effdim.entropy

    monkeypatch.setattr(effdim.entropy, "effective_dimension", lambda s, r: 1.0)
    s = make_spectrum("custom", values=[2.0, 1.0, 0.5])
    with pytest.raises(ArithmeticError):
        eps_entropy_bound(s, 0.1)


def test_eps_entropy_bound_at_dim_one_is_ln_inv_eps(tmp_path):
    # A segment needs about 1/eps balls: the bound is ln(1/eps), and a d = 1
    # run says nothing on stderr.
    s = make_spectrum("isotropic", d=1, sigma1=1.0)
    for eps in (1.0, 0.5, 0.01):
        assert eps_entropy_bound(s, eps, c=3.0) == math.log(1.0 / eps)
    cfg = tmp_path / "c.json"
    cfg.write_text('{"spectrum": {"kind": "isotropic", "d": 1}, "eps_grid": [0.5, 0.1]}')
    code = "import sys; from effdim.cli import main; sys.exit(main(sys.argv[1:]))"
    src = str(Path(effdim.entropy.__file__).parents[1])
    done = subprocess.run([sys.executable, "-c", code, "entropy", "--config", str(cfg),
                           "--out", str(tmp_path / "o")],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert done.returncode == 0
    assert done.stderr == ""


def test_build_cover_validity_and_negative_control():
    axes = CovarianceSpectrum(np.array([4.0, 2.0, 0.5]))
    root = RngStream(17)
    cover = build_cover(axes, 1.0)
    pts = sample_ellipsoid(axes, 20_000, root.child(1))
    report = verify_cover(cover, pts)
    assert report["violations"] == 0
    assert report["max_dist"] <= 1.0
    # negative control: strip the cap of centers with the largest first
    # coordinate (uniform deletion cannot damage a grid cover with this
    # much slack, so the control removes a contiguous extreme region)
    keep = np.sort(np.argsort(cover.centers[:, 0])[: int(cover.size * 0.9)])
    damaged = replace(cover, cells=cover.cells[keep])
    bad = verify_cover(damaged, pts)
    assert bad["violations"] > 0


@settings(max_examples=100, deadline=None)
@given(axes=st.lists(st.floats(0.25, 4.0), min_size=1, max_size=3),
       eps=st.floats(0.3, 1.0), seed=st.integers(0, 2**32))
def test_build_cover_is_a_cover(axes, eps, seed):
    e = CovarianceSpectrum(np.sort(axes)[::-1])
    try:
        cover = build_cover(e, eps)
    except DimTooLarge:
        assume(False)
    report = verify_cover(cover, sample_ellipsoid(e, 2000, RngStream(seed)))
    assert report["violations"] == 0
    assert report["max_dist"] <= eps


def test_build_cover_dim_cap():
    import effdim.linalg

    assert DimTooLarge is effdim.linalg.DimTooLarge  # one declared-limit class
    with pytest.raises(DimTooLarge):
        build_cover(CovarianceSpectrum(np.ones(6)), 0.5)


def test_sample_ellipsoid_inside():
    axes = CovarianceSpectrum(np.array([3.0, 1.0, 0.2]))
    pts = sample_ellipsoid(axes, 5000, RngStream(23))
    q = np.sum((pts / axes.sigmas) ** 2, axis=1)
    assert np.all(q <= 1.0 + 1e-9)
    assert q.max() > 0.5  # actually fills the body, not just the middle


def nearest_center_oracle(pts, centers):
    """min_j ||p - c_j|| by direct differences, one point at a time."""
    return np.array([np.sqrt(((centers - p) ** 2).sum(axis=1)).min() for p in pts])


def test_verify_cover_matches_brute_force_oracle():
    axes = CovarianceSpectrum(np.array([4.0, 2.0, 0.5]))
    cover = build_cover(axes, 1.0)
    keep = np.sort(np.argsort(cover.centers[:, 0])[: int(cover.size * 0.9)])
    damaged = replace(cover, cells=cover.cells[keep])
    pts = sample_ellipsoid(axes, 3000, RngStream(41))
    for c in (cover, damaged):
        report = verify_cover(c, pts)
        nearest = nearest_center_oracle(pts, c.centers)
        assert report["violations"] == int(np.sum(nearest > c.epsilon))
        assert abs(report["max_dist"] - nearest.max()) <= 1e-12
    assert report["violations"] > 0  # the damaged cover is caught


# Largest axis / eps per dimension: every grid has at most 9^5 cells.
_AXIS_OVER_EPS = {1: 20.0, 2: 8.0, 3: 4.0, 4: 2.5, 5: 1.6}


@settings(max_examples=150, deadline=None)
@given(ratios=st.integers(1, 5).flatmap(lambda d: st.lists(
           st.floats(0.1, _AXIS_OVER_EPS[d]), min_size=d, max_size=d)),
       eps=st.floats(0.4, 1.5), kind=st.sampled_from(["cap", "thinned", "empty"]),
       seed=st.integers(0, 2**32))
def test_verify_cover_nearest_center_is_exact_on_grid_subsets(ratios, eps, kind, seed):
    # Rounding finds a point's nearest center only when its nearest grid
    # point is kept; every subset must still give the oracle's distances.
    e = CovarianceSpectrum(eps * np.sort(ratios)[::-1])
    cover = build_cover(e, eps)
    gen = RngStream(seed).generator()
    if kind == "cap":
        order = np.argsort(cover.centers[:, 0])
        keep = np.sort(order[: gen.integers(1, cover.size + 1)])
    elif kind == "thinned":
        keep = np.flatnonzero(gen.uniform(size=cover.size) < gen.uniform(0.05, 1.0))
    else:
        keep = np.empty(0, dtype=int)
    subset = replace(cover, cells=cover.cells[keep])
    pts = sample_ellipsoid(e, 300, RngStream(seed).child(1))
    report = verify_cover(subset, pts)
    if subset.size == 0:
        assert report == {"violations": len(pts), "max_dist": float("inf")}
        return
    nearest = nearest_center_oracle(pts, subset.centers)
    assert report["violations"] == int(np.sum(nearest > eps))
    assert abs(report["max_dist"] - nearest.max()) <= 1e-12


def meshgrid_cover_cells(axes: np.ndarray, eps: float) -> np.ndarray:
    """Every grid cell of the bounding box in meshgrid "ij" order, kept iff
    its per-axis closest point lies in the ellipsoid (the whole-grid form
    of build_cover's test)."""
    s = eps / math.sqrt(len(axes))
    counts = [int(math.floor((b + s / 2) / s)) for b in axes]
    mesh = np.meshgrid(*[np.arange(-k, k + 1) for k in counts], indexing="ij")
    cells = np.stack([m.ravel() for m in mesh], axis=1)
    closest = np.maximum(np.abs(s * cells) - s / 2, 0.0)
    return cells[np.sum((closest / axes) ** 2, axis=1) <= 1.0]


@settings(max_examples=150, deadline=None)
@given(ratios=st.integers(1, 5).flatmap(lambda d: st.lists(
           st.floats(0.1, _AXIS_OVER_EPS[d]), min_size=d, max_size=d)),
       eps=st.floats(0.4, 1.5), on_lattice=st.booleans())
def test_build_cover_cells_equal_the_meshgrid_formula(ratios, eps, on_lattice):
    axes = eps * np.sort(ratios)[::-1]
    if on_lattice:
        # Axes at half-integer multiples of the spacing put cells exactly
        # on the ellipsoid's boundary.
        s = eps / math.sqrt(len(axes))
        axes = s * (np.floor(axes / s) + 0.5)
    cells = build_cover(CovarianceSpectrum(axes), eps).cells
    expected = meshgrid_cover_cells(axes, eps)
    assert cells.dtype == expected.dtype
    np.testing.assert_array_equal(cells, expected)


def test_verify_cover_empty_cover_fails_every_point():
    axes = CovarianceSpectrum(np.array([2.0, 1.0]))
    empty = BallCover(0.5, 0.5 / math.sqrt(2), np.empty((0, 2), dtype=int))
    assert verify_cover(empty, sample_ellipsoid(axes, 100, RngStream(3))) == {
        "violations": 100, "max_dist": float("inf")}


def test_sample_ellipsoid_radial_law():
    # Uniform in the ellipsoid iff q = p / b is uniform in the unit ball:
    # P(||q|| <= t) = t^d, and at d = 3 each coordinate of the direction
    # q / ||q|| is uniform on [-1, 1] (Archimedes).
    d, n = 3, 20_000
    axes = CovarianceSpectrum(np.array([3.0, 1.0, 0.2]))
    q = sample_ellipsoid(axes, n, RngStream(29)) / axes.sigmas
    radius = np.linalg.norm(q, axis=1)
    direction = q / radius[:, None]
    for t in (0.3, 0.5, 0.7, 0.9):
        for hits, p in ((radius <= t, t**d), (direction[:, 0] <= t, (1.0 + t) / 2.0)):
            stderr = math.sqrt(p * (1.0 - p) / n)
            assert abs(np.mean(hits) - p) <= 4.0 * stderr
