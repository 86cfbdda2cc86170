import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from effdim.concentration import (
    MAX_SIGN_ROWS,
    Nonlinearity,
    SearchConfig,
    bound_curve,
    empirical_sup_deviation,
    _gaussian_product_moment_grad,
    _product_means,
)
import effdim.concentration
from effdim.linalg import LimitExceeded
from effdim.rng import RngStream
from effdim.spectrum import CovarianceSpectrum, SampleMatrix, make_spectrum, \
    sample_gaussian
from oracles import basis_moment_tensor, dense_block_ascent, gaussian_moment_tensor, \
    moment_tensor, sphere_net, wick_grad_by_pairings


SP5 = make_spectrum("isotropic", d=5, sigma1=1.0)


def identity_fs(r):
    return [Nonlinearity("identity")] * r


def net_sup_deviation(samples: SampleMatrix, fs, r, centered, ref,
                      net: np.ndarray) -> float:
    """Brute-force supremum of |E_n - E| over all r-tuples of net points
    (oracle, d <= 3), with E = 0 when uncentered."""
    A = samples.rows
    F = [f(A @ net.T) for f in fs]  # (n, N) each
    ref_mean = None  # reference expectation at every r-tuple of net points
    Fref = None
    if centered:
        if isinstance(ref, CovarianceSpectrum):
            ref_mean = gaussian_moment_tensor(ref, r)
            for _ in range(r):
                ref_mean = np.tensordot(ref_mean, net, axes=([0], [1]))
        elif isinstance(ref, SampleMatrix):
            Fref = [f(ref.rows @ net.T) for f in fs]
        else:
            raise ValueError("centered net oracle needs a reference")
    best = 0.0
    N = net.shape[0]
    # The last factor is vectorized: one (n,) @ (n, N) product per head tuple.
    for head in itertools.product(range(N), repeat=r - 1):
        w = np.prod([F[k][:, c] for k, c in enumerate(head)], axis=0)
        vals = w @ F[-1] / len(A)
        if ref_mean is not None:
            vals = vals - ref_mean[head]
        elif Fref is not None:
            wref = np.prod([Fref[k][:, c] for k, c in enumerate(head)], axis=0)
            vals = vals - wref @ Fref[-1] / len(Fref[-1])
        best = max(best, float(np.abs(vals).max()))
    return best


def tightness_probe(samples: SampleMatrix, r: int) -> float:
    """Uncentered product mean at the fixed direction a_1 / ||a_1||."""
    if r < 2:
        raise ValueError("r must be >= 2")
    A = samples.rows
    x = A[0] / np.linalg.norm(A[0])
    return float(np.mean((A @ x) ** r))


def test_nonlinearities_are_lipschitz_and_zero_at_zero():
    z = np.linspace(-3, 3, 601)
    for f in (Nonlinearity("identity"), Nonlinearity("relu"),
              Nonlinearity("clip", 1.5)):
        assert f(np.zeros(1))[0] == 0.0
        diffs = np.abs(np.diff(f(z))) / np.diff(z)
        assert np.all(diffs <= 1.0 + 1e-12)
        assert np.all((f.deriv(z) >= 0) & (f.deriv(z) <= 1))


def test_isserlis_moment_matches_wick_by_hand():
    sp = make_spectrum("custom", values=[2.0, 1.0])
    cov = sp.covariance()
    x = [np.array([1.0, 0.0]), np.array([0.0, 1.0]),
         np.array([1.0, 1.0]), np.array([1.0, -1.0])]
    # E[(a x1)(a x2)(a x3)(a x4)] = s12 s34 + s13 s24 + s14 s23
    def s(u, v):
        return u @ cov @ v
    expected = s(x[0], x[1]) * s(x[2], x[3]) + s(x[0], x[2]) * s(x[1], x[3]) \
        + s(x[0], x[3]) * s(x[1], x[2])
    # Its gradient in x1 is Sigma x2 s34 + Sigma x3 s24 + Sigma x4 s23.
    grad = cov @ x[1] * s(x[2], x[3]) + cov @ x[2] * s(x[1], x[3]) \
        + cov @ x[3] * s(x[1], x[2])
    X = np.array(x)[None]
    g = _gaussian_product_moment_grad(X, X @ cov, 0)[0]
    np.testing.assert_allclose(g, grad, rtol=0, atol=1e-14)
    assert x[0] @ g == pytest.approx(expected, abs=1e-14)
    # Three factors have no pairing: every gradient is zero.
    for k in range(3):
        assert not np.any(_gaussian_product_moment_grad(X[:, :3], X[:, :3] @ cov, k))


def test_wick_sign_tables_cost_what_they_hold():
    # r copies of one unit vector x and Sigma = I: G is all ones, and the
    # gradient is (r - 1)!! x.
    def grad(r):
        X = np.full((2, r, 3), 1 / math.sqrt(3))
        return _gaussian_product_moment_grad(X, X, 0)

    # Odd r has no pairing: zeros without a table, which at r = 41 would
    # hold 2**40 rows.
    assert grad(41).shape == (2, 3) and not np.any(grad(41))
    assert 2**13 == MAX_SIGN_ROWS  # r = 14 runs
    assert grad(14) == pytest.approx(np.full((2, 3), 13 * 11 * 9 * 7 * 5 * 3 / math.sqrt(3)),
                                     rel=1e-12)
    # The refusal comes before the table: r = 64 would need 2**63 rows.
    for r, rows in ((16, 32768), (64, 2**63)):
        with pytest.raises(LimitExceeded, match=f"Wick sign table at r {r}: {rows} rows "
                           f"exceed the cap of 8192"):
            grad(r)


@pytest.mark.parametrize("d", [5, 200])
@pytest.mark.parametrize("r", [2, 4, 6, 8, 10])
def test_wick_sign_sum_agrees_with_the_pairing_sum(r, d):
    # The sign sum alternates over 2**(r - 1) rows, so its rounding error
    # may grow with r; the engine's docstring states the same tolerance,
    # 2**r * 1e-13 relative to ||g||, per restart and block.
    gen = np.random.default_rng(1000 * r + d)
    X = gen.standard_normal((8, r, d))
    X /= np.linalg.norm(X, axis=2, keepdims=True)
    SX = X * gen.uniform(0.1, 2.0, d)
    rtol = 2**r * 1e-13
    full = []
    for k in range(r):
        g = _gaussian_product_moment_grad(X, SX, k)
        want = wick_grad_by_pairings(X, SX, k)
        scale = np.linalg.norm(want, axis=1)
        assert np.all(np.linalg.norm(g - want, axis=1) <= rtol * scale), k
        # E[prod_j (a . x_j)] is linear in x_k: x_k . g_k is the full moment.
        full.append((np.einsum("rd,rd->r", X[:, k], g), scale))
    moment = np.einsum("rd,rd->r", X[:, 0], wick_grad_by_pairings(X, SX, 0))
    for value, scale in full:
        assert np.all(np.abs(value - moment) <= rtol * scale)


def test_centered_r2_matches_operator_norm():
    sm = sample_gaussian(SP5, 400, RngStream(3))
    est = empirical_sup_deviation(sm, identity_fs(2), 2, centered=True, ref=SP5,
                                  search=SearchConfig(restarts=8, iters=60),
                                  rng=RngStream(4))
    M = sm.rows.T @ sm.rows / sm.n - np.eye(5)
    assert est.value == pytest.approx(np.linalg.norm(M, 2), abs=1e-8)


def test_uncentered_r2_matches_operator_norm():
    sm = sample_gaussian(SP5, 400, RngStream(9))
    est = empirical_sup_deviation(sm, identity_fs(2), 2, centered=False,
                                  search=SearchConfig(restarts=8, iters=60),
                                  rng=RngStream(4))
    M = sm.rows.T @ sm.rows / sm.n
    assert est.value == pytest.approx(np.linalg.norm(M, 2), abs=1e-8)


def test_net_oracle_agrees_at_low_dimension():
    sp = make_spectrum("custom", values=[1.5, 0.5])
    sm = sample_gaussian(sp, 200, RngStream(11))
    net = sphere_net(2, 0.15)
    fs = [Nonlinearity("relu"), Nonlinearity("clip", 2.0)]
    ref = sample_gaussian(sp, 100_000, RngStream(12))
    oracle = net_sup_deviation(sm, fs, 2, True, ref, net)
    est = empirical_sup_deviation(sm, fs, 2, centered=True, ref=ref,
                                  search=SearchConfig(restarts=16, iters=200),
                                  rng=RngStream(13))
    # net undershoots by O(resolution * Lipschitz); ascent can land either side
    assert est.value >= oracle - 0.05
    assert est.value <= oracle + 0.05


SP1 = make_spectrum("isotropic", d=1, sigma1=1.0)


def product_mean_at(rows, fs, x):
    """Mean over ``rows`` of prod_k f_k(a . x_k) at d = 1, for each x_k."""
    return float(np.mean(np.prod([f(rows[:, 0] * xk) for f, xk in zip(fs, x)], axis=0)))


@pytest.mark.parametrize("restarts", [2, 4])
def test_relu_at_d1_is_the_exact_sup_of_the_absolute_deviation(restarts):
    # At d = 1 the unit ball is [-1, 1]**2 and relu x relu is positively
    # homogeneous in each factor, so the supremum of |E_n - E_ref| sits at
    # one of the four sign patterns.  Restarts 0 and 1 start at (s, s) and
    # (-s, -s); the mixed patterns are 0, as relu(a) relu(-a) = 0.
    fs = [Nonlinearity("relu")] * 2
    ref = sample_gaussian(SP1, 4096, RngStream(52))
    search = SearchConfig(restarts=restarts, iters=20)
    for trial in range(30):
        sm = sample_gaussian(SP1, 64, RngStream(51, trial))
        want = max(abs(product_mean_at(sm.rows, fs, x) - product_mean_at(ref.rows, fs, x))
                   for x in itertools.product((1.0, -1.0), repeat=2))
        est = empirical_sup_deviation(sm, fs, 2, centered=True, ref=ref, search=search,
                                      rng=RngStream(53, trial))
        assert est.value == pytest.approx(want, rel=1e-12, abs=0), trial
        # Swapping the data and the reference negates the deviation.
        swapped = empirical_sup_deviation(ref, fs, 2, centered=True, ref=sm,
                                          search=search, rng=RngStream(53, trial))
        assert swapped.value == pytest.approx(want, rel=1e-12, abs=0), trial


def test_clip_at_d1_searches_the_ball_not_the_sphere():
    # Clip is not homogeneous, so |E_n - E_ref| can peak inside the ball
    # [-1, 1]**2, above every corner (the sphere at d = 1).  dev moves by
    # at most L = B (E_n|a| + E_ref|a|) per unit of each coordinate, so the
    # supremum over the ball lies within L * h of the max over a grid of
    # spacing h.  Every d = 1 start is a corner, and the search is a lower
    # estimate: with n = 32 and B = 0.5 the data's kinks make corners local
    # maxima, and on 13 of these 30 trials it ends more than L * h below
    # the grid maximum.  At n = 1024 and B = 1 it does not.
    f = Nonlinearity("clip", 1.0)
    ref = sample_gaussian(SP1, 4096, RngStream(62))
    grid = np.linspace(-1.0, 1.0, 401)
    Fref = f(ref.rows @ grid[None])
    corners = ([0, 0, -1, -1], [0, -1, 0, -1])
    above_corners = 0
    for trial in range(30):
        sm = sample_gaussian(SP1, 1024, RngStream(61, trial))
        F = f(sm.rows @ grid[None])
        dev = np.abs(F.T @ F / sm.n - Fref.T @ Fref / ref.n)
        err = f.bound * (np.abs(sm.rows).mean() + np.abs(ref.rows).mean()) * (grid[1] - grid[0])
        est = empirical_sup_deviation(sm, [f, f], 2, centered=True, ref=ref,
                                      rng=RngStream(63, trial))
        assert abs(est.value - dev.max()) <= err, trial
        above_corners += est.value > dev[corners].max()
    assert above_corners >= 1


@pytest.mark.parametrize("centered", [True, False], ids=["centred", "uncentred"])
@pytest.mark.parametrize("kinds", [("relu", "relu", "relu"), ("identity", "relu", "relu")])
@pytest.mark.parametrize("scale, r", [(1e160, 2), (1e110, 3)])
def test_nonlinear_deviation_that_is_not_finite_raises(scale, r, kinds, centered):
    # At 1e160 the squared row norms overflow, so the longest-row starts
    # would normalise to 0; at 1e110 they do not, but the product means of
    # three factors are inf or NaN (and so is the default step's
    # sigma_1**3).  Each raises, whatever the budget.
    fs = [Nonlinearity(kind) for kind in kinds[:r]]
    sm = SampleMatrix(sample_gaussian(SP5, 16, RngStream(71)).rows * scale)
    ref = sample_gaussian(SP5, 64, RngStream(72)) if centered else None
    for restarts, step in itertools.product((1, 2, 8), (None, 0.1)):
        with np.errstate(all="ignore"), pytest.raises(OverflowError):
            empirical_sup_deviation(sm, fs, r, centered=centered, ref=ref,
                                    search=SearchConfig(restarts, 3, step),
                                    rng=RngStream(73))


def direct_product_means(rows, X, fs):
    """Unchunked oracle: each restart's product mean over all rows and its
    gradient, with the other factors' product taken by np.delete."""
    R, r, d = X.shape
    means = np.empty(R)
    grads = np.empty((R, r, d))
    for j in range(R):
        U = rows @ X[j].T  # (n, r)
        F = np.column_stack([f(U[:, k]) for k, f in enumerate(fs)])
        means[j] = np.mean(np.prod(F, axis=1))
        for k, f in enumerate(fs):
            others = np.prod(np.delete(F, k, axis=1), axis=1)
            grads[j, k] = rows.T @ (others * f.deriv(U[:, k])) / len(rows)
    return means, grads


MIXED_FACTORS = [
    [Nonlinearity("relu"), Nonlinearity("clip", 0.7)],
    [Nonlinearity("identity"), Nonlinearity("relu")],
    [Nonlinearity("clip", 1.2), Nonlinearity("identity"), Nonlinearity("relu")],
    [Nonlinearity("relu")] * 3,
]


def _unit_directions(gen, R, r, d):
    X = gen.standard_normal((R, r, d))
    return X / np.linalg.norm(X, axis=2, keepdims=True)


@pytest.mark.parametrize("fs", MIXED_FACTORS, ids=lambda fs: "-".join(f.kind for f in fs))
@pytest.mark.parametrize("chunks", [0.5, 1, 2, 2.3])
def test_product_means_match_the_direct_formula(fs, chunks):
    # N runs below, equal to, a multiple of and not a multiple of the
    # kernel's chunk of rows.
    R, r, d = 2, len(fs), 3
    chunk = effdim.concentration._PROJ_CHUNK_ENTRIES // (R * r)
    gen = np.random.default_rng(7)
    rows = gen.standard_normal((int(chunk * chunks), d)) * [1.5, 1.0, 0.5]
    X = _unit_directions(gen, R, r, d)
    means, grads = _product_means(rows, X, fs)
    want_means, want_grads = direct_product_means(rows, X, fs)
    np.testing.assert_allclose(means, want_means, rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(grads, want_grads, rtol=1e-12, atol=1e-14)
    only_means, none = _product_means(rows, X, fs, grads=False)
    assert none is None
    np.testing.assert_array_equal(only_means, means)


@pytest.mark.parametrize("fs", MIXED_FACTORS, ids=lambda fs: "-".join(f.kind for f in fs))
def test_product_mean_gradients_match_central_differences(fs):
    R, r, d = 2, len(fs), 3
    gen = np.random.default_rng(9)
    rows = gen.standard_normal((40, d))
    X = _unit_directions(gen, R, r, d)
    h = 1e-6
    # Away from kinks: no projection lies within 10 h ||a||_1 of 0 or a
    # clip level, so each mean is affine in any one coordinate of X over
    # [-h, h] and the central difference is exact up to rounding.
    kinks = [0.0] + [sign * f.bound for f in fs if f.kind == "clip" for sign in (1, -1)]
    U = np.einsum("nd,jkd->njk", rows, X)
    gap = min(np.abs(U - kink).min() for kink in kinks)
    assert gap > 10 * h * np.abs(rows).sum(axis=1).max()
    _, grads = _product_means(rows, X, fs)
    fd = np.empty_like(grads)
    for idx in np.ndindex(X.shape):
        step = np.zeros_like(X)
        step[idx] = h
        up, _ = _product_means(rows, X + step, fs, grads=False)
        down, _ = _product_means(rows, X - step, fs, grads=False)
        fd[idx] = (up[idx[0]] - down[idx[0]]) / (2 * h)
    np.testing.assert_allclose(grads, fd, rtol=1e-6, atol=1e-9)


def test_centered_requires_reference():
    sm = sample_gaussian(SP5, 50, RngStream(1))
    with pytest.raises(ValueError, match="reference"):
        empirical_sup_deviation(sm, identity_fs(2), 2, centered=True, ref=None)
    with pytest.raises(ValueError, match="reference"):
        empirical_sup_deviation(sm, [Nonlinearity("relu")] * 2, 2,
                                centered=True, ref=SP5)
    # identity factors centre only against the exact Gaussian moments
    with pytest.raises(ValueError, match="reference"):
        empirical_sup_deviation(sm, identity_fs(2), 2, centered=True,
                                ref=sample_gaussian(SP5, 100, RngStream(2)))


def test_prefix_monotonicity_in_restarts():
    sm = sample_gaussian(SP5, 100, RngStream(21))
    fs = [Nonlinearity("relu")] * 3
    ref = sample_gaussian(SP5, 100_000, RngStream(22))
    vals = []
    for restarts in (2, 4, 8):
        est = empirical_sup_deviation(sm, fs, 3, centered=True, ref=ref,
                                      search=SearchConfig(restarts=restarts, iters=50),
                                      rng=RngStream(23))
        vals.append(est.value)
    assert vals[0] <= vals[1] + 1e-12 <= vals[2] + 2e-12


@pytest.mark.parametrize("d, n", [(1, 16), (2, 8), (5, 32)])
def test_one_step_of_one_restart_reaches_the_longest_row(d, n):
    # Restart 0 starts both factors at a_i / ||a_i|| for the longest row a_i,
    # where the uncentered relu x relu mean is at least ||a_i||**2 / n; a
    # random start can sit where the product and its gradient vanish
    # (x_1 = -x_2 at d = 1) and report 0.
    sp = make_spectrum("power_law", d=d, sigma1=1.0, alpha=1.0)
    for trial in range(20):
        sm = sample_gaussian(sp, n, RngStream(31, trial))
        floor = float(np.max(np.sum(sm.rows**2, axis=1))) / n
        est = empirical_sup_deviation(sm, [Nonlinearity("relu")] * 2, 2,
                                      centered=False,
                                      search=SearchConfig(restarts=1, iters=1),
                                      rng=RngStream(32, trial))
        assert est.value >= floor * (1 - 1e-12), (d, n, trial)


# The library's Wick gradient at every basis tuple, and the dense oracle.
MOMENT_TENSORS = [basis_moment_tensor, gaussian_moment_tensor]


def test_gaussian_moment_tensor_values():
    sp = make_spectrum("custom", values=[2.0, 1.0])
    cov = sp.covariance()
    for moments in MOMENT_TENSORS:
        np.testing.assert_allclose(moments(sp, 2), cov)
        assert not np.any(moments(sp, 3))
        t4 = moments(sp, 4)
        assert t4[0, 0, 0, 0] == pytest.approx(3 * cov[0, 0] ** 2)
        assert t4[0, 0, 1, 1] == pytest.approx(cov[0, 0] * cov[1, 1])
        t5 = moments(sp, 5)
        assert t5.shape == (2,) * 5 and not np.any(t5)


def test_gaussian_moment_tensor_order6_wick_sum():
    sp = make_spectrum("custom", values=[2.0, 0.5])
    S = sp.covariance()
    for moments in MOMENT_TENSORS:
        t6 = moments(sp, 6)
        # diagonal: E[(a_i)^6] = 15 Sigma_ii^3, i.e. 15 sigma^6 for the marginal
        for i in range(2):
            assert t6[(i,) * 6] == pytest.approx(15 * S[i, i] ** 3, rel=1e-13)
        assert t6[(0,) * 6] == pytest.approx(15 * 2.0**6, rel=1e-14)
        # E[a0^2 a1^4] = Sigma_00 * 3 Sigma_11^2: a0 pairs with a0, a1^4 in 3 ways
        assert t6[0, 1, 1, 0, 1, 1] == pytest.approx(
            3 * S[0, 0] * S[1, 1] ** 2, rel=1e-13)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(1, 20), d=st.integers(1, 4),
       p=st.sampled_from([2, 3, 4]))
def test_moment_tensors_are_symmetric(data, n, d, p):
    # The dense oracle of the sample moments, and the library's Wick
    # gradient, do not depend on the order of the factors.
    A = data.draw(arrays(np.float64, (n, d), elements=st.floats(-10, 10)))
    values = data.draw(st.lists(st.floats(0.1, 10), min_size=d, max_size=d))
    sp = make_spectrum("custom", values=sorted(values, reverse=True))
    g = basis_moment_tensor(sp, p)
    # Rounding error scales with E_n[|a|^{⊗p}]: at odd p the signed sample
    # entries can cancel to almost zero.  The Gaussian entries are >= 0.
    for t, scale in ((moment_tensor(A, p), moment_tensor(np.abs(A), p)), (g, g)):
        tol = 1e-12 * np.abs(scale).max()
        for perm in itertools.permutations(range(p)):
            assert np.all(np.abs(t - t.transpose(perm)) <= tol)


@pytest.mark.parametrize("r,res", [(3, 0.1), (4, 0.15)])
def test_identity_block_ascent_agrees_with_net_oracle(r, res):
    sp = make_spectrum("custom", values=[1.5, 0.5])
    sm = sample_gaussian(sp, 100, RngStream(14))
    oracle = net_sup_deviation(sm, identity_fs(r), r, True, sp, sphere_net(2, res))
    est = empirical_sup_deviation(sm, identity_fs(r), r, centered=True, ref=sp,
                                  search=SearchConfig(restarts=8, iters=50),
                                  rng=RngStream(15))
    # The multilinear form moves by at most ||D|| * sum_k ||x_k - y_k||, so
    # the net value is within a factor (1 - r * res) of the supremum.
    assert oracle - 1e-12 <= est.value <= oracle / (1 - r * res)


@pytest.mark.parametrize("centered", [True, False], ids=["centred", "uncentred"])
@pytest.mark.parametrize("r, d", [(3, 10), (4, 8), (6, 4)])
def test_identity_block_ascent_matches_the_dense_oracle(r, d, centered):
    # Same starts and updates as block ascent on the dense deviation tensor,
    # so the two agree to rounding.  The oracle also takes |D| at the starts,
    # which the library skips; the one-update budgets show it never counts.
    sp = make_spectrum("power_law", d=d, sigma1=1.0, alpha=1.0)
    for trial in range(3):
        sm = sample_gaussian(sp, 256, RngStream(41, trial))
        dev = moment_tensor(sm.rows, r)
        if centered:
            dev -= gaussian_moment_tensor(sp, r)
        for restarts, iters in ((8, 100), (1, 1), (2, 1)):
            want = dense_block_ascent(dev, restarts, iters, RngStream(42, trial))
            est = empirical_sup_deviation(sm, identity_fs(r), r, centered=centered,
                                          ref=sp, search=SearchConfig(restarts, iters),
                                          rng=RngStream(42, trial))
            assert est.value == pytest.approx(want, rel=1e-12, abs=0), \
                (trial, restarts, iters, est.value, want)


def test_identity_block_ascent_runs_past_the_dense_cap():
    # d**r = 1.6e9 entries: no dense tensor of this order is ever formed.
    sp = make_spectrum("power_law", d=200, sigma1=1.0, alpha=1.0)
    sm = sample_gaussian(sp, 256, RngStream(43))
    est = empirical_sup_deviation(sm, identity_fs(4), 4, centered=True, ref=sp,
                                  rng=RngStream(44))
    assert 0 < est.value < math.inf


def test_bound_curves_positive():
    sp = make_spectrum("power_law", d=10, sigma1=2.0, alpha=1.0)
    for theorem in ("1", "2"):
        assert bound_curve(theorem, sp, 1000, 3) > 0


def test_tightness_probe_single_sample_is_exact():
    sm = SampleMatrix(np.array([[3.0, 4.0]]))
    # ||a_1|| = 5, value at x = a_1/||a_1|| is ||a_1||^r
    assert tightness_probe(sm, 2) == pytest.approx(25.0, rel=1e-12)
    assert tightness_probe(sm, 3) == pytest.approx(125.0, rel=1e-12)
