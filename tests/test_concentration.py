import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from effdim.concentration import (
    Nonlinearity,
    RefUnavailable,
    SearchConfig,
    bound_curve,
    empirical_sup_deviation,
    gaussian_moment_tensor,
    identity_fs,
    scaling_experiment,
    _loglog_slope,
    _moment_tensor,
    _product_means,
)
import effdim.concentration
from effdim.linalg import DimTooLarge
from effdim.rng import RngStream
from effdim.spectrum import CovarianceSpectrum, SampleMatrix, make_spectrum, \
    sample_gaussian
from oracles import sphere_net


SP5 = make_spectrum("isotropic", d=5, sigma1=1.0)


def net_sup_deviation(samples: SampleMatrix, fs, r, centered, ref,
                      net: np.ndarray) -> float:
    """Brute-force supremum over all r-tuples of net points (oracle, d <= 3)."""
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
            raise RefUnavailable("centered net oracle needs a reference")
    best = -np.inf
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
        best = max(best, float(vals.max()))
    if centered:
        best = max(best, 0.0)
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
    moment = np.einsum("ijkl,i,j,k,l->", gaussian_moment_tensor(sp, 4), *x)
    assert moment == pytest.approx(expected, abs=1e-14)
    assert np.einsum("ijk,i,j,k->", gaussian_moment_tensor(sp, 3), *x[:3]) == 0.0


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
    with pytest.raises(RefUnavailable):
        empirical_sup_deviation(sm, identity_fs(2), 2, centered=True, ref=None)
    with pytest.raises(RefUnavailable):
        empirical_sup_deviation(sm, [Nonlinearity("relu")] * 2, 2,
                                centered=True, ref=SP5)
    # identity factors centre only against the exact moment tensor
    with pytest.raises(RefUnavailable):
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


def test_gaussian_moment_tensor_values():
    sp = make_spectrum("custom", values=[2.0, 1.0])
    cov = sp.covariance()
    np.testing.assert_allclose(gaussian_moment_tensor(sp, 2), cov)
    assert not np.any(gaussian_moment_tensor(sp, 3))
    t4 = gaussian_moment_tensor(sp, 4)
    assert t4[0, 0, 0, 0] == pytest.approx(3 * cov[0, 0] ** 2)
    assert t4[0, 0, 1, 1] == pytest.approx(cov[0, 0] * cov[1, 1])
    t5 = gaussian_moment_tensor(sp, 5)
    assert t5.shape == (2,) * 5 and not np.any(t5)


def test_gaussian_moment_tensor_order6_wick_sum():
    sp = make_spectrum("custom", values=[2.0, 0.5])
    S = sp.covariance()
    t6 = gaussian_moment_tensor(sp, 6)
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
    # The identity route's block ascent treats both tensors as symmetric.
    A = data.draw(arrays(np.float64, (n, d), elements=st.floats(-10, 10)))
    values = data.draw(st.lists(st.floats(0.1, 10), min_size=d, max_size=d))
    sp = make_spectrum("custom", values=sorted(values, reverse=True))
    g = gaussian_moment_tensor(sp, p)
    # Rounding error scales with E_n[|a|^{⊗p}]: at odd p the signed sample
    # entries can cancel to almost zero.  The Gaussian entries are >= 0.
    for t, scale in ((_moment_tensor(A, p), _moment_tensor(np.abs(A), p)), (g, g)):
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


def test_moment_tensor_dimension_limit():
    sm = SampleMatrix(np.ones((3, 2)))
    with pytest.raises(DimTooLarge):  # 2**26 entries
        empirical_sup_deviation(sm, identity_fs(26), 26, centered=False)
    with pytest.raises(DimTooLarge):
        gaussian_moment_tensor(make_spectrum("isotropic", d=2, sigma1=1.0), 26)


def test_tensor_deviation_p2_matches_matrix_route():
    sm = sample_gaussian(SP5, 300, RngStream(31))
    est = empirical_sup_deviation(sm, identity_fs(2), 2, centered=True, ref=SP5,
                                  rng=RngStream(32))
    M = sm.rows.T @ sm.rows / sm.n - np.eye(5)
    assert est.value == pytest.approx(np.linalg.norm(M, 2), rel=1e-8)


def test_bound_curves_positive_and_monotone_in_lambda():
    sp = make_spectrum("power_law", d=10, sigma1=2.0, alpha=1.0)
    for theorem in ("1", "2"):
        b0 = bound_curve(theorem, sp, 1000, 3, lam=1.0)
        b1 = bound_curve(theorem, sp, 1000, 3, lam=4.0)
        assert 0 < b0 < b1


def test_tightness_probe_single_sample_is_exact():
    sm = SampleMatrix(np.array([[3.0, 4.0]]))
    # ||a_1|| = 5, value at x = a_1/||a_1|| is ||a_1||^r
    assert tightness_probe(sm, 2) == pytest.approx(25.0, rel=1e-12)
    assert tightness_probe(sm, 3) == pytest.approx(125.0, rel=1e-12)


def test_loglog_slope_recovers_power_law():
    ns = [100, 200, 400, 800]
    means = [3.0 * n**-0.5 for n in ns]
    slope, stderr = _loglog_slope(ns, means)
    assert slope == pytest.approx(-0.5, abs=1e-12)
    assert stderr == pytest.approx(0.0, abs=1e-10)
    # No fit, and so no JSON-invalid NaN, from one n or a mean <= 0.
    assert _loglog_slope(ns[:1], means[:1]) == (None, None)
    assert _loglog_slope(ns, [0.0] + means[1:]) == (None, None)


def test_scaling_experiment_pairing_and_jobs_invariance():
    spectra = {
        "iso": make_spectrum("isotropic", d=4, sigma1=1.0),
        "pl": make_spectrum("power_law", d=4, sigma1=1.0, alpha=1.0),
    }
    kwargs = dict(n_grid=[32, 64], trials=30, r=2,
                  search=SearchConfig(restarts=4, iters=30), rng=RngStream(41))
    r1 = scaling_experiment(spectra, jobs=1, **kwargs)
    r2 = scaling_experiment(spectra, jobs=4, **kwargs)
    assert r1["rows"] == r2["rows"]
    # Paired trials scale the same draws: at r = 2 the sigma1 = 2 deviation
    # is exactly 4 times the sigma1 = 1 one, trial by trial.
    scaled = {"a": make_spectrum("isotropic", d=4, sigma1=1.0),
              "b": make_spectrum("isotropic", d=4, sigma1=2.0)}
    rows = scaling_experiment(scaled, jobs=1, **kwargs)["rows"]
    by_spectrum = {sid: [row["value"] for row in rows if row["spectrum_id"] == sid]
                   for sid in scaled}
    np.testing.assert_allclose(by_spectrum["b"], 4.0 * np.asarray(by_spectrum["a"]),
                               rtol=1e-12)
    with pytest.raises(ValueError):
        scaling_experiment(spectra, [32], 5, 2, rng=RngStream(1))
