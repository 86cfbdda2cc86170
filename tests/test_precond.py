from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from effdim.concentration import bound_curve
from effdim.linalg import LimitExceeded
from effdim.precond import (
    ErmProblem,
    Loss,
    hessian_deviation_sup,
    kappa_bound,
    mu_formula,
    newton_minimize,
    precond_bgd,
    relative_condition,
    solve_erm,
    vanilla_gd,
)
from effdim.rng import RngStream
from effdim.spectrum import make_spectrum, sample_gaussian
from oracles import bregman_div


def _small_problem(loss_kind="logistic", n=80, d=6, lam=0.1, seed=1):
    sp = make_spectrum("power_law", d=d, sigma1=1.0, alpha=0.5)
    root = RngStream(seed)
    A = sample_gaussian(sp, n, root.child(0)).rows
    gen = root.child(1).generator()
    xn = gen.standard_normal(d)
    xn /= np.linalg.norm(xn)
    if loss_kind == "logistic":
        b = np.where(A @ xn >= 0, 1.0, -1.0)
    else:
        b = A @ xn + 0.05 * gen.standard_normal(n)
    return ErmProblem(A, b, Loss(loss_kind), lam)


def test_gradient_matches_finite_differences():
    for kind in ("logistic", "ridge"):
        p = _small_problem(kind)
        gen = RngStream(5).generator()
        x = gen.standard_normal(p.d) * 0.3
        g = p.grad(x)
        h = 1e-6
        for k in range(p.d):
            e = np.zeros(p.d)
            e[k] = h
            fd = (p.value(x + e) - p.value(x - e)) / (2 * h)
            assert g[k] == pytest.approx(fd, abs=1e-5)


def test_hessian_matches_finite_differences():
    p = _small_problem("logistic")
    gen = RngStream(6).generator()
    x = gen.standard_normal(p.d) * 0.3
    H = p.hessian(x)
    h = 1e-5
    for k in range(p.d):
        e = np.zeros(p.d)
        e[k] = h
        fd = (p.grad(x + e) - p.grad(x - e)) / (2 * h)
        np.testing.assert_allclose(H[:, k], fd, atol=1e-6)


def test_logistic_curvature_constants():
    loss = Loss("logistic")
    assert loss.second(np.array([0.0]), np.array([1.0]))[0] == pytest.approx(0.25)
    z = np.linspace(-10, 10, 2001)
    b = np.ones_like(z)
    h = 1e-5
    third = (loss.second(z + h, b) - loss.second(z - h, b)) / (2 * h)
    assert np.abs(third).max() == pytest.approx(loss.hess_lipschitz, rel=1e-3)


def _hessians(p, points):
    """The full Hessians of p at each row of points, stacked."""
    return np.stack([p.hessian(x) for x in points])


def _data_hessians(p, points):
    """The data Hessians of p at each row of points, stacked."""
    return np.stack([p.data_hessian(x) for x in points])


def test_relative_condition_identity_and_scaling():
    p = _small_problem("logistic")
    probes = RngStream(7).generator().standard_normal((10, p.d)) * 0.5
    HF = _hessians(p, probes)

    cond = relative_condition(HF, HF)
    assert cond["L_rel"] == pytest.approx(1.0, abs=1e-10)
    assert cond["sigma_rel"] == pytest.approx(1.0, abs=1e-10)

    cond2 = relative_condition(HF, 2.0 * HF)
    assert cond2["L_rel"] == pytest.approx(0.5, abs=1e-10)
    assert cond2["sigma_rel"] == pytest.approx(0.5, abs=1e-10)


def test_relative_condition_is_the_extreme_over_probes():
    p = _small_problem("logistic")
    aux = _small_problem("logistic", seed=2)
    probes = RngStream(7).generator().standard_normal((10, p.d)) * 0.5
    HF, HP = _hessians(p, probes), _hessians(aux, probes)
    each = [relative_condition(HF[i:i + 1], HP[i:i + 1]) for i in range(len(probes))]
    assert relative_condition(HF, HP) == {
        "L_rel": max(c["L_rel"] for c in each),
        "sigma_rel": min(c["sigma_rel"] for c in each)}


def test_relative_condition_matches_generalized_eigenvalues():
    gen = RngStream(8).generator()
    for d in (2, 5, 12):
        for _ in range(10):
            B, C = gen.standard_normal((2, d, d))
            HF = B @ B.T + 0.1 * np.eye(d)
            HP = C @ C.T + 0.1 * np.eye(d)
            cond = relative_condition(HF[None], HP[None])
            # oracle: the eigenvalues of HP^{-1} HF, with no symmetric reduction
            eig = np.sort(np.linalg.eigvals(np.linalg.solve(HP, HF)).real)
            assert cond["L_rel"] == pytest.approx(eig[-1], rel=1e-10)
            assert cond["sigma_rel"] == pytest.approx(eig[0], rel=1e-10)


def test_relative_condition_rejects_indefinite_phi():
    p = _small_problem("logistic")
    HF = _hessians(p, np.zeros((2, p.d)))
    for last in (-1.0, 0.0):  # indefinite, singular
        bad = np.stack([np.eye(p.d), np.diag([1.0] * (p.d - 1) + [last])])
        with pytest.raises(LimitExceeded, match="Hessian not positive definite"):
            relative_condition(HF, bad)


_POINT = st.lists(st.floats(-5.0, 5.0), min_size=6, max_size=6).map(np.array)
_LOG_SCALE = st.floats(-4.0, 1.0).map(lambda e: 10.0**e)  # 1e-4 .. 10


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(["logistic", "ridge"]), lam=_LOG_SCALE,
       mu=st.just(0.0) | _LOG_SCALE, x=_POINT, y=_POINT)
def test_bregman_divergence_properties(kind, lam, mu, x, y):
    aux = _small_problem(kind, lam=lam)
    phi = replace(aux, lam=aux.lam + mu)
    scale = max(1.0, abs(phi.value(x)), abs(phi.value(y)),
                abs(float(phi.grad(y) @ (x - y))))
    assert bregman_div(phi, x, y) >= -1e-12 * scale
    assert bregman_div(phi, x, x) == 0.0


def test_newton_solves_quadratic_in_one_step():
    H = np.diag([4.0, 1.0])
    b = np.array([1.0, -2.0])
    x = newton_minimize(lambda x: 0.5 * x @ H @ x - b @ x,
                        lambda x: H @ x - b, lambda x: H,
                        np.zeros(2))
    np.testing.assert_allclose(x, np.linalg.solve(H, b), atol=1e-12)


def test_newton_reports_failure_on_singular_hessian():
    with pytest.raises(LimitExceeded, match="Newton: Hessian factorization failed"):
        newton_minimize(lambda x: x[0], lambda x: np.array([1.0]),
                        lambda x: np.zeros((1, 1)), np.zeros(1))


def test_kappa_bound_rejects_a_nonpositive_lam():
    for lam in (0.0, -1.0):
        with pytest.raises(ValueError, match="requires lam > 0"):
            kappa_bound(lam, 0.1)


def test_solve_erm_reaches_stationarity():
    p = _small_problem("ridge")
    x = solve_erm(p)
    assert np.linalg.norm(p.grad(x)) <= 1e-9
    with pytest.raises(ValueError, match="unknown loss 'hinge'"):
        Loss("hinge")


def test_hessian_deviation_detects_known_gap():
    # ridge data Hessians are x-independent: deviation = ||A'A/n - B'B/m||_op
    pa = _small_problem("ridge", seed=2)
    pb = _small_problem("ridge", seed=3)
    expected = np.linalg.norm(pa.A.T @ pa.A / pa.n - pb.A.T @ pb.A / pb.n, 2)
    zero = np.zeros((1, pa.d))
    got = hessian_deviation_sup(_data_hessians(pa, zero), _data_hessians(pb, zero))
    assert got == pytest.approx(expected, rel=1e-10)


def _zero_and_sphere_points(d, k, rng):
    """x = 0 and k uniform points on the unit sphere."""
    draws = rng.generator().standard_normal((k, d))
    draws /= np.linalg.norm(draws, axis=1, keepdims=True)
    return np.vstack([np.zeros(d), draws])


def test_hessian_deviation_is_the_max_over_points():
    pa = _small_problem("logistic", seed=2)
    pb = _small_problem("logistic", seed=3)
    points = _zero_and_sphere_points(pa.d, 8, RngStream(5))
    mu = hessian_deviation_sup(_data_hessians(pa, points), _data_hessians(pb, points))
    brute = max(np.abs(np.linalg.eigvalsh(pa.data_hessian(x) - pb.data_hessian(x))).max()
                for x in points)
    assert mu == pytest.approx(brute, rel=1e-12)
    empty = np.zeros((0, pa.d, pa.d))
    with pytest.raises(ValueError):
        hessian_deviation_sup(empty, empty)
    with pytest.raises(ValueError):
        hessian_deviation_sup(_data_hessians(pa, points), _data_hessians(pb, points[:1]))


def test_mu_formula_decreases_in_n():
    sp = make_spectrum("power_law", d=10, sigma1=1.0, alpha=1.0)
    vals = [mu_formula(sp, n, n, 0.1, 0.25) for n in (100, 1000, 10000)]
    assert vals[0] > vals[1] > vals[2] > 0


def test_mu_formula_covers_the_covariance_gap_for_ridge():
    # ridge has no x-dependent deviation; mu is the sample-covariance term
    sp = make_spectrum("power_law", d=10, sigma1=1.0, alpha=1.0)
    loss = Loss("ridge")
    mu = mu_formula(sp, 500, 300, loss.hess_lipschitz, loss.second_max)
    assert mu == bound_curve("1", sp, 500, 2) + bound_curve("1", sp, 300, 2)
    assert mu > 0


class _CountingGrad:
    """Forwards to an ErmProblem and counts its full-gradient calls."""

    def __init__(self, problem):
        self.problem = problem
        self.grad_calls = 0

    def __getattr__(self, name):
        return getattr(self.problem, name)

    def grad(self, x):
        self.grad_calls += 1
        return self.problem.grad(x)


def test_rounds_count_full_gradients():
    p = _small_problem("logistic", lam=0.05)
    aux = _small_problem("logistic", lam=0.05, seed=2)
    f_star = p.value(solve_erm(p))
    runs = [  # (optimizer, iteration cap, whether the gap is reached first)
        (lambda q, cap: precond_bgd(q, replace(aux, lam=aux.lam + 0.05), f_star=f_star,
                                    gap_tol=1e-8, iters=cap), 100, True),
        (lambda q, cap: vanilla_gd(q, f_star=f_star, gap_tol=1e-8, iters=cap),
         7, False),
    ]
    for optimize, cap, reached in runs:
        q = _CountingGrad(p)
        run = optimize(q, cap)
        assert run.rounds == q.grad_calls == len(run.gaps) - 1
        assert (run.gaps[-1] <= 1e-8) is reached
        assert (run.rounds < cap) is reached


def test_precond_bgd_with_exact_phi_is_newton_fast():
    p = _small_problem("logistic", lam=0.05)
    f_star = p.value(solve_erm(p))
    phi = replace(p, lam=p.lam + 0.0)  # mu = 0, phi = F: one Bregman step solves it
    run = precond_bgd(p, phi, iters=5, f_star=f_star, gap_tol=1e-12)
    assert run.gaps[-1] <= 1e-12
    assert run.rounds <= 2


def test_precond_beats_vanilla_gd_in_rounds():
    p = _small_problem("logistic", n=400, d=8, lam=0.01, seed=12)
    aux = _small_problem("logistic", n=400, d=8, lam=0.01, seed=13)
    points = _zero_and_sphere_points(p.d, 4, RngStream(14))
    mu = hessian_deviation_sup(_data_hessians(p, points), _data_hessians(aux, points))
    phi = replace(aux, lam=aux.lam + mu)
    f_star = p.value(solve_erm(p))
    run_p = precond_bgd(p, phi, iters=100, f_star=f_star, gap_tol=1e-8)
    run_g = vanilla_gd(p, iters=100_000, f_star=f_star, gap_tol=1e-8)
    assert run_p.gaps[-1] <= 1e-8
    assert run_g.gaps[-1] <= 1e-8
    assert run_p.rounds < run_g.rounds


def test_gap_contracts_at_relative_condition_rate():
    p = _small_problem("logistic", n=400, d=8, lam=0.01, seed=12)
    aux = _small_problem("logistic", n=400, d=8, lam=0.01, seed=13)
    points = _zero_and_sphere_points(p.d, 4, RngStream(14))
    mu = hessian_deviation_sup(_data_hessians(p, points), _data_hessians(aux, points))
    phi = replace(aux, lam=aux.lam + mu)
    f_star = p.value(solve_erm(p))
    run = precond_bgd(p, phi, iters=30, f_star=f_star, gap_tol=1e-11)
    rate = 1.0 - 1.0 / kappa_bound(aux.lam, mu)
    for g0, g1 in zip(run.gaps, run.gaps[1:]):
        if g0 <= 1e-11:
            break
        assert g1 <= g0 * rate + 1e-13
