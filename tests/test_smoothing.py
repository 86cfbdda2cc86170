import math

import numpy as np
import pytest

from effdim.precond import ErmProblem, Loss
from effdim.rng import RngStream
from effdim.smoothing import (
    DRAW_BLOCK,
    SmoothingConfig,
    _direction_scale,
    _max_row_norm,
    grad_estimator,
    rs_lockstep,
    smoothing_bounds,
)
from effdim.spectrum import CovarianceSpectrum, make_spectrum, sample_gaussian
from oracles import draw_block, rs_reference, smooth_value_estimate, theta_sequence


def test_theta_identity_and_envelope():
    th = theta_sequence(10_000)
    assert th[0] == 1.0
    for t in range(len(th) - 1):
        lhs = (1.0 - th[t + 1]) / th[t + 1] ** 2
        assert lhs * th[t] ** 2 == pytest.approx(1.0, abs=1e-12)
        assert th[t + 1] <= 2.0 / (t + 2) + 1e-15
    assert np.all(np.diff(th) < 0)


def test_shaped_directions_have_covariance_sqrt_sigma():
    # sigmas are standard deviations, so Sigma = diag(sigma^2) and the
    # shaped directions have covariance diag(sigma) = Sigma^{1/2}.
    sigmas = np.array([2.0, 1.0, 0.5, 0.25])
    m = 200_000
    z = (RngStream(41).generator().standard_normal((m, 4))
         * _direction_scale(CovarianceSpectrum(sigmas), 4))
    expected = np.diag(sigmas)
    # entrywise stderr of a zero-mean Gaussian sample covariance
    se = np.sqrt((np.outer(sigmas, sigmas) + expected**2) / m)
    assert np.all(np.abs(z.T @ z / m - expected) <= 5 * se)


def test_smooth_value_folded_gaussian():
    # f(x) = |x| in 1-d: E|x + g Z| at x=0 is g*sqrt(2/pi)
    f = lambda x: abs(float(x[0]))
    gamma = 0.7
    mean, se = smooth_value_estimate(f, np.zeros(1), gamma, 40_000, RngStream(3))
    assert mean == pytest.approx(gamma * math.sqrt(2.0 / math.pi), abs=4 * se)
    assert se > 0


def test_smooth_value_gamma_zero_is_exact():
    f = lambda x: float(x @ x)
    x = np.array([1.0, 2.0])
    mean, se = smooth_value_estimate(f, x, 0.0, 10, RngStream(1))
    assert (mean, se) == (5.0, 0.0)


def test_smooth_value_accepts_problem_and_direction():
    sp = make_spectrum("power_law", d=4, sigma1=1.0, alpha=1.0)
    A = sample_gaussian(sp, 32, RngStream(2)).rows
    prob = ErmProblem(A, np.zeros(32), Loss("hinge"), 0.0)
    mean, se = smooth_value_estimate(prob, np.zeros(4), 0.5, 2000,
                                     RngStream(4), direction=sp)
    assert mean > 0 and se > 0


def test_grad_estimator_unbiased_for_ridge():
    # ridge loss with b=0: single-sample smoothed gradient has mean
    # E_i E_Z a_i a_i^T (y + gamma Z) = (A'A/n) y  (Z is centered)
    sp = make_spectrum("isotropic", d=3, sigma1=1.0)
    A = sample_gaussian(sp, 16, RngStream(5)).rows
    prob = ErmProblem(A, np.zeros(16), Loss("ridge"), 0.0)
    y = np.array([1.0, -0.5, 0.25])
    expected = A.T @ A / 16 @ y
    idx, z = draw_block(RngStream(6).generator(), 4000, 16, 64, 3, None)
    est = np.mean([grad_estimator(prob, y[None], np.array([0.3]), idx[k][None],
                                  z[k][None])[0]
                   for k in range(4000)], axis=0)
    np.testing.assert_allclose(est, expected, atol=0.05)


def test_grad_estimator_variance_scales_inversely_with_batch():
    sp = make_spectrum("isotropic", d=4, sigma1=1.0)
    A = sample_gaussian(sp, 64, RngStream(7)).rows
    prob = ErmProblem(A, A @ np.ones(4) * 0.1, Loss("hinge"), 0.0)
    y = np.full(4, 0.2)
    root = RngStream(8)

    def variance(m):
        idx, z = draw_block(root.child(m).generator(), 800, 64, m, 4, None)
        draws = np.array([grad_estimator(prob, y[None], np.array([0.2]),
                                         idx[k][None], z[k][None])[0]
                          for k in range(800)])
        return draws.var(axis=0).sum()

    v_small, v_big = variance(4), variance(16)
    assert v_big < v_small / 2.5  # ~4x reduction expected, allow noise


def test_smoothing_bounds_shapes():
    iso = smoothing_bounds(0.1, 2.0, 16)
    assert iso["gap"] == pytest.approx(0.1 * 2.0 * 4.0)
    assert iso["smoothness"] == pytest.approx(20.0)
    sp = make_spectrum("power_law", d=16, sigma1=1.0, alpha=1.0)
    shaped = smoothing_bounds(0.1, 2.0, 16, spectrum=sp, n=256)
    assert shaped["gap"] > 0 and shaped["smoothness"] > 0
    with pytest.raises(ValueError):
        smoothing_bounds(0.1, 1.0, 16, spectrum=sp)  # missing n


def test_lockstep_reduces_hinge_gap():
    sp = make_spectrum("power_law", d=16, sigma1=1.0, alpha=1.0)
    root = RngStream(9)
    A = sample_gaussian(sp, 128, root.child(0)).rows
    xn = root.child(1).generator().standard_normal(16)
    xn *= 1.0 / np.linalg.norm(xn)
    prob = ErmProblem(A, A @ xn, Loss("hinge"), 0.0)
    cfg = SmoothingConfig(radius=2.0, iters=800, batch=8)
    run = rs_lockstep(prob, [root.child(2)], cfg, [None], 2e-2)[0][0]
    assert run.gaps[0] > 0.01
    assert min(run.gaps) <= 2e-2
    assert run.iters_to_tol == len(run.gaps) - 1  # stopped on tolerance
    # Shorter runs are prefixes of longer ones, so the last iterates of
    # runs stopped at several iters are iterates of the 500-step run.
    for iters in (1, 37, 100, 500):
        end = rs_lockstep(prob, [root.child(2)],
                          SmoothingConfig(radius=2.0, iters=iters, batch=8), [None])
        assert np.linalg.norm(end[0][0].x) <= 2.0 + 1e-9


def test_lockstep_is_deterministic():
    sp = make_spectrum("isotropic", d=6, sigma1=1.0)
    A = sample_gaussian(sp, 64, RngStream(10)).rows
    prob = ErmProblem(A, A @ np.full(6, 0.2), Loss("hinge"), 0.0)
    cfg = SmoothingConfig(radius=1.5, iters=50, batch=4)
    r1, r2 = (rs_lockstep(prob, [RngStream(11)], cfg, [None])[0][0] for _ in range(2))
    assert len(r1.gaps) == 51 and r1.gaps == r2.gaps
    np.testing.assert_array_equal(r1.x, r2.x)


def _hinge_problem(d, n, seed):
    sp = make_spectrum("power_law", d=d, sigma1=1.0, alpha=1.0)
    A = sample_gaussian(sp, n, RngStream(seed)).rows
    return sp, ErmProblem(A, A @ np.full(d, 0.3), Loss("hinge"), 0.0)


def test_isotropic_spectrum_run_equals_unshaped_run():
    # Common random numbers: both directions of a trial share the stream,
    # and shaped directions are the isotropic ones scaled by sqrt(sigma),
    # so sigma = 1 must reproduce the unshaped run bit for bit, whether the
    # two run in one call or each alone.
    _, prob = _hinge_problem(8, 64, 12)
    iso = make_spectrum("isotropic", d=8, sigma1=1.0)
    cfg = SmoothingConfig(radius=1.5, iters=200, batch=4, u=0.5)
    runs = [rs_lockstep(prob, [RngStream(13)], cfg, [direction], 1e-3)[0][0]
            for direction in (None, iso)]
    runs += rs_lockstep(prob, [RngStream(13)], cfg, [None, iso], 1e-3)[0]
    for run in runs[1:]:
        assert run.gaps == runs[0].gaps
        np.testing.assert_array_equal(run.x, runs[0].x)


def test_step_draws_do_not_depend_on_iters():
    # Whole blocks are drawn, so a shorter run is a prefix of a longer one;
    # 100 is not a multiple of the block length, so a short last block
    # would change step 100's draws.
    assert 100 % DRAW_BLOCK != 0
    sp, prob = _hinge_problem(8, 64, 14)
    short, long = (rs_lockstep(prob, [RngStream(15)],
                               SmoothingConfig(radius=1.5, iters=iters, batch=4),
                               [sp])[0][0]
                   for iters in (100, 500))
    assert len(short.gaps) == 101 and len(long.gaps) == 501
    assert short.gaps == long.gaps[:101]


def test_step_normals_equal_whole_block_draw():
    # The engine draws a block's indices whole, then its directions one
    # step at a time; the values, and the next block's indices, equal the
    # whole-block draw.
    n, m, d = 50, 4, 3
    gen = RngStream(16).generator()
    idx = gen.integers(0, n, (DRAW_BLOCK, m))
    steps = [gen.standard_normal((m, d)) for _ in range(DRAW_BLOCK)]
    next_idx = gen.integers(0, n, (DRAW_BLOCK, m))
    ref = RngStream(16).generator()
    ref_idx, ref_z = draw_block(ref, DRAW_BLOCK, n, m, d, None)
    ref_next, _ = draw_block(ref, DRAW_BLOCK, n, m, d, None)
    np.testing.assert_array_equal(idx, ref_idx)
    np.testing.assert_array_equal(np.stack(steps), ref_z)
    np.testing.assert_array_equal(next_idx, ref_next)


def test_block_stop_rule_truncates_at_first_crossing():
    # The stop rule is checked once per block: a run stopped by gap_tol
    # must equal the prefix of a run without it, both when the first
    # crossing falls on a block boundary and when it falls inside a block.
    sp, prob = _hinge_problem(8, 64, 18)

    def run(iters, gap_tol=None):
        cfg = SmoothingConfig(radius=1.5, iters=iters, batch=4)
        return rs_lockstep(prob, [RngStream(18)], cfg, [sp], gap_tol)[0][0]

    ref = run(200)
    assert ref.iters_to_tol is None
    for stop in (DRAW_BLOCK, 100):
        # A tolerance between the step's gap and every earlier gap (the
        # stop rule skips gap 0) makes ``stop`` the first crossing.
        earlier = min(ref.gaps[1:stop])
        assert ref.gaps[stop] < earlier
        tol = 0.5 * (ref.gaps[stop] + earlier)
        stopped = run(200, tol)
        assert stopped.gaps == ref.gaps[:stop + 1]
        assert stopped.iters_to_tol == stop
        np.testing.assert_array_equal(stopped.x, run(stop).x)
    # Gap 0 counts for iters_to_tol although the stop rule skips it: a run
    # that starts within tolerance has iters_to_tol 0 and runs on to its
    # first crossing at t >= 1.
    tol = 0.5 * (ref.gaps[0] + max(ref.gaps[1:]))
    first = next(t for t in range(1, len(ref.gaps)) if ref.gaps[t] <= tol)
    started = run(200, tol)
    assert ref.gaps[0] <= tol and started.iters_to_tol == 0
    assert started.gaps == ref.gaps[:first + 1]


def _two_trials():
    """Two hinge trials of 64 rows each, stacked into one data array; three
    configs of different radius and width; both directions."""
    sp, prob_a = _hinge_problem(8, 64, 20)
    _, prob_b = _hinge_problem(8, 64, 21)
    data = ErmProblem(np.vstack([prob_a.A, prob_b.A]),
                      np.concatenate([prob_a.b, prob_b.b]), Loss("hinge"), 0.0)
    cfgs = [SmoothingConfig(radius=radius, iters=300, batch=4, u=u)
            for radius, u in ((3.0, None), (1.0, 1.0), (1.5, 0.2))]
    return data, [prob_a, prob_b], [RngStream(22), RngStream(23)], cfgs, [None, sp]


def test_lockstep_equals_step_by_step_reference():
    # One engine call per config over 2 trials x 2 directions; over the
    # three calls the runs stop in different blocks and some never reach
    # gap_tol.  The iterates follow the reference loop's arithmetic on each
    # trial's rows; a block's gaps come from one matmul, so they may differ
    # in the last bits.
    data, trials, streams, cfgs, directions = _two_trials()
    stop_blocks = set()
    for cfg in cfgs:
        out = rs_lockstep(data, streams, cfg, directions, 0.03)
        assert [len(runs) for runs in out] == [len(directions)] * len(trials)
        stop_blocks |= {(len(run.gaps) - 1) // DRAW_BLOCK
                        for runs in out for run in runs}
        for prob, rng, runs in zip(trials, streams, out):
            for direction, run in zip(directions, runs):
                gaps, x = rs_reference(prob, cfg, direction, rng, 0.0, 0.03)
                assert len(run.gaps) == len(gaps)
                np.testing.assert_allclose(run.gaps, gaps, rtol=1e-12, atol=0.0)
                np.testing.assert_array_equal(run.x, x)
                assert run.iters_to_tol == next(
                    (t for t, gap in enumerate(run.gaps) if gap <= 0.03), None)
    assert len(stop_blocks) >= 4


def test_lockstep_run_equals_its_trial_alone():
    # out[k][j] is direction j run by itself on trial k's rows, bit for bit:
    # neither the other trials' rows nor the other runs of the batch change it.
    data, trials, streams, cfgs, directions = _two_trials()
    for cfg in cfgs:
        out = rs_lockstep(data, streams, cfg, directions, 0.03)
        for prob, rng, runs in zip(trials, streams, out):
            for direction, run in zip(directions, runs):
                alone = rs_lockstep(prob, [rng], cfg, [direction], 0.03)[0][0]
                assert run.gaps == alone.gaps
                np.testing.assert_array_equal(run.x, alone.x)


def test_lockstep_rejects_runs_of_different_shapes():
    _, prob = _hinge_problem(8, 64, 19)
    cfg = SmoothingConfig(radius=1.0, iters=5, batch=4)
    with pytest.raises(ValueError):
        rs_lockstep(prob, [RngStream(0), RngStream(1), RngStream(2)], cfg, [None])
    with pytest.raises(ValueError):
        rs_lockstep(prob, [RngStream(0)], cfg, [])


@pytest.mark.filterwarnings("error")
def test_lockstep_takes_row_norms_whose_squares_underflow():
    # Rows of norm ~1e-200 square to 0, yet L = max_i ||a_i|| of the
    # unregularized hinge loss is their norm, bit for bit the norm of the
    # rows scaled up by a power of two and back.  All-zero rows give L = 0:
    # the engine stops before any step instead of dividing by it.
    sp = make_spectrum("power_law", d=5, sigma1=1e-200, alpha=1.0)
    A = sample_gaussian(sp, 8, RngStream(24)).rows
    assert np.all(np.linalg.norm(A, axis=1) == 0)
    L = np.ldexp(np.linalg.norm(np.ldexp(A, 664), axis=1).max(), -664)
    assert L > 0 and _max_row_norm(A) == L
    prob = ErmProblem(A, A @ np.ones(5), Loss("hinge"), 0.0)
    cfg = SmoothingConfig(radius=1.0, iters=50, batch=4)
    for run in rs_lockstep(prob, [RngStream(25)], cfg, [None, sp])[0]:
        assert all(map(math.isfinite, run.gaps)) and np.isfinite(run.x).all()
    zero = ErmProblem(np.zeros_like(A), np.ones(8), Loss("hinge"), 0.0)
    with pytest.raises(OverflowError, match="Lipschitz constant .* is 0"):
        rs_lockstep(zero, [RngStream(25)], cfg, [None, sp])


def test_config_validation():
    with pytest.raises(ValueError):
        SmoothingConfig(radius=0.0, iters=10, batch=4)
    with pytest.raises(ValueError):
        SmoothingConfig(radius=1.0, iters=10, batch=4, u=-1.0)
