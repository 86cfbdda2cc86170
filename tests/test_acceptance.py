"""Acceptance suite: one check per shipped guarantee.

Each test prints a single PASS/FAIL line (run pytest with -s or rely on
captured output on failure).  Budgets are generous but every test is
expected to run well inside its stated wall-clock limit.  A criterion on
a subcommand's output calls that subcommand's runner (``effdim.cli.run_*``),
so it checks the pipeline the CLI runs, not a copy of it.
"""

import json
import math
import time

import numpy as np

from effdim.cli import main as cli_main, run_cover, run_precondition, run_smooth
from effdim.concentration import (
    SearchConfig,
    _moment_tensor,
    gaussian_moment_tensor,
    scaling_experiment,
)
from effdim.entropy import eps_entropy_bound, kb_mb, m_eps, unit_entropy_bound
from effdim.precond import ErmProblem, Loss
from effdim.rng import RngStream
from effdim.smoothing import smoothing_bounds
from effdim.spectrum import (
    CovarianceSpectrum,
    effective_dimension,
    make_spectrum,
    max_norm_bound,
    sample_gaussian,
)
from oracles import smooth_value_estimate, theta_sequence

# Criterion 10's smoothing problem; criterion 10b runs it at six trials
# over eight seeds, and criterion 11 through the CLI.
SMOOTH_CONFIG = {
    "spectrum": {"kind": "power_law", "d": 64, "sigma1": 1.0, "alpha": 1.0},
    "n": 512, "radius": 2.0, "iters": 5000, "batch": 16, "trials": 10,
    "gap_tol": 0.01, "directions": ["iso", "data"],
}


def empirical_mean_tensor(A: np.ndarray, p: int):
    """Mean and entrywise MC variance of a_i^{⊗p}; (a^{⊗p})**2 is (a**2)^{⊗p}."""
    mean = _moment_tensor(A, p)
    var = np.maximum(_moment_tensor(A**2, p) - mean**2, 0.0)
    return mean, var


def report(num, name, ok, detail=""):
    print(f"[ACCEPTANCE] criterion {num} ({name}): {'PASS' if ok else 'FAIL'}"
          + (f" — {detail}" if detail else ""))
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_1_effective_dimension():
    t0 = time.time()
    s = make_spectrum("custom", values=[2.0, 1.0])
    ok = abs(effective_dimension(s, 1) - 1.25) <= 1e-12
    ok &= abs(effective_dimension(s, 2) - 1.5) <= 1e-12
    for d in (1, 7, 50):
        iso = make_spectrum("isotropic", d=d, sigma1=0.3)
        ok &= all(abs(effective_dimension(iso, r) - d) <= 1e-9 * d
                  for r in (1, 2, 5))
    gen = RngStream(101).generator()
    worst = 0.0
    for _ in range(1000):
        d = int(gen.integers(1, 51))
        sp = CovarianceSpectrum(np.sort(gen.uniform(1e-3, 1e3, d))[::-1])
        vals = [effective_dimension(sp, r) for r in (1, 2, 3, 4, 6, 10)]
        worst = max(worst, max((a - b) for a, b in zip(vals, vals[1:])))
        ok &= all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))
        ok &= 1 - 1e-12 <= vals[0] and vals[-1] <= d + 1e-9
    elapsed = time.time() - t0
    ok &= elapsed < 1.0
    report(1, "effective dimension", ok,
           f"worst monotonicity violation {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_entropy_bounds():
    t0 = time.time()
    e = CovarianceSpectrum(np.array([4.0, 2.0, 0.5]))
    kb, mb = kb_mb(e)
    ok = mb == 2 and abs(kb - math.log(8.0)) <= 1e-10
    bound = unit_entropy_bound(e, c=1.0)
    expected = math.log(8.0) + math.log(3.0) + math.sqrt(
        math.log(4.0) * 2 * math.log(3.0))
    ok &= abs(bound.total - expected) <= 1e-10

    gen = RngStream(202).generator()
    eps_grid = np.exp(np.linspace(math.log(0.99), math.log(0.005), 50))
    for _ in range(100):
        d = int(gen.integers(2, 50))
        sp = CovarianceSpectrum(np.sort(gen.uniform(1e-2, 1e2, d))[::-1])
        for r in (1, 2, 3):
            deff = effective_dimension(sp, r)
            vals = [bound for _, bound in eps_entropy_bound(sp, eps_grid, r=r)]
            for eps in eps_grid:
                ok &= m_eps(sp, eps) <= 1 + (deff - 1) * eps ** (-2.0 / r) + 1e-9
            ok &= all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))
    elapsed = time.time() - t0
    ok &= elapsed < 10.0
    report(2, "entropy bounds", ok, f"{elapsed:.1f}s")


def test_criterion_3_cover_validity():
    t0 = time.time()
    _, outputs = run_cover({"axes": [4.0, 2.0, 0.5], "eps": 1.0, "n_samples": 100_000,
                            "delete_fraction": 0.1}, 303, 1)
    cover, bad = outputs["cover.csv"]  # the cover, then its negative control
    volumetric = sum(math.log(b) for b in (4.0, 2.0) )  # ln(b_i/eps), b_i > eps
    ok = cover["violations"] == 0
    ok &= math.log(cover["size"]) >= volumetric
    ok &= bad["violations"] > 0
    elapsed = time.time() - t0
    ok &= elapsed < 60.0
    report(3, "cover validity", ok,
           f"size {cover['size']}, control violations {bad['violations']}, {elapsed:.1f}s")


def test_criterion_4_deviation_scaling():
    t0 = time.time()
    spectra = {"iso": make_spectrum("isotropic", d=5, sigma1=1.0)}
    res = scaling_experiment(
        spectra, [64, 128, 256, 512, 1024, 2048, 4096], 200, 2,
        search=SearchConfig(restarts=4, iters=40), rng=RngStream(42), jobs=4,
    )
    slope = res["slopes"]["iso"]["slope"]
    elapsed = time.time() - t0
    ok = -0.6 <= slope <= -0.4 and elapsed < 600.0
    report(4, "centered deviation n^{-1/2} scaling", ok,
           f"slope {slope:.4f}, {elapsed:.0f}s")


def test_criterion_5_spectrum_shape_gap():
    t0 = time.time()
    spectra = {
        "iso": make_spectrum("isotropic", d=40, sigma1=1.0),
        "pl": make_spectrum("power_law", d=40, sigma1=1.0, alpha=1.0),
    }
    res = scaling_experiment(
        spectra, [256], 100, 2,
        search=SearchConfig(restarts=4, iters=40), rng=RngStream(55), jobs=4,
    )
    mean_iso = res["slopes"]["iso"]["means"][0][1]
    mean_pl = res["slopes"]["pl"]["means"][0][1]
    elapsed = time.time() - t0
    ok = mean_pl <= 0.8 * mean_iso and elapsed < 600.0
    report(5, "power-law spectrum shrinks deviation", ok,
           f"iso {mean_iso:.4f} vs power-law {mean_pl:.4f}, {elapsed:.0f}s")


def test_criterion_6_tensor_moments():
    t0 = time.time()
    sp = make_spectrum("custom", values=[1.5, 1.0, 0.5])
    sm = sample_gaussian(sp, 1_000_000, RngStream(606))
    ok = True
    for p in (3, 4):
        emp, var = empirical_mean_tensor(sm.rows, p)
        exact = gaussian_moment_tensor(sp, p)
        stderr = np.sqrt(var / sm.n) + 1e-12
        worst = float(np.max(np.abs(emp - exact) / stderr))
        ok &= worst <= 5.0
    elapsed = time.time() - t0
    ok &= elapsed < 120.0
    report(6, "Gaussian tensor moments", ok,
           f"worst |z|-score {worst:.2f} (p=4), {elapsed:.0f}s")


def test_criterion_7_max_norm_bound():
    t0 = time.time()
    sp = make_spectrum("isotropic", d=10, sigma1=1.0)
    trials, n, d = 10_000, 100, 10
    root = RngStream(707)
    max_sq = np.concatenate([
        (root.child(chunk).generator().standard_normal((100, n, d))**2)
        .sum(axis=2).max(axis=1) for chunk in range(100)])
    ok = True
    detail = []
    for delta in (0.1, 0.01):
        bound = max_norm_bound(sp, n, delta)
        phat = int(np.sum(max_sq > bound)) / trials
        slack = 2.576 * math.sqrt(delta * (1 - delta) / trials)
        ok &= phat <= delta + slack
        # A bound may hold by being loose: it must also stay within 5x the
        # empirical 1 - delta quantile of max_i ||a_i||^2.
        ratio = bound / np.quantile(max_sq, 1 - delta)
        ok &= ratio <= 5.0
        detail.append(f"delta={delta}: {phat:.4f} <= {delta + slack:.4f}, "
                      f"bound/quantile {ratio:.2f} <= 5")
    elapsed = time.time() - t0
    ok &= elapsed < 60.0
    report(7, "max-norm tail bound", ok, "; ".join(detail) + f", {elapsed:.0f}s")


def test_criterion_8_preconditioning():
    t0 = time.time()
    config = {
        "spectrum": {"kind": "power_law", "d": 20, "sigma1": 1.0, "alpha": 1.0},
        "n": 2000, "n_aux": 2000, "loss": "logistic", "lam": 1e-2, "probes": 50,
    }
    # The per-round contraction, on a run down to 1e-12; gradient descent
    # takes one round.
    cond, outputs = run_precondition(
        {**config, "gap_tol": 1e-12, "iters": 200, "gd_iters": 1}, 808, 1)
    ok = cond["L_rel"] <= 1.0 + 1e-9
    ok &= cond["sigma_rel"] >= 1.0 / cond["kappa"] - 1e-9

    gaps = [row["gap"] for row in outputs["precondition.csv"]
            if row["method"] == "precond_bgd"]
    rate_cap = 1.0 - 1.0 / cond["kappa"] + 0.05
    worst_ratio = 0.0
    for g0, g1 in zip(gaps, gaps[1:]):
        if g0 <= 1e-11:
            break
        worst_ratio = max(worst_ratio, g1 / g0)
    ok &= worst_ratio <= rate_cap

    runs, _ = run_precondition(
        {**config, "gap_tol": 1e-6, "iters": 500, "gd_iters": 500_000}, 808, 1)
    ok &= runs["reached_precond"] and runs["reached_gd"]
    ok &= runs["rounds_precond"] < runs["rounds_gd"]
    elapsed = time.time() - t0
    ok &= elapsed < 300.0
    report(8, "statistical preconditioning", ok,
           f"mu {cond['mu']:.4f}, kappa {cond['kappa']:.3f}, L_rel {cond['L_rel']:.6f}, "
           f"worst ratio {worst_ratio:.3f} <= {rate_cap:.3f}, rounds "
           f"{runs['rounds_precond']} vs {runs['rounds_gd']}, {elapsed:.0f}s")


def test_criterion_9_smoothing_bounds():
    t0 = time.time()
    th = theta_sequence(10_000)
    rel = max(abs((1.0 - th[t + 1]) / th[t + 1] ** 2 * th[t] ** 2 - 1.0)
              for t in range(len(th) - 1))
    ok = rel <= 1e-12

    # isotropic sandwich f <= f^gamma <= f + gamma L sqrt(d) for f = ||.||
    d = 16
    gamma = 0.3
    gen = RngStream(909).generator()
    f = lambda x: float(np.linalg.norm(x))
    for k in range(20):
        x = gen.standard_normal(d) * gen.uniform(0.1, 2.0)
        mean, se = smooth_value_estimate(f, x, gamma, 4000, RngStream(910).child(k))
        ok &= mean + 3 * se >= f(x)
        ok &= mean - 3 * se <= f(x) + gamma * math.sqrt(d)

    # shaped gap bound: one constant frozen at the largest width must
    # dominate the measured gap across the whole width grid
    sp = make_spectrum("power_law", d=16, sigma1=1.0, alpha=1.0)
    root = RngStream(911)
    A = sample_gaussian(sp, 256, root.child(0)).rows
    xn = root.child(1).generator().standard_normal(16)
    xn /= np.linalg.norm(xn)
    prob = ErmProblem(A, A @ xn, Loss("hinge"), 0.0)
    gammas = [0.05, 0.1, 0.2, 0.4, 0.8]
    gaps, ses = [], []
    for k, g in enumerate(gammas):
        mean, se = smooth_value_estimate(prob, np.zeros(16), g, 3000,
                                         root.child(2 + k), direction=sp)
        gaps.append(mean - prob.value(np.zeros(16)))
        ses.append(se)
    bounds = [smoothing_bounds(g, 1.0, 16, spectrum=sp, n=256)["gap"]
              for g in gammas]
    c_fit = gaps[-1] / bounds[-1]
    ok &= all(gaps[k] <= c_fit * bounds[k] + 3 * ses[k]
              for k in range(len(gammas)))
    elapsed = time.time() - t0
    ok &= elapsed < 120.0
    report(9, "smoothing schedules and bounds", ok,
           f"theta residual {rel:.1e}, fitted constant {c_fit:.3f}, {elapsed:.0f}s")


def test_criterion_10_shaped_smoothing_wins():
    t0 = time.time()
    _, outputs = run_smooth(SMOOTH_CONFIG, 1010, 1)
    hits = {"iso": [], "data": []}
    for row in outputs["smooth.csv"]:
        hit = row["iters_to_tol"]
        hits[row["direction"]].append(5001 if hit < 0 else hit)
    med_iso = float(np.median(hits["iso"]))
    med_data = float(np.median(hits["data"]))
    elapsed = time.time() - t0
    ok = med_data < med_iso and elapsed < 600.0
    report(10, "shaped smoothing beats isotropic", ok,
           f"median iters iso {med_iso:.0f} vs shaped {med_data:.0f}, {elapsed:.0f}s")


def test_shaped_smoothing_wins_across_seeds():
    # Criterion 10's claim over seeds 1000-1007 x 6 trials (48 pairs),
    # through the CLI runner and its stream layout.
    t0 = time.time()
    config = {**SMOOTH_CONFIG, "trials": 6}
    iters = config["iters"]
    logs = []
    for seed in range(1000, 1008):
        _, outputs = run_smooth(config, seed, 1)
        hits = {(row["trial"], row["direction"]): row["iters_to_tol"]
                for row in outputs["smooth.csv"]}
        hits = {key: iters + 1 if hit < 0 else hit for key, hit in hits.items()}
        logs += [math.log(hits[t, "data"] / hits[t, "iso"]) for t in range(6)]
    logs = np.array(logs)
    mean = float(logs.mean())
    stderr = float(logs.std(ddof=1) / math.sqrt(len(logs)))
    # t quantile 0.975 with 47 degrees of freedom (48 pairs)
    upper = mean + 2.012 * stderr
    wins = int((logs < 0).sum())
    elapsed = time.time() - t0
    ok = len(logs) == 48 and upper < 0.0 and wins >= 40 and elapsed < 300.0
    report("10b", "shaped smoothing wins across seeds", ok,
           f"mean log ratio {mean:.4f}, 95% upper {upper:.4f}, "
           f"wins {wins}/{len(logs)}, {elapsed:.0f}s")


def test_criterion_11_cli_determinism(tmp_path):
    t0 = time.time()
    conc_cfg = tmp_path / "conc.json"
    conc_cfg.write_text(json.dumps({
        "spectra": {"iso": {"kind": "isotropic", "d": 5, "sigma1": 1.0}},
        "n_grid": [64, 128, 256, 512, 1024, 2048, 4096],
        "trials": 200, "r": 2,
        "search": {"restarts": 4, "iters": 40},
    }))
    smooth_cfg = tmp_path / "smooth.json"
    smooth_cfg.write_text(json.dumps(SMOOTH_CONFIG))
    ok = True
    for name, cfg, csv_name in [("conc", conc_cfg, "deviations.csv"),
                                ("smooth", smooth_cfg, "smooth.csv")]:
        blobs = []
        for run_id, jobs in [("a", "1"), ("b", "4")]:
            out = tmp_path / f"{name}-{run_id}"
            sub = "concentration" if name == "conc" else "smooth"
            code = cli_main([sub, "--config", str(cfg), "--out", str(out),
                             "--seed", "42", "--jobs", jobs])
            ok &= code == 0
            blobs.append((out / csv_name).read_bytes())
        ok &= blobs[0] == blobs[1]
    elapsed = time.time() - t0
    report(11, "CLI determinism across parallelism", ok, f"{elapsed:.0f}s")
