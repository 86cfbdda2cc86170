import csv
import json
import math
import os
import subprocess
import sys
import weakref
from dataclasses import replace
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import effdim.cli
from effdim._parallel import FORK
from effdim.cli import SCHEMAS, ConfigInvalid, _loglog_slope, main, validate
from effdim.entropy import kb_mb, unit_entropy_bound
from effdim.precond import ErmProblem, Loss, kappa_bound, mu_formula
from effdim.rng import RngStream
from effdim.spectrum import CovarianceSpectrum, make_spectrum, sample_gaussian


def write_config(tmp_path: Path, name: str, obj: dict) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


EFFDIM_CFG = {"spectrum": {"kind": "custom", "values": [2.0, 1.0]},
              "r_values": [1, 2]}


def test_effdim_subcommand_outputs(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", EFFDIM_CFG)
    out = tmp_path / "out"
    assert main(["effdim", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["d_eff"]["1.0"] == pytest.approx(1.25)
    assert summary["d_eff"]["2.0"] == pytest.approx(1.5)
    csv_text = (out / "effdim.csv").read_text()
    assert csv_text.splitlines()[0] == "seed,trial,r,d_eff"
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["outputs"]) == {"effdim.csv", "summary.json"}
    assert len(manifest["config_sha256"]) == 64


def test_validate_only_writes_nothing(tmp_path):
    cfg = write_config(tmp_path, "c.json", EFFDIM_CFG)
    out = tmp_path / "out"
    assert main(["effdim", "--config", cfg, "--out", str(out),
                 "--validate-only"]) == 0
    assert not out.exists()


# Each passes the schema; the library rejects it while building inputs.
LIBRARY_REJECTED = [
    ("effdim", {"spectrum": {"kind": "power_law", "d": 5}, "r_values": [1]}),
    ("effdim", {"spectrum": {"kind": "custom", "values": [1.0, 2.0]},
                "r_values": [1]}),
    ("cover", {"axes": [1.0, 2.0], "eps": 0.5, "n_samples": 10}),
    ("concentration", {"spectra": {"a": {"kind": "isotropic", "d": 2},
                                   "b": {"kind": "isotropic", "d": 3}},
                       "n_grid": [8], "trials": 30, "r": 2}),
    ("concentration", {"spectra": {"iso": {"kind": "isotropic", "d": 2}},
                       "n_grid": [8], "trials": 30, "r": 2,
                       "fs": [{"kind": "clip"}, {"kind": "clip"}]}),
]

# json.load accepts these literals and each passes the schema (NaN fails no
# comparison; Infinity, 1e999 and an integer too large for a float meet every
# lower bound); the loader rejects them before anything runs.
NON_FINITE = [
    ("effdim", '{"spectrum": {"kind": "isotropic", "d": 2, "sigma1": Infinity},'
               ' "r_values": [1]}'),
    ("effdim", '{"spectrum": {"kind": "isotropic", "d": 2, "sigma1": 1' + '0' * 400
               + '}, "r_values": [1]}'),
    ("effdim", '{"spectrum": {"kind": "isotropic", "d": 2}, "r_values": [1e999]}'),
    ("cover", '{"axes": [Infinity, 1.0], "eps": 0.5, "n_samples": 10}'),
    ("precondition", '{"spectrum": {"kind": "isotropic", "d": 2}, "n": 10,'
                     ' "loss": "ridge", "lam": NaN}'),
    ("smooth", '{"spectrum": {"kind": "isotropic", "d": 2}, "n": 10,'
               ' "radius": NaN, "iters": 1, "batch": 1, "trials": 1}'),
    ("concentration", '{"spectra": {"iso": {"kind": "isotropic", "d": 2}},'
                      ' "n_grid": [8], "trials": 30, "r": 2,'
                      ' "fs": [{"kind": "clip", "bound": NaN},'
                      ' {"kind": "clip", "bound": NaN}]}'),
]

# Passes every bound but eps's: the entropy bounds need eps in (0, 1].
EPS_ABOVE_ONE = ("entropy", '{"spectrum": {"kind": "isotropic", "d": 3},'
                            ' "eps_grid": [2.0]}')

# A repeated direction would run, write and count the same runs twice.
REPEATED_DIRECTION = ("smooth", '{"spectrum": {"kind": "isotropic", "d": 2},'
                                ' "n": 8, "radius": 1.0, "iters": 5, "batch": 2,'
                                ' "trials": 1, "directions": ["data", "iso", "data"]}')

# A repeated n would run its trials twice and fit a slope through one point.
REPEATED_N = ("concentration", '{"spectra": {"iso": {"kind": "isotropic", "d": 2}},'
                               ' "n_grid": [8, 8], "trials": 30, "r": 2}')

# The trials floor is the schema's alone.
TRIALS_BELOW_FLOOR = ("concentration", '{"spectra": {"iso": {"kind": "isotropic", "d": 2}},'
                                       ' "n_grid": [8], "trials": 29, "r": 2}')

# Each breaks a bound of the spectrum schema that make_spectrum also
# enforces: alpha > 0, and custom values nonempty and strictly positive.
SPECTRUM_BOUNDS = [
    ("effdim", '{"spectrum": {"kind": "power_law", "d": 3, "alpha": 0},'
               ' "r_values": [1]}'),
    ("effdim", '{"spectrum": {"kind": "custom", "values": []}, "r_values": [1]}'),
    ("effdim", '{"spectrum": {"kind": "custom", "values": [0.0]}, "r_values": [1]}'),
]

# Draft 2020-12 counts 30.0 as an integer; a run would then crash with a
# TypeError where the library needs an int.  Integers must be written as one.
INTEGRAL_FLOATS = [
    ("concentration", '{"spectra": {"iso": {"kind": "isotropic", "d": 2}},'
                      ' "n_grid": [8], "trials": 30.0, "r": 2}'),
    ("effdim", '{"spectrum": {"kind": "isotropic", "d": 3.0}, "r_values": [1]}'),
    ("cover", '{"axes": [2.0, 1.0], "eps": 1.0, "n_samples": 100.0}'),
    ("smooth", '{"spectrum": {"kind": "isotropic", "d": 2}, "n": 8,'
               ' "radius": 1.0, "iters": 5.0, "batch": 2, "trials": 1}'),
]


def test_invalid_config_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {"r_values": [1]})
    assert main(["effdim", "--config", cfg]) == 2
    cfg2 = write_config(tmp_path, "c2.json",
                        {"spectrum": {"kind": "bogus"}, "r_values": [1]})
    assert main(["effdim", "--config", cfg2]) == 2
    assert main(["effdim", "--config", str(tmp_path / "missing.json")]) == 2
    for k, (subcommand, text) in enumerate(NON_FINITE + [EPS_ABOVE_ONE,
                                                         REPEATED_DIRECTION,
                                                         REPEATED_N,
                                                         TRIALS_BELOW_FLOOR]
                                           + SPECTRUM_BOUNDS + INTEGRAL_FLOATS):
        cfg = tmp_path / f"nonfinite{k}.json"
        cfg.write_text(text)
        out = tmp_path / f"n{k}"
        for extra in (["--validate-only"], []):
            assert main([subcommand, "--config", str(cfg), "--out", str(out)]
                        + extra) == 2
            assert "config error:" in capsys.readouterr().err
        assert not out.exists()
    for k, (subcommand, config) in enumerate(LIBRARY_REJECTED):
        cfg = write_config(tmp_path, f"lib{k}.json", config)
        out = tmp_path / f"o{k}"
        assert main([subcommand, "--config", cfg, "--out", str(out)]) == 2
        assert "config error:" in capsys.readouterr().err
        assert not out.exists()
    # a directory that existed before the failed run is left as it was
    (out / "keep").mkdir(parents=True)
    assert main([subcommand, "--config", cfg, "--out", str(out)]) == 2
    assert (out / "keep").is_dir()


def test_out_that_cannot_be_a_directory_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", EFFDIM_CFG)
    afile = tmp_path / "afile"
    afile.write_bytes(b"keep me")
    for out in (afile, afile / "sub"):
        assert main(["effdim", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: --out {out}: ") and err.count("\n") == 1, err
        assert afile.read_bytes() == b"keep me"


def test_runtime_failure_exits_3(tmp_path, capsys):
    # cover construction refuses d > 5 and grids over its cell cap at run
    # time, not validation time
    for axes, eps, message in (([1.0] * 6, 0.5, "build_cover supports d <= 5"),
                               ([1000.0, 1000.0], 0.01, "grid would enumerate")):
        cfg = write_config(tmp_path, "c.json",
                           {"axes": axes, "eps": eps, "n_samples": 10})
        assert main(["cover", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--validate-only"]) == 0
        capsys.readouterr()
        assert main(["cover", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
        assert f"runtime error: LimitExceeded: {message}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


# Valid configs whose sigma1 overflows float64 on the way: in the deviations
# scaled back by 2**(k r) (concentration), the data Hessians (precondition)
# or sigma1**3 in the default shaped width (smooth).
HUGE_SIGMA1 = {
    "concentration": {
        "spectra": {"p": {"kind": "power_law", "d": 5, "sigma1": 1e200, "alpha": 1.0}},
        "n_grid": [64], "trials": 30, "r": 2, "centered": True,
        "search": {"restarts": 2, "iters": 5}},
    "precondition": {
        "spectrum": {"kind": "power_law", "d": 5, "sigma1": 1e200, "alpha": 1.0},
        "n": 200, "n_aux": 200, "loss": "logistic", "lam": 0.01, "probes": 3},
    "smooth": {
        "spectrum": {"kind": "power_law", "d": 5, "sigma1": 1e150, "alpha": 1.0},
        "n": 64, "radius": 2.0, "iters": 100, "batch": 4, "trials": 2,
        "directions": ["iso", "data"]},
}


# Overflow stops the run at the named limit, with no warning first: a
# library check raises OverflowError, numpy arithmetic FloatingPointError.
OVERFLOW_ERRORS = ("runtime error: OverflowError: ",
                   "runtime error: FloatingPointError: overflow encountered")


def test_huge_sigma1_exits_3_naming_the_overflow(tmp_path, capsys):
    for name, config in HUGE_SIGMA1.items():
        out = tmp_path / name
        assert main([name, "--config", write_config(tmp_path, "c.json", config),
                     "--out", str(out)]) == 3, name
        assert capsys.readouterr().err.startswith(OVERFLOW_ERRORS), name
        assert not out.exists()
    # effdim and entropy are scale-invariant and take any finite sigma1.
    spectrum = {"kind": "power_law", "d": 50, "sigma1": 1e300, "alpha": 0.5}
    for name, config in (("effdim", {"spectrum": spectrum, "r_values": [1, 2]}),
                         ("entropy", {"spectrum": spectrum, "eps_grid": [0.5, 0.01]})):
        assert main([name, "--config", write_config(tmp_path, "c.json", config),
                     "--out", str(tmp_path / name)]) == 0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("sigma1", [1e100, 1e150])
def test_concentration_below_the_tensor_overflow_runs_clean(sigma1, tmp_path, capsys):
    # The deviations are finite up to ~1e300; their squares, inside the std
    # of a (spectrum, n) cell, would not be.
    config = {**HUGE_SIGMA1["concentration"], "n_grid": [20]}
    config["spectra"] = {"p": {**config["spectra"]["p"], "sigma1": sigma1}}
    out = tmp_path / "o"
    assert main(["concentration", "--config", write_config(tmp_path, "c.json", config),
                 "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    (cell,) = json.loads((out / "summary.json").read_text())["p"]["means"]
    assert 0 < cell["std"] < cell["mean"] < math.inf


def test_concentration_scales_back_past_the_float64_range_of_2_to_the_kr(tmp_path, capsys):
    # sigma_1 = 3e154 has k = 513, so 2**(k r) = 2**1026 is no float64; the
    # values scaled back by it still are, and the run finishes clean.
    config = {"spectra": {"i": {"kind": "isotropic", "d": 5, "sigma1": 3e154}},
              "n_grid": [65536], "trials": 30, "r": 2,
              "search": {"restarts": 1, "iters": 1}}
    assert int(np.frexp(3e154)[1]) - 1 == 513
    out = tmp_path / "o"
    assert main(["concentration", "--config", write_config(tmp_path, "c.json", config),
                 "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    summary = json.loads((out / "summary.json").read_text())
    with open(out / "deviations.csv") as fh:
        values = _numbers(summary) + _numbers(list(csv.reader(fh)))
    assert all(map(math.isfinite, values))
    (cell,) = summary["i"]["means"]
    assert cell["mean"] > 0


def _ladder_configs(sigma1):
    """One small config per run of the sigma1 ladder, scaled by sigma1."""
    spectrum = {"kind": "power_law", "d": 5, "sigma1": sigma1, "alpha": 1.0}
    conc = {"spectra": {"p": spectrum}, "n_grid": [8], "trials": 30, "r": 2,
            "search": {"restarts": 1, "iters": 1}}
    return {
        "effdim": ("effdim", {"spectrum": spectrum, "r_values": [1, 2]}),
        "entropy": ("entropy", {"spectrum": spectrum, "eps_grid": [0.5]}),
        "cover": ("cover", {"axes": [2.0 * sigma1, sigma1], "eps": sigma1,
                            "n_samples": 100, "delete_fraction": 0.1}),
        "identity-r2": ("concentration", conc),
        "identity-r3": ("concentration", {**conc, "r": 3}),
        "relu-uncentred": ("concentration", {
            **conc, "spectra": {"p": {**spectrum, "d": 2}}, "centered": False,
            "fs": [{"kind": "relu"}, {"kind": "relu"}]}),
        "precondition": ("precondition", {
            "spectrum": spectrum, "n": 20, "loss": "logistic", "lam": 0.1,
            "iters": 5, "probes": 2, "gd_iters": 5}),
        "smooth": ("smooth", {"spectrum": spectrum, "n": 8, "radius": 1.0,
                              "iters": 5, "batch": 2, "trials": 1}),
    }


def _numbers(obj):
    """Every number in a parsed summary.json, or in the cells of a CSV."""
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, list):
        return [x for v in obj for x in _numbers(v)]
    if isinstance(obj, str):
        try:
            return [float(obj)]
        except ValueError:
            return []
    return [obj] if isinstance(obj, float) else []


def _scaled_by(value, base, sigma1, r):
    """value == sigma1**r * base within rel 1e-9, compared as logs, since
    sigma1**r itself may leave the float64 range (1e-200**2 is 0.0)."""
    if base == 0:
        return value == 0
    ratio = value / base
    return ratio > 0 and math.isclose(math.log(ratio), r * math.log(sigma1), abs_tol=1e-9)


def test_sigma1_ladder_exits_0_clean_or_3_naming_the_limit(tmp_path, capsys):
    # Every run finishes with finite outputs and no warning, or stops at a
    # declared limit and leaves no output; never a crash (exit 1), and the
    # exit does not depend on --jobs.  A concentration run that finishes
    # writes sigma1**r times the deviations of the sigma1 = 1 run, so a value
    # lost to underflow cannot pass as a small one.  sigma1 = 1 runs first.
    unit_values = {}
    for sigma1 in (1.0, 1e-300, 1e-200, 1e-100, 1e-50, 1e50, 1e100, 1e150, 1e200, 1e300):
        for label, (name, config) in _ladder_configs(sigma1).items():
            cfg = write_config(tmp_path, "c.json", config)
            codes = []
            for jobs in ("1", "2"):
                out = tmp_path / f"{label}-{sigma1:g}-{jobs}"
                code = main([name, "--config", cfg, "--out", str(out),
                             "--jobs", jobs])
                err = capsys.readouterr().err
                case = (label, sigma1, jobs, err)
                if code == 0:
                    assert err == "", case
                    values = _numbers(json.loads((out / "summary.json").read_text()))
                    for table in CSV_HEADERS[name]:
                        with open(out / table) as fh:
                            values += _numbers(list(csv.reader(fh)))
                    assert all(map(math.isfinite, values)), case
                    if name == "concentration":
                        with open(out / "deviations.csv") as fh:
                            devs = [float(row["value"]) for row in csv.DictReader(fh)]
                        base = unit_values.setdefault(label, devs)
                        assert len(devs) == len(base), case
                        assert all(_scaled_by(v, b, sigma1, config["r"])
                                   for v, b in zip(devs, base)), case
                else:
                    assert code == 3 and err.startswith(
                        ("runtime error: LimitExceeded: ",) + OVERFLOW_ERRORS), case
                    assert not out.exists(), case
                codes.append(code)
            assert codes[0] == codes[1], (label, sigma1)
            assert sigma1 != 1 or codes == [0, 0], label


def test_precondition_scale_limit_names_sigma1_and_the_solve(tmp_path, capsys):
    # The logistic loss is not homogeneous: at a large sigma_1 a Newton solve
    # fails, and the message says which one and at what scale.
    for sigma1, what in ((1e8, "Bregman inner solve"), (1e20, "reference solve")):
        name, config = _ladder_configs(sigma1)["precondition"]
        out = tmp_path / f"o{sigma1:g}"
        assert main([name, "--config", write_config(tmp_path, "c.json", config),
                     "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith(
            f"runtime error: LimitExceeded: {what} at sigma_1 {sigma1:g}: Newton: ")
        assert not out.exists()


def test_concentration_names_a_spectrum_it_cannot_scale(tmp_path, capsys):
    # At sigma_1 in [1, 2) the last axis of [1e100, 1e-250] is below the
    # smallest float64; its square already underflows in the covariance.
    config = {"spectra": {"p": {"kind": "custom", "values": [1e100, 1e-250]}},
              "n_grid": [8], "trials": 30, "r": 2, "search": {"restarts": 1, "iters": 1}}
    out = tmp_path / "o"
    assert main(["concentration", "--config", write_config(tmp_path, "c.json", config),
                 "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        "runtime error: LimitExceeded: spectrum 'p': sigma_d / sigma_1 underflows float64\n")
    assert not out.exists()


@pytest.mark.parametrize("sigma1, bound, error", [
    (1e300, 1e-300, "LimitExceeded: spectrum 'p' at sigma_1 1e+300: "
                    "clip bound 1e-300 underflows float64"),
    (1e-300, 1e300, "OverflowError: spectrum 'p' at sigma_1 1e-300: "
                    "clip bound 1e+300 overflows float64")], ids=["underflow", "overflow"])
def test_concentration_names_a_clip_bound_it_cannot_scale(sigma1, bound, error,
                                                          tmp_path, capsys):
    # At sigma_1 in [1, 2) the clip bound leaves the normal float64 range.
    config = {"spectra": {"p": {"kind": "power_law", "d": 3, "sigma1": sigma1,
                                "alpha": 1.0}},
              "n_grid": [8], "trials": 30, "r": 2, "centered": False,
              "fs": [{"kind": "clip", "bound": bound}] * 2,
              "search": {"restarts": 1, "iters": 1}}
    out = tmp_path / "o"
    assert main(["concentration", "--config", write_config(tmp_path, "c.json", config),
                 "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"runtime error: {error}\n"
    assert not out.exists()


def test_concentration_pairing_and_jobs_invariance():
    def rows(spectra, jobs):
        config = {"spectra": spectra, "n_grid": [32, 64], "trials": 30, "r": 2,
                  "search": {"restarts": 4, "iters": 30}}
        return effdim.cli.run_concentration(config, 41, jobs)[1]["deviations.csv"]

    spectra = {"iso": {"kind": "isotropic", "d": 4},
               "pl": {"kind": "power_law", "d": 4, "alpha": 1.0}}
    assert rows(spectra, 1) == rows(spectra, 4)
    # Paired trials scale the same draws, and both spectra run as the same
    # unit spectrum: at r = 2 the sigma1 = 2 deviation is exactly 4 times
    # the sigma1 = 1 one, trial by trial.
    scaled = rows({"a": {"kind": "isotropic", "d": 4, "sigma1": 1.0},
                   "b": {"kind": "isotropic", "d": 4, "sigma1": 2.0}}, 1)
    a, b = ([row["value"] for row in scaled if row["spectrum_id"] == sid] for sid in "ab")
    assert len(a) == 60 and b == [4.0 * v for v in a]


def test_loglog_slope_recovers_power_law():
    ns = [100, 200, 400, 800]
    means = [3.0 * n**-0.5 for n in ns]
    slope, stderr = _loglog_slope(ns, means)
    assert slope == pytest.approx(-0.5, abs=1e-12)
    assert stderr == pytest.approx(0.0, abs=1e-10)
    # No fit, and so no JSON-invalid NaN, from one n or a mean <= 0.
    assert _loglog_slope(ns[:1], means[:1]) == (None, None)
    assert _loglog_slope(ns, [0.0] + means[1:]) == (None, None)
    # Two n leave no residual degree of freedom for a stderr.
    slope, stderr = _loglog_slope([16, 64], [0.4, 0.2])
    assert slope == pytest.approx(-0.5, abs=1e-12) and stderr is None


# The search step of each case that sets one; the others use the default.
SEARCH_STEPS = {"relu-step": 0.05}


@pytest.mark.parametrize("label, r, fs", [
    ("identity-r2", 2, None), ("identity-r3", 3, None), ("identity-r4", 4, None),
    ("relu", 2, ["relu", "relu"]), ("clip", 2, ["clip", "relu"]),
    ("relu-step", 2, ["relu", "relu"])])
def test_concentration_is_homogeneous_of_degree_r_in_sigma(label, r, fs):
    # Scaling sigma (and a clip bound) by 2**k scales every deviation, mean
    # and std by exactly 2**(k r).  A configured search step applies at the
    # unit scale, so it too leaves the scaling exact.
    step = SEARCH_STEPS.get(label)

    def run(k, search):
        spectrum = {"kind": "power_law", "d": 5 if fs is None else 2,
                    "sigma1": math.ldexp(1.0, k), "alpha": 1.0}
        config = {"spectra": {"p": spectrum}, "n_grid": [8, 16], "trials": 30, "r": r,
                  "search": search}
        if fs is not None:
            config["centered"] = False
            config["fs"] = [{"kind": f, "bound": math.ldexp(0.5, k)} for f in fs]
        summary, tables = effdim.cli.run_concentration(config, 3, 1)
        cells = [(m["mean"], m["std"]) for m in summary["p"]["means"]]
        return [row["value"] for row in tables["deviations.csv"]], cells

    search = {"restarts": 1, "iters": 3}
    if step is not None:
        default, _ = run(0, search)
        search["step"] = step
    values, cells = run(0, search)
    assert any(values)
    if step is not None:
        assert values != default   # the configured step is used
    for k in (10, -60):
        scaled_values, scaled_cells = run(k, search)
        assert scaled_values == [math.ldexp(v, k * r) for v in values], (label, k)
        assert scaled_cells == [tuple(math.ldexp(x, k * r) for x in cell)
                                for cell in cells], (label, k)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("sigma1", [1e-162, 1e-170, 1e-200, 1e-300])
def test_smooth_with_underflowing_row_squares_runs_clean(sigma1, tmp_path, capsys):
    # The squares of the row entries underflow to 0, yet the Lipschitz
    # constant max_i ||a_i|| of the hinge objective does not.
    config = {**HUGE_SIGMA1["smooth"], "n": 8, "iters": 50, "trials": 1}
    config["spectrum"] = {**config["spectrum"], "sigma1": sigma1}
    out = tmp_path / "o"
    assert main(["smooth", "--config", write_config(tmp_path, "c.json", config),
                 "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    with open(out / "smooth.csv") as fh:
        gaps = [float(row["final_gap"]) for row in csv.DictReader(fh)]
    assert len(gaps) == 2 and all(0 < gap < math.inf for gap in gaps)


def test_csv_refuses_non_finite_floats(tmp_path):
    # As summary.json does: a CSV never holds nan or inf.
    for bad in (math.nan, math.inf, -math.inf, np.float64("nan")):
        with pytest.raises(ValueError, match="out of range"):
            effdim.cli._write_csv(tmp_path / "t.csv",
                                  [{"seed": 0, "value": 1.0}, {"seed": 0, "value": bad}])


def test_unexpected_error_exits_1_with_traceback(tmp_path, monkeypatch, capsys):
    def broken(config, seed, jobs):
        raise TypeError("bug in a runner")

    monkeypatch.setitem(effdim.cli.RUNNERS, "effdim", broken)
    cfg = write_config(tmp_path, "c.json", EFFDIM_CFG)
    assert main(["effdim", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert not (tmp_path / "o").exists()
    err = capsys.readouterr().err
    assert "Traceback" in err and "TypeError: bug in a runner" in err


# No CLI import or run loads these: numpy is the only runtime dependency,
# and parallel_map forks its workers with os.fork, at any --jobs.
NOT_ON_RUN_PATH = ("scipy", "jsonschema", "concurrent", "multiprocessing")


def test_cli_import_leaves_scipy_spatial_unloaded():
    code = ("import sys, effdim.cli; print(sorted(m for m in sys.modules"
            f" if m.split('.')[0] in {NOT_ON_RUN_PATH!r}))")
    src = str(Path(effdim.cli.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src)).stdout
    assert out.strip() == "[]"


def _schema_nodes(schema, path="$"):
    yield path, schema
    for key, sub in schema.get("properties", {}).items():
        yield from _schema_nodes(sub, f"{path}.{key}")
    for key in ("items", "additionalProperties"):
        if schema.get(key, False) is not False:
            yield from _schema_nodes(schema[key], f"{path}.{key}")


def test_schemas_pass_the_metaschema():
    # validate does not re-check the schemas; they are checked here.  Every
    # node, also those no config visits, is an object with only the
    # keywords and types ``validate`` implements, and every object node is
    # closed (additionalProperties false) or a map with a value schema.
    for name, schema in SCHEMAS.items():
        jsonschema.Draft202012Validator.check_schema(schema)
        for path, node in _schema_nodes(schema, name):
            assert isinstance(node, dict), path
            assert set(node) <= effdim.cli._KEYWORDS, path
            assert node.get("type", "object") in effdim.cli._TYPES, path
            if node.get("type") == "object":
                assert "additionalProperties" in node, path


def _integer_literal(checker, value):
    return isinstance(value, int) and not isinstance(value, bool)


# Draft 2020-12 with the one intended difference of ``validate``: an integer
# must be written as one.
Oracle = jsonschema.validators.extend(
    jsonschema.Draft202012Validator,
    type_checker=jsonschema.Draft202012Validator.TYPE_CHECKER.redefine(
        "integer", _integer_literal))


def instances(schema):
    """Valid instances of a schema that uses only the SCHEMAS keywords."""
    if "enum" in schema:
        return st.sampled_from(schema["enum"])
    kind = schema["type"]
    if kind == "boolean":
        return st.booleans()
    if kind in ("integer", "number"):
        lo = schema.get("minimum", schema.get("exclusiveMinimum", -50))
        hi = schema.get("maximum", lo + 100)
        ints = st.integers(int(lo) + ("exclusiveMinimum" in schema), int(hi))
        if kind == "integer":
            return ints
        return ints | st.floats(lo, hi, exclude_min="exclusiveMinimum" in schema)
    if kind == "array":
        return st.lists(instances(schema["items"]),
                        min_size=schema.get("minItems", 0), max_size=3,
                        unique=schema.get("uniqueItems", False))
    props = schema.get("properties", {})
    required = schema.get("required", [])
    fixed = st.fixed_dictionaries(
        {key: instances(props[key]) for key in required},
        optional={key: instances(sub) for key, sub in props.items()
                  if key not in required})
    if schema.get("additionalProperties") is False:
        return fixed
    extra = st.dictionaries(st.text("abc", min_size=1, max_size=2),
                            instances(schema["additionalProperties"]),
                            min_size=schema.get("minProperties", 0), max_size=2)
    return st.tuples(fixed, extra).map(lambda parts: {**parts[1], **parts[0]})


# Replacements that break some schema node: wrong types, bools in place of
# numbers, numbers on and across each bound, a bad enum, empty containers.
BAD_VALUES = [True, False, None, "bogus", [], {}, -1, 0, 0.0, 0.5, 1, 1.0,
              2, 2.5, 30.0, 29, 1e9, [0.5], {"kind": "isotropic"}]


def _nodes(value, path=()):
    yield path, value
    children = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, item in children:
        yield from _nodes(item, path + (key,))


def _mutate(config, path, op):
    """A copy of ``config`` with the node at ``path`` deleted or replaced."""
    if not path:
        return op
    copy = json.loads(json.dumps(config))
    parent = copy
    for key in path[:-1]:
        parent = parent[key]
    if op == "delete":
        del parent[path[-1]]
    else:
        parent[path[-1]] = op
    return copy


def _accepts(schema, config) -> bool:
    try:
        validate(schema, config)
    except ConfigInvalid:
        return False
    return True


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(SCHEMAS)), data=st.data())
def test_validator_agrees_with_jsonschema(name, data):
    # One valid config, then each node deleted, replaced by each BAD_VALUE,
    # or, if a nonempty list, given a repeat of its first item; each object
    # node is also given an unlisted key, with a value that is a valid
    # spectrum and with one that is not.
    schema = SCHEMAS[name]
    oracle = Oracle(schema)
    config = data.draw(instances(schema))
    assert oracle.is_valid(config)
    assert _accepts(schema, config)
    for path, node in _nodes(config):
        repeated = [node + node[:1]] if isinstance(node, list) and node else []
        for op in BAD_VALUES + repeated + (["delete"] if path else []):
            mutated = _mutate(config, path, op)
            assert _accepts(schema, mutated) == oracle.is_valid(mutated), (path, op)
        if isinstance(node, dict):
            for extra in ({"kind": "isotropic"}, 1):
                mutated = _mutate(config, path + ("unlisted",), extra)
                assert _accepts(schema, mutated) == oracle.is_valid(mutated), (path, extra)


def test_validator_rejects_unknown_keywords_and_names_the_path():
    bad = {"spectra": {"iso": {"kind": "isotropic", "d": 0}},
           "n_grid": [8], "trials": 30, "r": 2}
    with pytest.raises(ConfigInvalid, match=r"^\$\.spectra\.iso\.d: "):
        validate(SCHEMAS["concentration"], bad)


# A small config for each subcommand and the header of each CSV it writes.
SMALL_CONFIGS = {
    "effdim": EFFDIM_CFG,
    "entropy": {"spectrum": {"kind": "custom", "values": [2.0, 1.0]},
                "eps_grid": [0.5]},
    "cover": {"axes": [2.0, 1.0], "eps": 1.0, "n_samples": 100,
              "delete_fraction": 0.1},
    "concentration": {"spectra": {"iso": {"kind": "isotropic", "d": 2}},
                      "n_grid": [8], "trials": 30, "r": 2,
                      "search": {"restarts": 1, "iters": 1}},
    "precondition": {"spectrum": {"kind": "isotropic", "d": 2}, "n": 20,
                     "loss": "logistic", "lam": 0.1, "iters": 5,
                     "probes": 2, "gd_iters": 5},
    "smooth": {"spectrum": {"kind": "isotropic", "d": 2}, "n": 8,
               "radius": 1.0, "iters": 5, "batch": 2, "trials": 1},
}

CSV_HEADERS = {
    "effdim": {"effdim.csv": ["seed", "trial", "r", "d_eff"]},
    "entropy": {"entropy.csv": ["seed", "trial", "eps", "m_eps", "bound"]},
    "cover": {"cover.csv": ["seed", "trial", "size", "violations", "max_dist"]},
    "concentration": {"deviations.csv": ["seed", "trial", "spectrum_id", "n",
                                         "value", "mode"]},
    "precondition": {"precondition.csv": ["seed", "trial", "method", "iter", "gap"]},
    "smooth": {"smooth.csv": ["seed", "trial", "direction", "iters_to_tol",
                              "final_gap"]},
}


# Each config is valid but for one key that its object does not list, at
# each level of object; the error names the object's path and the key.
_CONC = SMALL_CONFIGS["concentration"]
UNKNOWN_KEYS = [
    pytest.param("concentration", _CONC | {"centred": False},
                 "$: unknown key 'centred'", id="top"),
    pytest.param("smooth", SMALL_CONFIGS["smooth"]
                 | {"spectrum": {"kind": "isotropic", "d": 2, "sigma": 2.0}},
                 "$.spectrum: unknown key 'sigma'", id="spectrum"),
    pytest.param("concentration", _CONC | {"spectra": {
                     "iso": {"kind": "isotropic", "d": 2},
                     "pl": {"kind": "power_law", "d": 2, "alfa": 1.0}}},
                 "$.spectra.pl: unknown key 'alfa'", id="spectra-entry"),
    pytest.param("concentration", _CONC | {"search": {"restart": 2}},
                 "$.search: unknown key 'restart'", id="search"),
    pytest.param("concentration", _CONC | {"fs": [{"kind": "identity"},
                                                  {"kind": "clip", "bounds": 1.0}]},
                 "$.fs[1]: unknown key 'bounds'", id="fs-item"),
]


@pytest.mark.parametrize("name, config, message", UNKNOWN_KEYS)
def test_validate_only_rejects_an_unknown_key_at_each_level(name, config, message,
                                                            tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", config)
    assert main([name, "--config", cfg, "--validate-only"]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


@pytest.mark.parametrize("name", sorted(effdim.cli.RUNNERS))
def test_runner_returns_its_rows_and_writes_nothing(name, tmp_path, monkeypatch):
    # The key order of the rows is the CSV header that main writes.
    monkeypatch.chdir(tmp_path)
    summary, tables = effdim.cli.RUNNERS[name](SMALL_CONFIGS[name], 0, 1)
    assert list(tmp_path.iterdir()) == []
    assert isinstance(summary, dict)
    assert {table: list(rows[0]) for table, rows in tables.items()} == CSV_HEADERS[name]
    for rows in tables.values():
        assert all(list(row) == list(rows[0]) for row in rows)


def test_cli_runs_leave_scipy_unloaded(tmp_path):
    calls = []
    for name, config in SMALL_CONFIGS.items():
        cfg = write_config(tmp_path, f"{name}.json", config)
        calls.append([name, "--config", cfg, "--out", str(tmp_path / name)])
    # A --jobs 2 concentration run forks its workers.
    calls.append(["concentration", "--config", str(tmp_path / "concentration.json"),
                  "--out", str(tmp_path / "concentration-j2"), "--jobs", "2"])
    code = ("import sys, json; from effdim.cli import main\n"
            "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
            "print(json.dumps([codes, sorted(m for m in sys.modules"
            f" if m.split('.')[0] in {NOT_ON_RUN_PATH!r})]))")
    src = str(Path(effdim.cli.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", code, json.dumps(calls)],
                         check=True, capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src)).stdout
    codes, loaded = json.loads(out.splitlines()[-1])
    assert codes == [0] * len(calls)
    assert loaded == []


def test_seed_comes_from_the_flag_only(tmp_path, monkeypatch, capsys):
    # Neither the environment nor a config key sets the seed: a seed key is
    # unknown to the schema.
    keyed = write_config(tmp_path, "keyed.json", {**EFFDIM_CFG, "seed": 99})
    assert main(["effdim", "--config", keyed, "--out", str(tmp_path / "k")]) == 2
    assert "unknown key 'seed'" in capsys.readouterr().err
    cfg = write_config(tmp_path, "c.json", EFFDIM_CFG)
    monkeypatch.setenv("EFFDIM_SEED", "99")
    for name, extra, seed in (("default", [], 0), ("flag", ["--seed", "7"], 7)):
        out = tmp_path / name
        assert main(["effdim", "--config", cfg, "--out", str(out)] + extra) == 0
        lines = (out / "effdim.csv").read_text().splitlines()[1:]
        assert {line.split(",")[0] for line in lines} == {str(seed)}
        assert json.loads((out / "manifest.json").read_text())["seed"] == seed


@pytest.mark.parametrize("name", sorted(effdim.cli.RUNNERS))
def test_csv_seed_column_is_the_flag(name, tmp_path):
    # The seed column records the master seed, so two seeds give two columns.
    cfg = write_config(tmp_path, "c.json", SMALL_CONFIGS[name])
    for seed in ("1", "2"):
        out = tmp_path / seed
        assert main([name, "--config", cfg, "--out", str(out), "--seed", seed]) == 0
        for table in CSV_HEADERS[name]:
            with open(out / table, newline="") as fh:
                assert {row["seed"] for row in csv.DictReader(fh)} == {seed}


@pytest.mark.parametrize("spectrum", [
    {"kind": "custom", "values": [4.0, 2.0, 0.5]},
    {"kind": "power_law", "d": 50, "sigma1": 7.0, "alpha": 1.0},
    {"kind": "isotropic", "d": 3, "sigma1": 0.2},
])
def test_entropy_unit_kb_mb_are_zero(spectrum):
    # K_b and m_b of sigma / sigma_1: no axis of it exceeds 1, whatever sigma_1,
    # so both are 0.0 and 0 and the summary does not carry them.
    summary, _ = effdim.cli.run_entropy({"spectrum": spectrum, "eps_grid": [0.5]}, 0, 1)
    sp = effdim.cli._spectrum(spectrum)
    assert kb_mb(CovarianceSpectrum(sp.sigmas / sp.sigmas[0])) == (0.0, 0)
    assert set(summary) == {"d", "r", "c"}


def test_cover_negative_control(tmp_path):
    cfg = write_config(tmp_path, "c.json",
                       {"axes": [4.0, 2.0, 0.5], "eps": 1.0,
                        "n_samples": 20000, "delete_fraction": 0.1})
    out = tmp_path / "o"
    assert main(["cover", "--config", cfg, "--out", str(out), "--seed", "2"]) == 0
    lines = (out / "cover.csv").read_text().splitlines()
    assert len(lines) == 3
    intact = lines[1].split(",")
    damaged = lines[2].split(",")
    assert int(intact[3]) == 0
    assert int(damaged[3]) > 0


def test_cover_summary_reports_the_unit_entropy_bound_of_axes_over_eps():
    config = {"axes": [4.0, 2.0, 0.5], "eps": 0.5, "n_samples": 1000}
    summary, _ = effdim.cli.run_cover(config, 0, 1)
    bound = unit_entropy_bound(CovarianceSpectrum(np.array([8.0, 4.0, 1.0])))
    assert summary["unit_entropy_bound"] == bound.total
    # kb and mb are the terms of that bound: K_b and m_b of axes / eps.
    assert (summary["kb"], summary["mb"]) == (bound.kb, bound.mb)
    assert bound.mb == 2 and bound.kb == pytest.approx(math.log(32.0), abs=1e-14)
    assert summary["kb"] + bound.correction == summary["unit_entropy_bound"]


def test_cover_negative_control_keeps_the_earliest_tied_cells(monkeypatch):
    # Many cells share the first coordinate at the cut; the control keeps
    # the earliest of them in cover order, whatever order the cells come
    # in.  A shuffled cover makes an unstable sort pick other tied cells.
    build = effdim.cli.build_cover

    def shuffled(axes, eps):
        cover = build(axes, eps)
        return replace(cover, cells=np.random.default_rng(0).permutation(cover.cells))

    monkeypatch.setattr(effdim.cli, "build_cover", shuffled)
    covers = []
    verify = effdim.cli.verify_cover
    monkeypatch.setattr(effdim.cli, "verify_cover",
                        lambda cover, pts: covers.append(cover) or verify(cover, pts))
    effdim.cli.run_cover({"axes": [4.0, 2.0, 1.0], "eps": 1.0, "n_samples": 10,
                          "delete_fraction": 0.1}, 1, 1)
    full, damaged = covers
    first = full.cells[:, 0]
    cut = damaged.cells[:, 0].max()
    below, tied = np.flatnonzero(first < cut), np.flatnonzero(first == cut)
    kept_ties = damaged.size - len(below)
    assert 0 < kept_ties < len(tied)
    expected = np.sort(np.concatenate([below, tied[:kept_ties]]))
    np.testing.assert_array_equal(damaged.cells, full.cells[expected])


def test_concentration_deterministic_across_jobs_and_reruns(tmp_path):
    # Every route: identity factors at r = 2 (eigensolve) and r = 4 (block
    # ascent), and relu factors with their Monte-Carlo reference of 10**6
    # rows, drawn once per spectrum per run and shared by every trial (one
    # run at each job count, for time).
    runs = [({
        "spectra": {"iso": {"kind": "isotropic", "d": 4, "sigma1": 1.0}},
        "n_grid": [32, 64], "trials": 30, "r": 2,
        "search": {"restarts": 4, "iters": 30},
    }, ["1", "4", "1"]), ({
        "spectra": {"pl": {"kind": "power_law", "d": 20, "sigma1": 1.0, "alpha": 1.0}},
        "n_grid": [64], "trials": 30, "r": 4, "centered": True,
        "search": {"restarts": 2, "iters": 5},
    }, ["1", "2", "1"]), ({
        "spectra": {"iso": {"kind": "isotropic", "d": 1, "sigma1": 1.0}},
        "n_grid": [16], "trials": 30, "r": 2,
        "fs": [{"kind": "relu"}, {"kind": "relu"}], "centered": True,
        "search": {"restarts": 1, "iters": 1},
    }, ["1", "2"])]
    for k, (config, job_counts) in enumerate(runs):
        cfg = write_config(tmp_path, f"c{k}.json", config)
        outs = []
        for i, jobs in enumerate(job_counts):
            out = tmp_path / f"o{k}-{i}"
            assert main(["concentration", "--config", cfg, "--out", str(out),
                         "--seed", "5", "--jobs", jobs]) == 0
            outs.append([(out / f).read_bytes()
                         for f in ("deviations.csv", "summary.json")])
        assert all(o == outs[0] for o in outs), k


def test_concentration_draws_one_reference_per_spectrum(monkeypatch, tmp_path):
    # A centred relu run draws one MC_REF_ROWS-row reference per spectrum,
    # not one per (n, trial) task, at any job count, and drops each before
    # drawing the next.  Its stream does not depend on trials, so a 31-trial
    # run extends the 30-trial one.  A smaller reference keeps the test fast.
    # At --jobs 2 the tasks run in forked workers, whose memory dies with
    # them, so each draw's n is logged to a file: one os.write on an
    # O_APPEND descriptor per draw, which the workers share.
    ref_rows = 4096
    log, live = tmp_path / "draws", []

    def spy(sp, n, rng):
        fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
        try:
            os.write(fd, f"{n}\n".encode())
        finally:
            os.close(fd)
        out = sample_gaussian(sp, n, rng)
        if n == ref_rows:
            assert all(ref() is None for ref in live)
            live.append(weakref.ref(out))
        return out

    monkeypatch.setattr(effdim.cli, "MC_REF_ROWS", ref_rows)
    monkeypatch.setattr(effdim.cli, "sample_gaussian", spy)
    config = {"spectra": {"a": {"kind": "isotropic", "d": 1, "sigma1": 1.0},
                          "b": {"kind": "isotropic", "d": 1, "sigma1": 3.0}},
              "n_grid": [16], "r": 2, "fs": [{"kind": "relu"}, {"kind": "relu"}],
              "centered": True, "search": {"restarts": 1, "iters": 1}}
    rows = {}
    for trials, jobs in ((30, 1), (31, 2)):
        log.write_text("")
        rows[trials] = effdim.cli.run_concentration(
            {**config, "trials": trials}, 7, jobs)[1]["deviations.csv"]
        draws = [int(n) for n in log.read_text().split()]
        assert draws.count(ref_rows) == 2 and len(draws) == 2 + 2 * trials, jobs
    for sid in "ab":
        assert ([row for row in rows[30] if row["spectrum_id"] == sid]
                == [row for row in rows[31] if row["spectrum_id"] == sid][:30])


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_single_n_concentration_writes_null_slope(tmp_path, capsys):
    # One n gives no slope fit; NaN would make summary.json invalid JSON.
    cfg = write_config(tmp_path, "c.json", SMALL_CONFIGS["concentration"])
    out = tmp_path / "o"
    assert main(["concentration", "--config", cfg, "--out", str(out)]) == 0
    printed = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    summary = json.loads((out / "summary.json").read_text(),
                         parse_constant=_reject_constant)
    assert printed["summary"] == summary
    assert summary["iso"]["slope"] is None and summary["iso"]["stderr"] is None


SMALL_SMOOTH = {
    "spectrum": {"kind": "power_law", "d": 8, "sigma1": 1.0, "alpha": 1.0},
    "n": 32, "radius": 2.0, "iters": 150, "batch": 4, "trials": 3,
    "gap_tol": 0.05, "directions": ["iso", "data"],
}


def test_smooth_deterministic_across_jobs(tmp_path, monkeypatch):
    # Four usable CPUs whatever the machine has, so --jobs 3 runs three
    # trial groups (group g holds trials g, g + 3, ...), and trial counts
    # that no group count divides.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    for trials in (1, 3, 5, 7):
        cfg = write_config(tmp_path, "c.json", {**SMALL_SMOOTH, "trials": trials})
        outputs = []
        for jobs in ("1", "2", "3"):
            out = tmp_path / f"{trials}-{jobs}"
            assert main(["smooth", "--config", cfg, "--out", str(out),
                         "--seed", "9", "--jobs", jobs]) == 0
            outputs.append([(out / name).read_bytes()
                            for name in ("smooth.csv", "summary.json")])
        assert outputs[0] == outputs[1] == outputs[2], trials


def test_smooth_jobs_make_one_engine_call_per_process(tmp_path, monkeypatch):
    # Each call appends the trials it holds to a file, since a forked
    # worker's memory dies with it.
    log = tmp_path / "calls"
    engine = effdim.cli.rs_lockstep
    root = RngStream(3)
    trial_of = {root.child(k).child(2).stream_id: k for k in range(5)}

    def spy(A, b, streams, *args):
        with open(log, "a") as fh:
            fh.write(json.dumps([trial_of[s.stream_id] for s in streams]) + "\n")
        return engine(A, b, streams, *args)

    def calls(jobs):
        log.write_text("")
        effdim.cli.run_smooth({**SMALL_SMOOTH, "trials": 5}, 3, jobs)
        return sorted(json.loads(line) for line in log.read_text().splitlines())

    monkeypatch.setattr(effdim.cli, "rs_lockstep", spy)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert calls(1) == [[0, 1, 2, 3, 4]]
    # Two usable CPUs: two groups, not four, so no process runs two calls.
    assert calls(4) == ([[0, 2, 4], [1, 3]] if FORK else [[0, 1, 2, 3, 4]])


def test_huge_sigma1_smooth_exits_3_alike_at_any_jobs(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", HUGE_SIGMA1["smooth"])
    firsts = []
    for jobs in ("1", "2"):
        out = tmp_path / jobs
        assert main(["smooth", "--config", cfg, "--out", str(out), "--jobs", jobs]) == 3
        firsts.append(capsys.readouterr().err.splitlines()[0])
        assert not out.exists()
    assert firsts[0] == firsts[1] and firsts[0].startswith(OVERFLOW_ERRORS)


def _identity_run(tmp_path, r, centered, jobs="1"):
    config = {"spectra": {"p": {"kind": "power_law", "d": 3, "sigma1": 3.0, "alpha": 1.0}},
              "n_grid": [16], "trials": 30, "r": r, "centered": centered,
              "search": {"restarts": 1, "iters": 1}}
    out = tmp_path / f"r{r}-{centered}-{jobs}"
    code = main(["concentration", "--config", write_config(tmp_path, "c.json", config),
                 "--out", str(out), "--jobs", jobs])
    return code, out


def test_odd_r_wick_term_is_zero(tmp_path):
    # At odd r the Gaussian moments vanish, so centring changes no value.
    values = []
    for centered in (True, False):
        code, out = _identity_run(tmp_path, 17, centered)
        assert code == 0
        with open(out / "deviations.csv") as fh:
            values.append([row["value"] for row in csv.DictReader(fh)])
    assert values[0] == values[1] and len(values[0]) == 30


def test_centred_identity_above_the_wick_cap_exits_3(tmp_path, capsys):
    # r = 14, the first even r whose (r - 1)!! pairings exceed the cap,
    # stops before building the table, alike at any --jobs; uncentred runs
    # need no table and take any r.
    firsts = []
    for jobs in ("1", "2"):
        code, out = _identity_run(tmp_path, 14, True, jobs)
        assert code == 3 and not out.exists()
        firsts.append(capsys.readouterr().err.splitlines()[0])
    assert firsts[0] == firsts[1] == (
        "runtime error: LimitExceeded: Wick pairing table at r 14: "
        "135135 pairings exceed the cap of 10395")
    assert _identity_run(tmp_path, 14, False)[0] == 0


@pytest.mark.skipif(not FORK, reason="parallel_map forks on Linux only")
def test_smooth_failure_in_a_worker_keeps_its_type_at_jobs_2(tmp_path, monkeypatch, capsys):
    # Only the worker's group (trial 1) fails, so its error crosses the
    # pipe; it must still name a declared limit and exit 3.
    engine = effdim.cli.rs_lockstep
    trial_0 = RngStream(0).child(0).child(2)

    def engine_failing_off_trial_0(A, b, streams, *args):
        if trial_0 not in streams:
            raise OverflowError("raised off trial 0")
        return engine(A, b, streams, *args)

    monkeypatch.setattr(effdim.cli, "rs_lockstep", engine_failing_off_trial_0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    cfg = write_config(tmp_path, "c.json", {**SMALL_SMOOTH, "trials": 2})
    out = tmp_path / "worker"
    assert main(["smooth", "--config", cfg, "--out", str(out), "--jobs", "2"]) == 3
    err = capsys.readouterr().err
    assert err.splitlines()[0] == "runtime error: OverflowError: raised off trial 0"
    assert not out.exists()


def test_smooth_rows_do_not_depend_on_the_batch():
    # All runs of a call advance in lockstep; a row must not depend on
    # which other runs share the batch or on when they stop.
    config = {
        "spectrum": {"kind": "power_law", "d": 8, "sigma1": 1.0, "alpha": 1.0},
        "n": 64, "radius": 2.0, "iters": 300, "batch": 4, "trials": 10,
        "gap_tol": 0.03, "directions": ["iso", "data"],
    }

    def rows(**changes):
        return effdim.cli.run_smooth({**config, **changes}, 5, 1)[1]["smooth.csv"]

    both = rows()
    # The runs leave the batch in different blocks, and some never stop.
    assert len({row["iters_to_tol"] // 64 for row in both}) >= 4
    assert any(row["iters_to_tol"] < 0 for row in both)
    for direction in ("iso", "data"):
        assert rows(directions=[direction]) == [
            row for row in both if row["direction"] == direction]
    assert rows(trials=6) == [row for row in both if row["trial"] < 6]
    # Rows come sorted by (trial, direction), whatever the config's order.
    keys = [(row["trial"], row["direction"]) for row in both]
    assert keys == sorted(keys)
    assert rows(directions=["data", "iso"]) == both


def test_smooth_summary_pairs_directions(tmp_path):
    # 40 iterations leave some runs unreached: they count as iters + 1.
    config = {
        "spectrum": {"kind": "power_law", "d": 8, "sigma1": 1.0, "alpha": 1.0},
        "n": 32, "radius": 2.0, "iters": 40, "batch": 4, "trials": 6,
        "gap_tol": 0.05,
    }
    out = tmp_path / "o"
    assert main(["smooth", "--config", write_config(tmp_path, "c.json", config),
                 "--out", str(out), "--seed", "3"]) == 0
    with open(out / "smooth.csv", newline="") as fh:
        hits = {(row["trial"], row["direction"]): int(row["iters_to_tol"])
                for row in csv.DictReader(fh)}
    hits = {key: 41 if hit < 0 else hit for key, hit in hits.items()}
    pairs = [(hits[t, "iso"], hits[t, "data"]) for t in map(str, range(6))]
    logs = [math.log(data / iso) for iso, data in pairs]
    paired = json.loads((out / "summary.json").read_text())["paired"]
    assert paired["pairs"] == 6
    assert paired["wins"] == sum(data < iso for iso, data in pairs)
    assert paired["censored"] == sum(max(pair) == 41 for pair in pairs)
    assert paired["censored"] > 0
    assert paired["mean_log_ratio"] == pytest.approx(np.mean(logs), abs=1e-12)
    assert paired["stderr"] == pytest.approx(
        np.std(logs, ddof=1) / math.sqrt(6), abs=1e-12)

    config["directions"] = ["iso"]
    out = tmp_path / "iso"
    assert main(["smooth", "--config", write_config(tmp_path, "i.json", config),
                 "--out", str(out), "--seed", "3"]) == 0
    assert "paired" not in json.loads((out / "summary.json").read_text())


PRECOND_CFG = {
    "spectrum": {"kind": "power_law", "d": 6, "sigma1": 1.0, "alpha": 1.0},
    "n": 200, "loss": "logistic", "lam": 0.01,
    "iters": 50, "probes": 10, "gap_tol": 1e-6,
}


def test_precondition_summary(tmp_path):
    cfg = write_config(tmp_path, "c.json", PRECOND_CFG)
    out = tmp_path / "o"
    assert main(["precondition", "--config", cfg, "--out", str(out),
                 "--seed", "4"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["L_rel"] <= 1.0 + 1e-9
    assert summary["sigma_rel"] >= 1.0 / summary["kappa"] - 1e-9
    assert summary["reached_precond"]
    assert summary["rounds_precond"] < summary["rounds_gd"]


def test_precondition_formula_mu(tmp_path):
    config = dict(PRECOND_CFG, mu_method="formula", probes=3, gd_iters=100)
    cfg = write_config(tmp_path, "c.json", config)
    out = tmp_path / "o"
    assert main(["precondition", "--config", cfg, "--out", str(out),
                 "--seed", "4"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    sp = make_spectrum("power_law", d=6, sigma1=1.0, alpha=1.0)
    loss = Loss("logistic")
    mu = mu_formula(sp, 200, 200, loss.hess_lipschitz, loss.second_max)
    assert mu > 0
    assert summary["mu"] == mu
    assert summary["kappa"] == kappa_bound(0.01, mu)


def test_precondition_formula_mu_bounds_ridge(tmp_path):
    # Ridge Hessians do not move with x; mu, printed or measured, must
    # still cover the gap between the two sample covariances, so that
    # L_rel <= 1.  The measured mu is that gap exactly, so L_rel = 1 is
    # attained and may round one ulp above; it gets the 1e-9 slack of the
    # other measured-mu checks.
    for mu_method, slack in (("formula", 0.0), ("measured", 1e-9)):
        cfg = write_config(tmp_path, f"{mu_method}.json", {
            "spectrum": {"kind": "power_law", "d": 5, "sigma1": 1.0, "alpha": 1.0},
            "n": 50, "loss": "ridge", "lam": 0.1, "mu_method": mu_method,
            "iters": 20, "probes": 3, "gd_iters": 20,
        })
        for seed in range(6):
            out = tmp_path / f"{mu_method}{seed}"
            assert main(["precondition", "--config", cfg, "--out", str(out),
                         "--seed", str(seed)]) == 0
            summary = json.loads((out / "summary.json").read_text())
            assert summary["mu"] > 0
            assert summary["L_rel"] <= 1.0 + slack


def test_precondition_measured_mu_covers_the_gap_at_zero(tmp_path):
    # The benchmark's criterion-8 call at seed 1.  The logistic loss has
    # loss''(0) = 1/4, so the deviation at x = 0 is a quarter of the gap
    # between the two sample covariances; the measured mu must cover it.
    config = {
        "spectrum": {"kind": "power_law", "d": 20, "sigma1": 1.0, "alpha": 1.0},
        "n": 2000, "n_aux": 2000, "loss": "logistic", "lam": 0.01,
        "probes": 10, "gap_tol": 1e-6,
    }
    cfg = write_config(tmp_path, "c.json", config)
    out = tmp_path / "o"
    seed = 1
    assert main(["precondition", "--config", cfg, "--out", str(out),
                 "--seed", str(seed)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    sp = make_spectrum("power_law", d=20, sigma1=1.0, alpha=1.0)
    A = sample_gaussian(sp, 2000, RngStream(seed).child(0)).rows
    A_aux = sample_gaussian(sp, 2000, RngStream(seed).child(1)).rows
    at_zero = 0.25 * np.linalg.norm(A.T @ A / 2000 - A_aux.T @ A_aux / 2000, 2)
    assert summary["mu"] >= at_zero * (1 - 1e-12)
    assert summary["L_rel"] <= 1.0 + 1e-9


def test_precondition_builds_each_probe_hessian_once(monkeypatch):
    # mu and the relative condition share one data Hessian of each problem
    # at x = 0 and at each probe; every other data Hessian is one that a
    # Newton step asks for.
    calls = {"data": 0, "newton": 0}
    data_hessian, newton = ErmProblem.data_hessian, effdim.precond.newton_minimize

    def spy_data_hessian(self, x):
        calls["data"] += 1
        return data_hessian(self, x)

    def spy_newton(value, grad, hess, x0, **kwargs):
        def counted(x):
            calls["newton"] += 1
            return hess(x)
        return newton(value, grad, counted, x0, **kwargs)

    monkeypatch.setattr(ErmProblem, "data_hessian", spy_data_hessian)
    monkeypatch.setattr(effdim.precond, "newton_minimize", spy_newton)
    for mu_method in ("measured", "formula"):
        calls.update(data=0, newton=0)
        effdim.cli.run_precondition(dict(PRECOND_CFG, mu_method=mu_method), 4, 1)
        assert calls["newton"] > 0
        assert calls["data"] == 2 * (PRECOND_CFG["probes"] + 1) + calls["newton"]


def test_precondition_deterministic_across_jobs(tmp_path):
    cfg = write_config(tmp_path, "c.json", PRECOND_CFG)
    blobs = []
    for name, jobs in [("a", "1"), ("b", "2")]:
        out = tmp_path / name
        assert main(["precondition", "--config", cfg, "--out", str(out),
                     "--seed", "4", "--jobs", jobs]) == 0
        blobs.append((out / "precondition.csv").read_bytes())
    assert blobs[0] == blobs[1]
