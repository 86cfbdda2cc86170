import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import effdim.cli
from effdim.cli import SCHEMAS, ConfigInvalid, main, validate
from effdim.precond import Loss, kappa_bound, mu_formula
from effdim.rng import RngStream
from effdim.spectrum import make_spectrum, sample_gaussian


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
    for k, (subcommand, text) in enumerate(NON_FINITE + [EPS_ABOVE_ONE]
                                           + INTEGRAL_FLOATS):
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


def test_runtime_failure_exits_3(tmp_path, capsys):
    # cover construction refuses d > 5 and grids over its cell cap at run
    # time, not validation time
    for axes, eps in (([1.0] * 6, 0.5), ([1000.0, 1000.0], 0.01)):
        cfg = write_config(tmp_path, "c.json",
                           {"axes": axes, "eps": eps, "n_samples": 10})
        assert main(["cover", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--validate-only"]) == 0
        capsys.readouterr()
        assert main(["cover", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
        assert "runtime error: DimTooLarge: " in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


def test_unexpected_error_exits_1_with_traceback(tmp_path, monkeypatch, capsys):
    def broken(config, seed, jobs):
        raise TypeError("bug in a runner")

    monkeypatch.setitem(effdim.cli.RUNNERS, "effdim", broken)
    cfg = write_config(tmp_path, "c.json", EFFDIM_CFG)
    assert main(["effdim", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert not (tmp_path / "o").exists()
    err = capsys.readouterr().err
    assert "Traceback" in err and "TypeError: bug in a runner" in err


# numpy is the only runtime dependency: no CLI import or run loads these.
NOT_ON_RUN_PATH = ("scipy", "jsonschema")


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
        if key in schema:
            yield from _schema_nodes(schema[key], f"{path}.{key}")


def test_schemas_pass_the_metaschema():
    # main validates without re-checking the schemas; they are checked here.
    # Every node, also those no config visits, is an object with only the
    # keywords and types ``validate`` implements.
    for name, schema in SCHEMAS.items():
        jsonschema.Draft202012Validator.check_schema(schema)
        for path, node in _schema_nodes(schema, name):
            assert isinstance(node, dict), path
            assert set(node) <= effdim.cli._KEYWORDS, path
            assert node.get("type", "object") in effdim.cli._TYPES, path


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
                        min_size=schema.get("minItems", 0), max_size=3)
    props = schema.get("properties", {})
    required = schema.get("required", [])
    fixed = st.fixed_dictionaries(
        {key: instances(props[key]) for key in required},
        optional={key: instances(sub) for key, sub in props.items()
                  if key not in required})
    if "additionalProperties" not in schema:
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
    yield path
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
    # One valid config, then each node deleted or replaced by each BAD_VALUE.
    schema = SCHEMAS[name]
    oracle = Oracle(schema)
    config = data.draw(instances(schema))
    assert oracle.is_valid(config)
    assert _accepts(schema, config)
    for path in _nodes(config):
        for op in BAD_VALUES + (["delete"] if path else []):
            mutated = _mutate(config, path, op)
            assert _accepts(schema, mutated) == oracle.is_valid(mutated), (path, op)


def test_validator_rejects_unknown_keywords_and_names_the_path():
    with pytest.raises(NotImplementedError):
        validate({"type": "number", "multipleOf": 2}, 4)
    for schema in ({"type": "string"}, {"type": ["number", "null"]}, True):
        with pytest.raises(NotImplementedError):
            validate(schema, 4)
    with pytest.raises(NotImplementedError):
        validate(SCHEMAS["effdim"] | {"properties": {"r_values": {"uniqueItems": True}}},
                 {"spectrum": {"kind": "isotropic"}, "r_values": [1]})
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


def test_seed_comes_from_the_flag_only(tmp_path, monkeypatch):
    # Neither the environment nor a config key sets the seed.
    cfg = write_config(tmp_path, "c.json", {**EFFDIM_CFG, "seed": 99})
    monkeypatch.setenv("EFFDIM_SEED", "99")
    for name, extra, seed in (("default", [], 0), ("flag", ["--seed", "7"], 7)):
        out = tmp_path / name
        assert main(["effdim", "--config", cfg, "--out", str(out)] + extra) == 0
        lines = (out / "effdim.csv").read_text().splitlines()[1:]
        assert {line.split(",")[0] for line in lines} == {str(seed)}
        assert json.loads((out / "manifest.json").read_text())["seed"] == seed


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


def test_concentration_deterministic_across_jobs_and_reruns(tmp_path):
    cfg = write_config(tmp_path, "c.json", {
        "spectra": {"iso": {"kind": "isotropic", "d": 4, "sigma1": 1.0}},
        "n_grid": [32, 64], "trials": 30, "r": 2,
        "search": {"restarts": 4, "iters": 30},
    })
    outs = []
    for name, jobs in [("a", "1"), ("b", "4"), ("c", "1")]:
        out = tmp_path / name
        assert main(["concentration", "--config", cfg, "--out", str(out),
                     "--seed", "5", "--jobs", jobs]) == 0
        outs.append((out / "deviations.csv").read_bytes())
    assert outs[0] == outs[1] == outs[2]


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


def test_smooth_deterministic_across_jobs(tmp_path):
    cfg = write_config(tmp_path, "c.json", {
        "spectrum": {"kind": "power_law", "d": 8, "sigma1": 1.0, "alpha": 1.0},
        "n": 32, "radius": 2.0, "iters": 150, "batch": 4, "trials": 3,
        "gap_tol": 0.05, "directions": ["iso", "data"],
    })
    blobs = []
    for name, jobs in [("a", "1"), ("b", "3")]:
        out = tmp_path / name
        assert main(["smooth", "--config", cfg, "--out", str(out),
                     "--seed", "9", "--jobs", jobs]) == 0
        blobs.append((out / "smooth.csv").read_bytes())
    assert blobs[0] == blobs[1]


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


def test_precondition_deterministic_across_jobs(tmp_path):
    cfg = write_config(tmp_path, "c.json", PRECOND_CFG)
    blobs = []
    for name, jobs in [("a", "1"), ("b", "2")]:
        out = tmp_path / name
        assert main(["precondition", "--config", cfg, "--out", str(out),
                     "--seed", "4", "--jobs", jobs]) == 0
        blobs.append((out / "precondition.csv").read_bytes())
    assert blobs[0] == blobs[1]
