"""Smoke test of the benchmark's span tracer on one tiny call per layer.

The tracer wraps library functions from outside and its hooks read their
argument names and results; a rename in ``src/`` would make a hook raise
(the call then exits non-zero) or, for a removed target, read 0 silently,
so the set of targets that no longer resolve is pinned too.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import effdim.cli

ROOT = Path(__file__).parents[1]

# subcommand, config, values the call's hooks must record
TINY_CALLS = [
    # identity r = 2: the exact-r2 hook reads the search's arguments and .value
    ("concentration", {
        "spectra": {"p": {"kind": "power_law", "d": 3, "sigma1": 1.0, "alpha": 1.0}},
        "n_grid": [16], "trials": 30, "r": 2, "centered": True,
        "search": {"restarts": 1, "iters": 2}},
     {"concentration.r2_shortfall_rel", "spectrum.rows", "cli.bytes_written"}),
    ("precondition", {
        "spectrum": {"kind": "power_law", "d": 4, "sigma1": 1.0, "alpha": 1.0},
        "n": 64, "loss": "logistic", "lam": 0.1, "probes": 3, "iters": 20,
        "gd_iters": 50},
     {"spectrum.rows", "cli.bytes_written"}),
    ("smooth", {
        "spectrum": {"kind": "power_law", "d": 4, "sigma1": 1.0, "alpha": 1.0},
        "n": 16, "radius": 1.0, "iters": 64, "batch": 2, "trials": 2},
     {"spectrum.rows", "cli.bytes_written"}),
    ("cover", {"axes": [2.0, 1.0], "eps": 0.5, "n_samples": 200,
               "delete_fraction": 0.1},
     {"entropy.cover_centers", "cli.bytes_written"}),
]


def test_tracer_runs_each_layer_without_failures(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(effdim.cli.__file__).parents[1]))
    for name, config, expected in TINY_CALLS:
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps(config))
        spans = tmp_path / f"{name}.spans.json"
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(spans), name,
             "--config", str(cfg), "--out", str(tmp_path / name), "--seed", "1"],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, (name, proc.stderr)
        record = json.loads(spans.read_text())
        assert record["failures"] == [], name
        assert expected <= {value_name for value_name, _ in record["values"]}, name


# Tracer targets whose library function is gone: their metrics read 0.  A
# repaired target leaves this set; a newly stale one fails the test.
STALE_TARGETS = {
    "effdim.concentration._gaussian_product_moment",
    "effdim.concentration.tensor_deviation",
    "effdim.linalg.sym_eigh",
    "effdim.precond.GradientServer.full_gradient",
    "effdim.smoothing.rs_optimize",
}


def test_tracer_targets_resolve_except_the_known_stale_ones():
    # Resolves TARGETS as tracer.install does, without wrapping anything.
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    unresolved = set()
    for modname, attr, _, _ in tracer.TARGETS:
        owner = sys.modules.get(modname)
        *classname, fname = attr.split(".")
        if owner is not None and classname:
            owner = vars(owner).get(classname[0])
        if not callable(vars(owner).get(fname) if owner is not None else None):
            unresolved.add(f"{modname}.{attr}")
    assert unresolved == STALE_TARGETS
    assert callable(getattr(sys.modules.get("effdim._parallel"), "parallel_map", None))
