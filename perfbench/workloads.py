"""The effdim CLI calls each benchmark workload makes.

Configs are derived from the acceptance criteria; sizes and search budgets
are fixed here so that one pass over a workload takes seconds, not minutes.
The workload seed is given to every call as ``--seed``, so one seed always
gives the same inputs.  Why each workload exists is recorded beside its name
in ``BENCHMARK.json``.
"""

from __future__ import annotations

from typing import NamedTuple


class Call(NamedTuple):
    """One CLI invocation: ``effdim <subcommand> --config <config>``."""

    subcommand: str
    label: str
    config: dict

    @property
    def name(self) -> str:
        return f"{self.subcommand}-{self.label}"


_ISO5 = {"iso": {"kind": "isotropic", "d": 5, "sigma1": 1.0}}
_CRITERION4_N_GRID = [64, 128, 256, 512, 1024, 2048, 4096]

WORKLOADS: dict[str, list[Call]] = {
    # Centred identity products: the projected-gradient search in
    # empirical_sup_deviation, with the per-restart Isserlis value and
    # gradient loops for r=4; no precond, smoothing or entropy code runs.
    "conc-identity": [
        Call("concentration", "r2", {
            "spectra": _ISO5, "n_grid": _CRITERION4_N_GRID, "trials": 30,
            "r": 2, "centered": True,
            "search": {"restarts": 4, "iters": 5},
        }),
        Call("concentration", "r4", {
            "spectra": _ISO5, "n_grid": [256], "trials": 30,
            "r": 4, "centered": True,
            "search": {"restarts": 2, "iters": 5},
        }),
    ],
    # Centred relu x relu: every trial draws and projects its own 10^6-row
    # Monte-Carlo reference, so memory and threads matter here.  Its row
    # count, not d, sets most of the cost; with the schema floor of 30
    # trials, d=1 and the smallest search make the cheapest call that
    # takes this path.
    "conc-relu": [
        Call("concentration", "relu", {
            "spectra": {"iso": {"kind": "isotropic", "d": 1, "sigma1": 1.0}},
            "n_grid": [256], "trials": 30, "r": 2,
            "fs": [{"kind": "relu"}, {"kind": "relu"}], "centered": True,
            "search": {"restarts": 1, "iters": 1},
        }),
    ],
    # No concentration code: Hessian-deviation search, Newton inner solves
    # and randomized smoothing (criterion 8 and criteria 10/11 configs).
    "optim": [
        Call("precondition", "criterion8", {
            "spectrum": {"kind": "power_law", "d": 20, "sigma1": 1.0, "alpha": 1.0},
            "n": 2000, "n_aux": 2000, "loss": "logistic", "lam": 0.01,
            "probes": 10, "gap_tol": 1e-6,
        }),
        Call("smooth", "criterion10", {
            "spectrum": {"kind": "power_law", "d": 64, "sigma1": 1.0, "alpha": 1.0},
            "n": 512, "radius": 2.0, "iters": 5000, "batch": 16, "trials": 6,
            "gap_tol": 0.01, "directions": ["iso", "data"],
        }),
    ],
    # The entropy layer: a d=5 grid cover verified by dense distance blocks,
    # with the delete_fraction negative control, plus entropy and effdim on
    # a large power-law spectrum.
    "cover": [
        Call("cover", "d5", {
            "axes": [4.0, 2.0, 1.0, 0.5, 0.25], "eps": 1.0,
            "n_samples": 60000, "delete_fraction": 0.1,
        }),
        Call("entropy", "power-law", {
            "spectrum": {"kind": "power_law", "d": 1000000, "sigma1": 1.0,
                         "alpha": 0.5},
            "eps_grid": [0.5, 0.2, 0.1, 0.05, 0.02, 0.01], "r": 2,
        }),
        Call("effdim", "power-law", {
            "spectrum": {"kind": "power_law", "d": 1000000, "sigma1": 1.0,
                         "alpha": 0.5},
            "r_values": [1, 2, 3, 4, 6, 8],
        }),
    ],
}
