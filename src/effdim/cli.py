"""Command-line experiment runner.

Each subcommand reads a JSON config, writes CSV data with (seed, trial)
provenance columns, a JSON summary, and a run manifest holding the
config hash and sha256 checksums of every output.  All randomness flows
through counter-based streams keyed by the master seed, and results are
reduced in a canonical order, so outputs are byte-identical for any
``--jobs`` value.

Runners are pure: ``run_x(config, seed, jobs)`` returns ``(summary,
{csv_name: rows})``, where the key order of each row dict is the CSV
header.  ``main`` alone owns ``--out`` and writes every file in it.
Each runner is its experiment's whole pipeline, from config to rows; only
``run_concentration`` and ``run_smooth`` use ``jobs``, for their (n, trial)
tasks and their trial groups.  A config check the schema cannot express is
made once, in the runner (ConfigInvalid).

Exit codes: 0 success, 2 invalid config, 3 declared computational limit
(``DECLARED_LIMITS``), 1 any other error, with its traceback on stderr.
A failed run removes the output directory if it created it.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import hashlib
import json
import math
import operator
import shutil
import sys
import traceback
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .entropy import build_cover, eps_entropy_bound, sample_ellipsoid, \
    unit_entropy_bound, verify_cover
from ._parallel import parallel_map, processes
from .concentration import MC_REF_ROWS, Nonlinearity, SearchConfig, \
    empirical_sup_deviation
from .linalg import LimitExceeded
from .precond import ErmProblem, Loss, hessian_deviation_sup, kappa_bound, \
    mu_formula, precond_bgd, relative_condition, solve_erm, vanilla_gd
from .rng import RngStream
from .smoothing import SmoothingConfig, rs_lockstep
from .spectrum import CovarianceSpectrum, effective_dimension, make_spectrum, \
    sample_gaussian


class ConfigInvalid(Exception):
    pass


# Limits the library declares and raises on purpose (exit 3), float64
# overflow among them: ``main`` runs each runner with numpy overflow raising
# FloatingPointError.  Any other exception escaping a runner is a bug (exit 1).
DECLARED_LIMITS = (LimitExceeded, OverflowError, FloatingPointError)


_SPECTRUM_SCHEMA = {
    "type": "object",
    "properties": {
        "kind": {"enum": ["isotropic", "power_law", "custom"]},
        "d": {"type": "integer", "minimum": 1},
        "sigma1": {"type": "number", "exclusiveMinimum": 0},
        "alpha": {"type": "number", "exclusiveMinimum": 0},
        "values": {"type": "array", "minItems": 1,
                   "items": {"type": "number", "exclusiveMinimum": 0}},
    },
    "required": ["kind"],
    "additionalProperties": False,
}

_SEARCH_SCHEMA = {
    "type": "object",
    "properties": {
        "restarts": {"type": "integer", "minimum": 1},
        "iters": {"type": "integer", "minimum": 1},
        "step": {"type": "number", "exclusiveMinimum": 0},
    },
    "additionalProperties": False,
}

SCHEMAS = {
    "effdim": {
        "type": "object",
        "properties": {
            "spectrum": _SPECTRUM_SCHEMA,
            "r_values": {"type": "array", "items": {"type": "number", "minimum": 1},
                         "minItems": 1},
        },
        "required": ["spectrum", "r_values"],
        "additionalProperties": False,
    },
    "entropy": {
        "type": "object",
        "properties": {
            "spectrum": _SPECTRUM_SCHEMA,
            "eps_grid": {"type": "array", "minItems": 1,
                         "items": {"type": "number", "exclusiveMinimum": 0,
                                   "maximum": 1}},
            "r": {"type": "number", "minimum": 1},
            "c": {"type": "number", "exclusiveMinimum": 0},
        },
        "required": ["spectrum", "eps_grid"],
        "additionalProperties": False,
    },
    "cover": {
        "type": "object",
        "properties": {
            "axes": {"type": "array", "minItems": 1,
                     "items": {"type": "number", "exclusiveMinimum": 0}},
            "eps": {"type": "number", "exclusiveMinimum": 0},
            "n_samples": {"type": "integer", "minimum": 1},
            "delete_fraction": {"type": "number", "minimum": 0, "maximum": 1},
        },
        "required": ["axes", "eps", "n_samples"],
        "additionalProperties": False,
    },
    "concentration": {
        "type": "object",
        "properties": {
            "spectra": {
                "type": "object",
                "additionalProperties": _SPECTRUM_SCHEMA,
                "minProperties": 1,
            },
            "n_grid": {"type": "array", "minItems": 1, "uniqueItems": True,
                       "items": {"type": "integer", "minimum": 2}},
            "trials": {"type": "integer", "minimum": 30},
            "r": {"type": "integer", "minimum": 2},
            "fs": {"type": "array", "items": {
                "type": "object",
                "properties": {"kind": {"enum": ["identity", "relu", "clip"]},
                               "bound": {"type": "number", "exclusiveMinimum": 0}},
                "required": ["kind"],
                "additionalProperties": False,
            }},
            "centered": {"type": "boolean"},
            "search": _SEARCH_SCHEMA,
        },
        "required": ["spectra", "n_grid", "trials", "r"],
        "additionalProperties": False,
    },
    "precondition": {
        "type": "object",
        "properties": {
            "spectrum": _SPECTRUM_SCHEMA,
            "n": {"type": "integer", "minimum": 2},
            "n_aux": {"type": "integer", "minimum": 2},
            "loss": {"enum": ["logistic", "ridge"]},
            "lam": {"type": "number", "exclusiveMinimum": 0},
            "mu_method": {"enum": ["measured", "formula"]},
            "iters": {"type": "integer", "minimum": 1},
            "probes": {"type": "integer", "minimum": 1},
            "gap_tol": {"type": "number", "exclusiveMinimum": 0},
            "gd_iters": {"type": "integer", "minimum": 1},
        },
        "required": ["spectrum", "n", "loss", "lam"],
        "additionalProperties": False,
    },
    "smooth": {
        "type": "object",
        "properties": {
            "spectrum": _SPECTRUM_SCHEMA,
            "n": {"type": "integer", "minimum": 1},
            "radius": {"type": "number", "exclusiveMinimum": 0},
            "iters": {"type": "integer", "minimum": 1},
            "batch": {"type": "integer", "minimum": 1},
            "trials": {"type": "integer", "minimum": 1},
            "gap_tol": {"type": "number", "exclusiveMinimum": 0},
            "directions": {"type": "array", "minItems": 1, "uniqueItems": True,
                           "items": {"enum": ["iso", "data"]}},
            "u": {"type": "number", "exclusiveMinimum": 0},
        },
        "required": ["spectrum", "n", "radius", "iters", "batch", "trials"],
        "additionalProperties": False,
    },
}


# The JSON types and schema keywords of ``validate``: exactly those SCHEMAS use.
_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "boolean": lambda v: isinstance(v, bool),
    # A JSON integer literal only: draft 2020-12 also admits 30.0, which then
    # crashes the run where the library needs an int.
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
}
_KEYWORDS = {"type", "enum", "minimum", "exclusiveMinimum", "maximum",
             "minItems", "uniqueItems", "minProperties", "items", "properties",
             "additionalProperties", "required"}


def validate(schema: dict, value, path: str = "$") -> None:
    """Raise ConfigInvalid, naming the path, if ``value`` breaks ``schema``.

    The subset of JSON Schema draft 2020-12 in ``_KEYWORDS`` and ``_TYPES``,
    except that an integer must be written as one and ``uniqueItems``
    compares with ``==`` (true equals 1).  ``additionalProperties: false``
    makes any key that ``properties`` does not list an error.  The schemas
    are constants, which the test suite checks against this subset.
    """
    if "type" in schema and not _TYPES[schema["type"]](value):
        raise ConfigInvalid(f"{path}: {value!r} is not of type {schema['type']}")
    if "enum" in schema and value not in schema["enum"]:
        raise ConfigInvalid(f"{path}: {value!r} is not one of {schema['enum']}")
    if _TYPES["number"](value):
        for key, bad in (("minimum", operator.lt), ("exclusiveMinimum", operator.le),
                         ("maximum", operator.gt)):
            if key in schema and bad(value, schema[key]):
                raise ConfigInvalid(f"{path}: {value!r} breaks {key} {schema[key]}")
    if isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            raise ConfigInvalid(f"{path}: fewer than {schema['minItems']} items")
        if schema.get("uniqueItems") and any(x in value[:i] for i, x in enumerate(value)):
            raise ConfigInvalid(f"{path}: items are not unique")
        for i, item in enumerate(value):
            if "items" in schema:
                validate(schema["items"], item, f"{path}[{i}]")
    if isinstance(value, dict):
        if len(value) < schema.get("minProperties", 0):
            raise ConfigInvalid(f"{path}: fewer than {schema['minProperties']} properties")
        for key in schema.get("required", []):
            if key not in value:
                raise ConfigInvalid(f"{path}: missing required property {key!r}")
        props = schema.get("properties", {})
        for key, item in value.items():
            sub = props.get(key, schema.get("additionalProperties"))
            if sub is False:
                raise ConfigInvalid(f"{path}: unknown key {key!r}")
            if sub is not None:
                validate(sub, item, f"{path}.{key}")


# The keys each spectrum kind reads; the schema cannot tie keys to kinds.
_SPECTRUM_KEYS = {"custom": {"kind", "values"},
                  "isotropic": {"kind", "d", "sigma1"},
                  "power_law": {"kind", "d", "sigma1", "alpha"}}


def _spectrum(cfg: dict) -> CovarianceSpectrum:
    unread = sorted(set(cfg) - _SPECTRUM_KEYS[cfg["kind"]])
    if unread:
        raise ConfigInvalid(f"spectrum: {cfg['kind']} takes no {', '.join(unread)}")
    try:
        return make_spectrum(
            cfg["kind"], d=cfg.get("d"), sigma1=cfg.get("sigma1", 1.0),
            alpha=cfg.get("alpha"), values=cfg.get("values"),
        )
    except ValueError as exc:
        raise ConfigInvalid(f"spectrum: {exc}") from exc


def _write_csv(path: Path, rows: list[dict]) -> None:
    """The header is the key order of the first row.  A NaN or infinite
    float raises ValueError, as it does in :func:`_write_json`."""
    if not all(math.isfinite(v) for row in rows for v in row.values()
               if isinstance(v, float)):
        raise ValueError(f"{path.name}: out of range float values are not allowed")
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def _write_json(path: Path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_effdim(config, seed, jobs):
    sp = _spectrum(config["spectrum"])
    rows = [
        {"seed": seed, "trial": 0, "r": float(r),
         "d_eff": effective_dimension(sp, r)}
        for r in config["r_values"]
    ]
    summary = {"d": sp.dim, "sigma1": float(sp.sigmas[0]),
               "d_eff": {str(r["r"]): r["d_eff"] for r in rows}}
    return summary, {"effdim.csv": rows}


def run_entropy(config, seed, jobs):
    sp = _spectrum(config["spectrum"])
    r = config.get("r", 1)
    c = config.get("c", 1.0)
    eps_grid = config["eps_grid"]
    rows = [{"seed": seed, "trial": 0, "eps": float(eps), "m_eps": me, "bound": bound}
            for eps, (me, bound) in zip(eps_grid,
                                        eps_entropy_bound(sp, eps_grid, r=r, c=c))]
    rows.sort(key=lambda row: -row["eps"])
    summary = {"d": sp.dim, "r": r, "c": c}
    return summary, {"entropy.csv": rows}


def run_cover(config, seed, jobs):
    try:
        axes = CovarianceSpectrum(config["axes"])
    except ValueError as exc:
        raise ConfigInvalid(f"axes: {exc}") from exc
    eps = config["eps"]
    cover = build_cover(axes, eps)
    pts = sample_ellipsoid(axes, config["n_samples"], RngStream(seed).child(1))
    report = verify_cover(cover, pts)
    rows = [{
        "seed": seed, "trial": 0, "size": cover.size,
        "violations": report["violations"], "max_dist": report["max_dist"],
    }]
    frac = config.get("delete_fraction", 0.0)
    if frac > 0:
        # Negative control: drop the cap of centers with the largest first
        # coordinate.  Uniform deletion cannot damage this grid cover (any
        # point keeps an inward grid neighbor well within eps), so the
        # control removes a contiguous extreme region instead.  The sort is
        # stable, so of the cells tied at the cut the earliest are kept.
        keep = max(1, int(round(cover.size * (1.0 - frac))))
        order = np.argsort(cover.cells[:, 0], kind="stable")[:keep]
        damaged = replace(cover, cells=cover.cells[np.sort(order)])
        bad = verify_cover(damaged, pts)
        rows.append({
            "seed": seed, "trial": 1, "size": damaged.size,
            "violations": bad["violations"], "max_dist": bad["max_dist"],
        })
    bound = unit_entropy_bound(axes, radius=eps)
    summary = {
        "size": cover.size, "ln_size": float(np.log(cover.size)),
        "violations": rows[0]["violations"],
        "volumetric_lower": float(np.sum(np.log(axes.sigmas / eps))),
        "unit_entropy_bound": bound.total, "kb": bound.kb, "mb": bound.mb,
    }
    return summary, {"cover.csv": rows}


def run_concentration(config, seed, jobs):
    """Deviation estimates over ``n_grid``, with a log-log slope fit per
    spectrum.

    Trials are paired across spectra to reduce comparison variance: each
    spectrum's data for one (n, trial) task is ``sample_gaussian(sp, n,
    stream)`` on the task's own child stream, and every call restarts that
    stream at Philox counter 0, so all spectra scale the same
    standard-normal draws.  The spectra run one at a time in sorted order,
    each in one pass: one ``parallel_map`` over its tasks, then its rows
    by ``(n, trial)``, its means and std in ``n_grid`` order and its slope,
    so rows are sorted by ``(spectrum_id, n, trial)`` and depend neither on
    ``jobs`` nor on the spectra's order.

    Centered nonlinear factors are measured against one ``MC_REF_ROWS``-row
    Monte-Carlo reference per spectrum, ``sample_gaussian(sp, MC_REF_ROWS,
    root)`` with ``root = RngStream(seed)``: drawn before that spectrum's
    map, shared read-only by its tasks and dropped after it, so one
    reference is held at a time.  The root is the same stream for every
    spectrum, so spectra are paired on the reference as on the data, and
    it does not depend on ``n_grid``, ``trials`` or ``jobs``.  SplitMix64
    is a bijection, so no task stream ``root.child(task_id)``, nor any of
    its first 16 children, equals the root below a task id of 2**59.

    The deviations are homogeneous of degree r in sigma, so each spectrum
    runs divided by the power of two 2**k that puts sigma_1 in [1, 2), with
    clip bounds divided alike, and its values, means and std are multiplied
    by 2**(k r) as its pass writes them.  Every spectrum and clip bound is
    scaled before any task runs; a bound or result that this takes out of
    the normal float64 range raises OverflowError or :class:`LimitExceeded`.
    """
    spectra = {sid: _spectrum(sc) for sid, sc in config["spectra"].items()}
    if len({sp.dim for sp in spectra.values()}) != 1:
        raise ConfigInvalid("paired trials require spectra of equal dimension")
    r, n_grid, trials = config["r"], config["n_grid"], config["trials"]
    try:
        fs = [Nonlinearity(f["kind"], f.get("bound"))
              for f in config.get("fs", [{"kind": "identity"}] * r)]
    except ValueError as exc:
        raise ConfigInvalid(f"fs: {exc}") from exc
    if len(fs) != r:
        raise ConfigInvalid("fs must list one nonlinearity per factor")
    centered = config.get("centered", True)
    mode = "centered" if centered else "uncentered"
    identity = all(f.kind == "identity" for f in fs)
    search = SearchConfig(**config.get("search", {}))
    root = RngStream(seed)

    # sid -> (k, where, the spectrum over 2**k, its factors)
    unit = {}
    for sid, sp in spectra.items():
        k = int(np.frexp(sp.sigmas[0])[1]) - 1
        sigmas = np.ldexp(sp.sigmas, -k)
        if sigmas[-1] == 0:
            raise LimitExceeded(f"spectrum {sid!r}: sigma_d / sigma_1 underflows float64")
        where = f"spectrum {sid!r} at sigma_1 {sp.sigmas[0]:g}"
        unit[sid] = (k, where, CovarianceSpectrum(sigmas), [
            Nonlinearity("clip", _ldexp(f.bound, -k, f"{where}: clip bound {f.bound:g}"))
            if f.kind == "clip" else f for f in fs])

    tasks = [(n, trial) for n in n_grid for trial in range(trials)]
    rows, summary = [], {}
    for sid, (k, where, sp, sp_fs) in sorted(unit.items()):
        # The reference lives only for this spectrum's map: ``del ref`` drops it.
        if identity:
            ref = sp
        else:
            ref = sample_gaussian(sp, MC_REF_ROWS, root) if centered else None

        def run_task(task_id):
            n, trial = tasks[task_id]
            stream = root.child(task_id)
            return empirical_sup_deviation(sample_gaussian(sp, n, stream), sp_fs, r,
                                           centered=centered, ref=ref, search=search,
                                           rng=stream.child(1))

        ests = parallel_map(run_task, range(len(tasks)), jobs)
        del ref
        # by_n[i][t] is trial t at n_grid[i].
        by_n = [ests[i * trials:(i + 1) * trials] for i in range(len(n_grid))]
        what = f"{where}: a deviation"
        vals = [np.array([est.value for est in col]) for col in by_n]
        means = [{"n": n, "mean": _ldexp(float(np.mean(v)), k * r, what),
                  "std": _ldexp(float(np.std(v)), k * r, what)}
                 for n, v in zip(n_grid, vals)]
        rows += [{"seed": seed, "trial": trial, "spectrum_id": sid, "n": n,
                  "value": _ldexp(est.value, k * r, what), "mode": mode}
                 for n, col in sorted(zip(n_grid, by_n)) for trial, est in enumerate(col)]
        slope, stderr = _loglog_slope(n_grid, [m["mean"] for m in means])
        summary[sid] = {"slope": slope, "stderr": stderr, "means": means}
    return summary, {"deviations.csv": rows}


def _ldexp(value: float, exp: int, what: str) -> float:
    """value * 2**exp, raising, with ``what`` named, where a nonzero value
    leaves the normal floats."""
    try:
        out = math.ldexp(value, exp)
    except OverflowError:
        raise OverflowError(f"{what} overflows float64") from None
    if value and abs(out) < sys.float_info.min:
        raise LimitExceeded(f"{what} underflows float64")
    return out


def _loglog_slope(ns, means):
    """Log-log slope and its stderr; (None, None) for < 2 n or a mean <= 0,
    and stderr None for 2 n, which leave no residual degree of freedom."""
    if len(ns) < 2 or min(means) <= 0:
        return None, None
    x = np.log(np.asarray(ns, dtype=float))
    y = np.log(np.asarray(means, dtype=float))
    A = np.column_stack([x, np.ones_like(x)])
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    if len(x) == 2:
        return float(coef[0]), None
    resid = y - A @ coef
    s2 = float(resid @ resid) / (len(x) - 2)
    cov = s2 * np.linalg.inv(A.T @ A)
    return float(coef[0]), float(math.sqrt(max(cov[0, 0], 0.0)))


def run_precondition(config, seed, jobs):
    sp = _spectrum(config["spectrum"])
    n = config["n"]
    n_aux = config.get("n_aux", n)
    lam = config["lam"]
    loss = Loss(config["loss"])
    root = RngStream(seed)
    A = sample_gaussian(sp, n, root.child(0)).rows
    A_aux = sample_gaussian(sp, n_aux, root.child(1)).rows
    gen = root.child(2).generator()
    x_nat = gen.standard_normal(sp.dim)
    x_nat /= np.linalg.norm(x_nat)
    if loss.kind == "logistic":
        b = np.where(A @ x_nat >= 0, 1.0, -1.0)
        b_aux = np.where(A_aux @ x_nat >= 0, 1.0, -1.0)
    else:
        noise = gen.standard_normal(n + n_aux)
        b = A @ x_nat + 0.1 * noise[:n]
        b_aux = A_aux @ x_nat + 0.1 * noise[n:]
    problem = ErmProblem(A, b, loss, lam)
    aux = ErmProblem(A_aux, b_aux, loss, lam)
    probes = sample_ellipsoid(CovarianceSpectrum(np.ones(sp.dim)),
                              config.get("probes", 50), root.child(4))

    def solve(what, fn, *args, **kwargs):
        """fn(*args, **kwargs); a declared limit also names ``what`` and
        sigma_1, since the losses see the scale of the margins."""
        try:
            return fn(*args, **kwargs)
        except LimitExceeded as exc:
            raise LimitExceeded(f"{what} at sigma_1 {sp.sigmas[0]:g}: {exc}") from exc

    # The data Hessians at x = 0 and at each probe, each built once.
    # Measuring mu at the probes makes it dominate the deviation at every
    # probe by construction; x = 0 adds the covariance gap.
    points = np.vstack([np.zeros(sp.dim), probes])
    DF, Daux = (np.stack([p.data_hessian(x) for x in points]) for p in (problem, aux))
    if config.get("mu_method", "measured") == "measured":
        mu = solve("measured mu", hessian_deviation_sup, DF, Daux)
    else:
        mu = mu_formula(sp, n, n_aux, loss.hess_lipschitz, loss.second_max)
    phi = replace(aux, lam=aux.lam + mu)
    # lam I + the data term, added as ErmProblem.hessian adds them.
    eye = np.eye(sp.dim)
    cond = solve("relative condition", relative_condition,
                 problem.lam * eye + DF[1:], phi.lam * eye + Daux[1:])
    f_star = problem.value(solve("reference solve", solve_erm, problem))
    gap_tol = config.get("gap_tol", 1e-6)
    run_p = solve("Bregman inner solve", precond_bgd, problem, phi,
                  iters=config.get("iters", 200), f_star=f_star, gap_tol=gap_tol)
    run_g = vanilla_gd(problem, iters=config.get("gd_iters", 200_000),
                       f_star=f_star, gap_tol=gap_tol)
    rows = []
    for method, run in (("precond_bgd", run_p), ("vanilla_gd", run_g)):
        for t, gap in enumerate(run.gaps):
            rows.append({"seed": seed, "trial": 0, "method": method,
                         "iter": t, "gap": float(gap)})
    summary = {
        "mu": mu, "kappa": kappa_bound(lam, mu),
        "L_rel": cond["L_rel"], "sigma_rel": cond["sigma_rel"],
        "f_star": f_star, "gap_tol": gap_tol,
        "rounds_precond": run_p.rounds, "rounds_gd": run_g.rounds,
        "reached_precond": run_p.gaps[-1] <= gap_tol,
        "reached_gd": run_g.gaps[-1] <= gap_tol,
    }
    return summary, {"precondition.csv": rows}


def run_smooth(config, seed, jobs):
    sp = _spectrum(config["spectrum"])
    n, trials = config["n"], config["trials"]
    R = config["radius"]
    # Sorted: each trial's rows list the directions in this order.
    directions = sorted(config.get("directions", ["iso", "data"]))
    gap_tol = config.get("gap_tol", 1e-2)
    root = RngStream(seed)

    cfg = SmoothingConfig(radius=R, iters=config["iters"], batch=config["batch"],
                          u=config.get("u"))
    shapes = [sp if direction == "data" else None for direction in directions]
    # One engine call advances a group's runs together, each step a few
    # numpy calls over all of them, and each run's result equals that of the
    # run alone.  So --jobs forks one interleaved group of trials per
    # process and never more groups, which would run engine calls in turn in
    # one process; at --jobs 1 one call holds every trial.
    groups = processes(jobs, trials)

    def run_group(g):
        """One engine call over trials g, g + groups, g + 2 groups, ...;
        the i-th of them owns rows A[i], labels b[i] and one stream, built
        here so that no process holds another group's data.  Every
        direction of a trial draws from the trial's stream: common random
        numbers for the paired comparison."""
        ks = range(g, trials, groups)
        A = np.empty((len(ks), n, sp.dim))
        b = np.empty((len(ks), n))
        streams = []
        for i, trial in enumerate(ks):
            stream = root.child(trial)
            A[i] = sample_gaussian(sp, n, stream.child(0)).rows
            gen = stream.child(1).generator()
            x_nat = gen.standard_normal(sp.dim)
            x_nat *= 0.5 * R / np.linalg.norm(x_nat)
            b[i] = A[i] @ x_nat
            streams.append(stream.child(2))
        return rs_lockstep(A, b, streams, cfg, shapes, gap_tol)

    out = [None] * trials
    for g, runs in enumerate(parallel_map(run_group, range(groups), jobs)):
        out[g::groups] = runs
    # hits: iters_to_tol by trial and direction, -1 where unreached
    hits = np.array([[-1 if run.iters_to_tol is None else run.iters_to_tol
                      for run in runs] for runs in out])
    rows = [{"seed": seed, "trial": trial, "direction": direction,
             "iters_to_tol": int(hit), "final_gap": float(run.gaps[-1])}
            for trial, runs in enumerate(out)
            for direction, run, hit in zip(directions, runs, hits[trial])]
    summary = {}
    for direction, col in zip(directions, hits.T):
        reached = col[col >= 0]
        summary[direction] = {
            "median_iters": float(np.median(reached)) if reached.size else None,
            "unreached": int((col < 0).sum()),
        }
    if {"iso", "data"} <= set(directions):
        pairs = hits[:, [directions.index("iso"), directions.index("data")]]
        summary["paired"] = _paired_iters(pairs.tolist(), config["iters"])
    return summary, {"smooth.csv": rows}


def _paired_iters(pairs, iters):
    """Shaped against isotropic iterations over the trials, from each
    trial's (iso, data) ``iters_to_tol`` pair.

    An unreached run (-1) counts as ``iters + 1`` iterations.
    ``mean_log_ratio`` is the mean of log(iters_data / iters_iso), with its
    standard error (null for one pair); a run that starts within tolerance
    counts as one iteration, and then so does its partner, which shares x_0.
    """
    pairs = [[iters + 1 if hit < 0 else hit for hit in pair] for pair in pairs]
    logs = np.array([math.log(max(data, 1) / max(iso, 1)) for iso, data in pairs])
    k = len(logs)
    return {
        "mean_log_ratio": float(logs.mean()),
        "stderr": float(logs.std(ddof=1) / math.sqrt(k)) if k > 1 else None,
        "pairs": k,
        "wins": sum(data < iso for iso, data in pairs),
        "censored": sum(max(iso, data) > iters for iso, data in pairs),
    }


RUNNERS = {
    "effdim": run_effdim,
    "entropy": run_entropy,
    "cover": run_cover,
    "concentration": run_concentration,
    "precondition": run_precondition,
    "smooth": run_smooth,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="effdim",
        description="Effective-dimension concentration and optimization experiments",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in RUNNERS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--jobs", type=int, default=1)
        p.add_argument("--validate-only", action="store_true")
    return parser


def _finite(text: str) -> float:
    """JSON number hook: NaN, Infinity and overflowing literals such as
    1e999 would pass every schema bound, so they are rejected here."""
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(f"non-finite number {text} in config")
    return value


def _finite_int(text: str) -> int:
    """JSON integer hook: an int too large for a float, such as 10**400,
    would pass every schema bound and overflow where the library converts
    it, so it is rejected here too."""
    _finite(text)
    return int(text)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with open(args.config) as fh:
            config = json.load(fh, parse_float=_finite, parse_int=_finite_int,
                               parse_constant=_finite)
        validate(SCHEMAS[args.subcommand], config)
        seed, jobs = args.seed, args.jobs
        if not 0 <= seed < 2**64:
            raise ConfigInvalid("seed must fit in an unsigned 64-bit integer")
        if jobs < 1:
            raise ConfigInvalid("jobs must be >= 1")
    except (OSError, ValueError, ConfigInvalid) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    if args.validate_only:
        print("config ok")
        return 0

    out = Path(args.out) if args.out else Path.cwd() / f"effdim-{args.subcommand}"
    created = not out.exists()
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"config error: --out {out}: {exc.strerror}", file=sys.stderr)
        return 2
    try:
        started = datetime.datetime.now(datetime.timezone.utc).isoformat()
        with np.errstate(over="raise"):
            summary, tables = RUNNERS[args.subcommand](config, seed, jobs)
        for name, rows in tables.items():
            _write_csv(out / name, rows)
        _write_json(out / "summary.json", summary)
        manifest = {
            "tool": "effdim", "version": __version__,
            "subcommand": args.subcommand,
            "config_sha256": hashlib.sha256(
                json.dumps(config, sort_keys=True).encode()).hexdigest(),
            "seed": seed, "jobs": jobs,
            "started": started,
            "finished": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "outputs": {name: _sha256(out / name)
                        for name in sorted([*tables, "summary.json"])},
        }
        _write_json(out / "manifest.json", manifest)
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        code = 2
    except DECLARED_LIMITS as exc:
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        code = 3
    except Exception:
        traceback.print_exc()
        code = 1
    else:
        print(json.dumps({"out": str(out), "summary": summary}, sort_keys=True,
                         allow_nan=False))
        return 0
    # A failed run leaves no directory behind that it created itself.
    if created:
        shutil.rmtree(out, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
