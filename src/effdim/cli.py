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
from .entropy import build_cover, eps_entropy_bound, kb_mb, sample_ellipsoid, \
    unit_entropy_bound, verify_cover
from .concentration import Nonlinearity, SearchConfig, scaling_experiment
from .linalg import DimTooLarge, NonConvergence
from .precond import ErmProblem, InnerSolveFailure, Loss, SingularPhi, \
    hessian_deviation_sup, kappa_bound, mu_formula, precond_bgd, \
    relative_condition, solve_erm, vanilla_gd
from .rng import RngStream
from .smoothing import SmoothingConfig, iters_to_gap, rs_lockstep
from .spectrum import BadSpectrum, CovarianceSpectrum, effective_dimension, \
    make_spectrum, sample_gaussian


class ConfigInvalid(Exception):
    pass


# Limits the library declares and raises on purpose (exit 3), float64
# overflow among them; any other exception escaping a runner is a bug (exit 1).
DECLARED_LIMITS = (DimTooLarge, InnerSolveFailure, SingularPhi,
                   NonConvergence, OverflowError)


_SPECTRUM_SCHEMA = {
    "type": "object",
    "properties": {
        "kind": {"enum": ["isotropic", "power_law", "custom"]},
        "d": {"type": "integer", "minimum": 1},
        "sigma1": {"type": "number", "exclusiveMinimum": 0},
        "alpha": {"type": "number", "minimum": 0},
        "values": {"type": "array", "items": {"type": "number"}},
    },
    "required": ["kind"],
}

_SEARCH_SCHEMA = {
    "type": "object",
    "properties": {
        "restarts": {"type": "integer", "minimum": 1},
        "iters": {"type": "integer", "minimum": 1},
        "step": {"type": "number", "exclusiveMinimum": 0},
    },
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
    },
    "concentration": {
        "type": "object",
        "properties": {
            "spectra": {
                "type": "object",
                "additionalProperties": _SPECTRUM_SCHEMA,
                "minProperties": 1,
            },
            "n_grid": {"type": "array", "minItems": 1,
                       "items": {"type": "integer", "minimum": 2}},
            "trials": {"type": "integer", "minimum": 30},
            "r": {"type": "integer", "minimum": 2},
            "fs": {"type": "array", "items": {
                "type": "object",
                "properties": {"kind": {"enum": ["identity", "relu", "clip"]},
                               "bound": {"type": "number", "exclusiveMinimum": 0}},
                "required": ["kind"],
            }},
            "centered": {"type": "boolean"},
            "search": _SEARCH_SCHEMA,
        },
        "required": ["spectra", "n_grid", "trials", "r"],
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

    The subset of JSON Schema draft 2020-12 in ``_KEYWORDS``, except that an
    integer must be written as one and ``uniqueItems`` compares with ``==``
    (true equals 1).  A schema node that is not an object, or has another
    keyword or type, is a programming error (NotImplementedError), so a
    schema cannot outgrow the subset.
    """
    if not isinstance(schema, dict):
        raise NotImplementedError(f"schema {schema!r} at {path}")
    unknown = set(schema) - _KEYWORDS
    if unknown:
        raise NotImplementedError(f"schema keywords {sorted(unknown)} at {path}")
    if "type" in schema and schema["type"] not in tuple(_TYPES):
        raise NotImplementedError(f"schema type {schema['type']!r} at {path}")
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
            if sub is not None:
                validate(sub, item, f"{path}.{key}")


def _spectrum(cfg: dict) -> CovarianceSpectrum:
    try:
        return make_spectrum(
            cfg["kind"], d=cfg.get("d"), sigma1=cfg.get("sigma1", 1.0),
            alpha=cfg.get("alpha"), values=cfg.get("values"),
        )
    except BadSpectrum as exc:
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
    except BadSpectrum as exc:
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
    kb, mb = kb_mb(axes)
    summary = {
        "size": cover.size, "ln_size": float(np.log(cover.size)),
        "violations": rows[0]["violations"],
        "volumetric_lower": float(np.sum(np.log(axes.sigmas / eps))),
        "unit_entropy_bound": unit_entropy_bound(CovarianceSpectrum(axes.sigmas / eps)).total,
        "kb": kb, "mb": mb,
    }
    return summary, {"cover.csv": rows}


def run_concentration(config, seed, jobs):
    spectra = {sid: _spectrum(sc) for sid, sc in config["spectra"].items()}
    if len({sp.dim for sp in spectra.values()}) != 1:
        raise ConfigInvalid("paired trials require spectra of equal dimension")
    r = config["r"]
    fs = None
    if "fs" in config:
        try:
            fs = [Nonlinearity(f["kind"], f.get("bound")) for f in config["fs"]]
        except ValueError as exc:
            raise ConfigInvalid(f"fs: {exc}") from exc
        if len(fs) != r:
            raise ConfigInvalid("fs must list one nonlinearity per factor")
    result = scaling_experiment(
        spectra, config["n_grid"], config["trials"], r, fs=fs,
        centered=config.get("centered", True),
        search=SearchConfig(**config.get("search", {})),
        rng=RngStream(seed), jobs=jobs,
    )
    summary = {
        sid: {"slope": fit["slope"], "stderr": fit["stderr"],
              "means": [{"n": n, "mean": m, "std": s} for n, m, s in fit["means"]]}
        for sid, fit in sorted(result["slopes"].items())
    }
    return summary, {"deviations.csv": result["rows"]}


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
    if config.get("mu_method", "measured") == "measured":
        # Measuring at the probe points makes mu dominate the deviation at
        # every probe by construction; x = 0 adds the covariance gap.
        mu = hessian_deviation_sup(problem, aux,
                                   np.vstack([np.zeros(sp.dim), probes]))
    else:
        mu = mu_formula(sp, n, n_aux, loss.hess_lipschitz, loss.second_max)
    phi = replace(aux, lam=aux.lam + mu)
    cond = relative_condition(problem, phi, probes)
    f_star = problem.value(solve_erm(problem))
    gap_tol = config.get("gap_tol", 1e-6)
    run_p = precond_bgd(problem, phi, iters=config.get("iters", 200),
                        f_star=f_star, gap_tol=gap_tol)
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

    # Trial k owns rows k*n .. (k+1)*n - 1 of one data array and one stream.
    A = np.empty((trials * n, sp.dim))
    b = np.empty(trials * n)
    streams = []
    for trial in range(trials):
        stream = root.child(trial)
        block = slice(trial * n, (trial + 1) * n)
        A[block] = sample_gaussian(sp, n, stream.child(0)).rows
        gen = stream.child(1).generator()
        x_nat = gen.standard_normal(sp.dim)
        x_nat *= 0.5 * R / np.linalg.norm(x_nat)
        b[block] = A[block] @ x_nat
        streams.append(stream.child(2))
    cfg = SmoothingConfig(radius=R, iters=config["iters"], batch=config["batch"],
                          u=config.get("u"))

    # One engine call advances every run together, each step a few numpy
    # calls over all active runs; worker threads would hold the GIL in
    # turn on calls this small, so --jobs does not split the runs.  Every
    # direction of a trial draws from the trial's stream: common random
    # numbers for the paired comparison.
    out = rs_lockstep(ErmProblem(A, b, Loss("hinge"), 0.0), streams, cfg,
                      [sp if direction == "data" else None for direction in directions],
                      0.0, gap_tol)
    hits, rows = [], []   # hits: iters_to_tol by trial and direction
    for trial, runs in enumerate(out):
        hits.append([-1 if hit is None else hit
                     for hit in (iters_to_gap(run, gap_tol) for run in runs)])
        rows += [{"seed": seed, "trial": trial, "direction": direction,
                  "iters_to_tol": hit, "final_gap": float(run.gaps[-1])}
                 for direction, run, hit in zip(directions, runs, hits[-1])]
    hits = np.array(hits)
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
        started = datetime.datetime.now(datetime.timezone.utc).isoformat()
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
