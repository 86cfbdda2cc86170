"""Output checks for one effdim CLI call.

Every call must exit 0 and every ``manifest.json`` hash must match its file.
On top of that each subcommand has invariants its outputs always satisfy;
a violated invariant is a wrong result, not noise.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path


def check_call(subcommand: str, config: dict, exit_code: int, out: Path) -> list[str]:
    """Problems found in the outputs of one call; empty when all checks pass."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        manifest = json.loads((out / "manifest.json").read_text())
        problems = [
            f"{name}: sha256 does not match manifest.json"
            for name, digest in manifest["outputs"].items()
            if hashlib.sha256((out / name).read_bytes()).hexdigest() != digest
        ]
        summary = json.loads((out / "summary.json").read_text())
        problems += _INVARIANTS[subcommand](config, summary, out)
    except (OSError, ValueError, KeyError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
    return problems


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _finite_nonneg(values, what: str) -> list[str]:
    bad = [v for v in values if not (math.isfinite(v) and v >= 0.0)]
    return [f"{len(bad)} {what} not finite and >= 0"] if bad else []


def _effdim(config, summary, out):
    d = summary["d"]
    rows = sorted(_rows(out / "effdim.csv"), key=lambda row: float(row["r"]))
    vals = [float(row["d_eff"]) for row in rows]
    problems = []
    if any(b < a for a, b in zip(vals, vals[1:])):
        problems.append("d_eff decreases in r")
    if any(not 1.0 - 1e-9 <= v <= d + 1e-9 for v in vals):
        problems.append(f"d_eff outside [1, {d}]")
    return problems


def _entropy(config, summary, out):
    rows = _rows(out / "entropy.csv")
    problems = _finite_nonneg([float(row["bound"]) for row in rows], "entropy bounds")
    counts = [int(row["m_eps"]) for row in rows]  # rows run from large to small eps
    if any(b < a for a, b in zip(counts, counts[1:])):
        problems.append("m_eps decreases as eps shrinks")
    return problems


def _cover(config, summary, out):
    rows = {row["trial"]: row for row in _rows(out / "cover.csv")}
    problems = []
    if int(rows["0"]["violations"]) != 0:
        problems.append(f"cover has {rows['0']['violations']} violations")
    if config.get("delete_fraction", 0.0) > 0 and int(rows["1"]["violations"]) == 0:
        problems.append("negative control found no violations")
    return problems


def _concentration(config, summary, out):
    values = [float(row["value"]) for row in _rows(out / "deviations.csv")]
    return _finite_nonneg(values, "deviations")


def _precondition(config, summary, out):
    problems = []
    if not summary["L_rel"] <= 1.0 + 1e-9:
        problems.append(f"L_rel {summary['L_rel']} > 1 + 1e-9")
    for key in ("reached_precond", "reached_gd"):
        if summary[key] is not True:
            problems.append(f"{key} is false")
    return problems


def _smooth(config, summary, out):
    # Hinge loss with f_star = 0: every gap is a loss value, so >= 0.
    rows = _rows(out / "smooth.csv")
    problems = _finite_nonneg([float(row["final_gap"]) for row in rows], "final gaps")
    if len(rows) != config["trials"] * len(config.get("directions", ["iso", "data"])):
        problems.append("smooth.csv has the wrong number of rows")
    return problems


_INVARIANTS = {
    "effdim": _effdim,
    "entropy": _entropy,
    "cover": _cover,
    "concentration": _concentration,
    "precondition": _precondition,
    "smooth": _smooth,
}


def csv_outputs(out: Path) -> dict[str, bytes]:
    """The CSV files of a call, by name, for byte comparison across calls."""
    return {path.name: path.read_bytes() for path in sorted(out.glob("*.csv"))}


def first_difference(a: bytes, b: bytes) -> int:
    """1-based number of the first line where two CSV files differ."""
    for lineno, (x, y) in enumerate(zip(a.split(b"\n"), b.split(b"\n")), 1):
        if x != y:
            return lineno
    return min(a.count(b"\n"), b.count(b"\n")) + 1
