"""End-to-end benchmark of the effdim CLI on one workload.

Usage, from the repository root::

    python3 perfbench/run.py --workload conc-identity --seed 1 --seconds 30 --trace 0

Each call of the workload (see ``workloads.py``) runs ``effdim.cli.main`` in
a fresh interpreter, as a user runs an experiment.  The load is a closed
loop with a single client: one call after another.  OpenBLAS, OpenMP and
MKL are pinned to one thread in the child environment, so ``--jobs`` is the
only source of parallelism.  Outputs go to a temporary directory under
``.perfbench_tmp/`` that is removed at exit.

After one untimed ``--validate-only`` call as a warm-up, a run repeats a
cycle of calls while the next cycle, judged by the time of the last one,
still fits in ``--seconds``; the first cycle always runs.
Only whole cycles run, so every config is called equally often at each job
count and the share of failed calls does not depend on how many fit.

``--trace 0``: a cycle is a ``--validate-only`` interpreter, a pass over
the workload at ``--jobs 1`` and one at ``--jobs 2``.  More ``--validate-only``
interpreters fill the time left at the end.  It reports:

- ``wall_s``: time of one ``--jobs 1`` pass over the workload's calls, each
  call timed from spawn to exit and averaged over cycles;
- ``jobs2_speedup``: ``wall_s`` over the same time at ``--jobs 2``.  Both
  are measured in the same minutes, so this ratio barely moves when the
  host's speed drifts, unlike the ``--jobs 2`` time itself;
- ``setup_s``: median time of those fresh interpreters running
  ``--validate-only`` on the workload's first config (imports plus schema
  validation);
- ``peak_rss_mb``: the highest ``ru_maxrss`` of any workload call;
- ``ok_frac``: share of calls that passed every check (1 - failure rate).

``--trace 1``: a cycle is an untraced and a traced ``--jobs 1`` pass and a
traced ``--jobs 2`` pass.  It reports the per-layer metrics of
``tracer.py`` (medians over cycles; ``parallel.*`` from the ``--jobs 2``
passes) plus ``trace.overhead_s``, the traced minus the untraced pass time.

Every call is checked (``checks.py``), and its CSV files must be
byte-identical to those of the first ``--jobs 1`` call of the same config.
A call failing any check counts in ``failed``; ``correct`` is false only
when an output is wrong (exit code, manifest hash, or invariant), not when
it merely differs between job counts.  The last line of standard output is
the result object; the line before it is the machine fingerprint.  Without
the effdim sources under ``src/`` the script exits with status 2 and prints
no result.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import checks
import tracer
from workloads import WORKLOADS, Call

ROOT = Path(__file__).resolve().parent.parent
TMP_ROOT = ROOT / ".perfbench_tmp"
TRACER = Path(__file__).resolve().parent / "tracer.py"
CLI = "import sys; from effdim.cli import main; sys.exit(main(sys.argv[1:]))"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Calls still running this long after the start are killed, so that a run
# ends within three minutes even if the program hangs.
RUN_LIMIT_S = 170.0


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("EFFDIM_SEED", "EFFDIM_JOBS")}
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    return env


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def fingerprint(seed: int, env: dict) -> dict:
    # Imported only after the measurements: on Linux a child's ru_maxrss
    # starts from this process's resident size when the child is spawned.
    import numpy

    blas = getattr(numpy.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": {var: env[var] for var in THREAD_VARS},
        "seed": seed,
    }


def workload_why(name: str) -> str | None:
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError):
        return None
    return next((w["why"] for w in spec.get("workloads", []) if w["name"] == name), None)


class Runner:
    """Runs the calls of one workload and keeps the check tallies."""

    def __init__(self, workload: str, seed: int, tmp: Path):
        self.calls = WORKLOADS[workload]
        self.seed = seed
        self.tmp = tmp
        self.env = child_env()
        self.started = time.perf_counter()
        self.correct = True
        self.peak_rss_kb = 0
        self.killed = False
        self.passed: dict[tuple[str, int], list[bool]] = {}
        self._reference: dict[str, dict[str, bytes]] = {}
        self._ids = itertools.count()
        self.config_paths = {}
        for call in self.calls:
            path = tmp / f"{call.name}.json"
            path.write_text(json.dumps(call.config))
            self.config_paths[call.name] = path

    @property
    def attempted(self) -> int:
        return sum(len(ok) for ok in self.passed.values())

    @property
    def failed(self) -> int:
        return sum(ok.count(False) for ok in self.passed.values())

    def spawn(self, argv: list[str], log: Path) -> tuple[int, float, int]:
        """Run one child; return its exit code, wall seconds and peak RSS in KiB."""
        timeout = max(1.0, self.started + RUN_LIMIT_S - time.perf_counter())
        with open(log, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, env=self.env, cwd=self.tmp,
                                    stdout=out, stderr=subprocess.STDOUT)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode == -9:
            self.killed = True
        return proc.returncode, wall, usage.ru_maxrss

    def setup_call(self) -> float:
        """Time of a fresh interpreter validating the first config."""
        first = self.calls[0]
        argv = [sys.executable, "-c", CLI, first.subcommand, "--config",
                str(self.config_paths[first.name]), "--validate-only"]
        log = self.tmp / "setup.log"
        code, wall, _ = self.spawn(argv, log)
        if code != 0:
            raise RuntimeError(f"--validate-only exited {code}: "
                               + log.read_text(errors="replace")[-2000:])
        log.unlink()
        return wall

    def run_call(self, call: Call, jobs: int, traced: bool):
        """One checked call; returns (wall seconds, trace record or None)."""
        stem = f"{next(self._ids)}-{call.name}-j{jobs}"
        out, spans, log = (self.tmp / f"{stem}{ext}" for ext in ("", ".spans.json", ".log"))
        argv = [sys.executable, str(TRACER), str(spans)] if traced else [sys.executable, "-c", CLI]
        argv += [call.subcommand, "--config", str(self.config_paths[call.name]),
                 "--out", str(out), "--seed", str(self.seed), "--jobs", str(jobs)]
        code, wall, rss_kb = self.spawn(argv, log)
        if not traced:
            self.peak_rss_kb = max(self.peak_rss_kb, rss_kb)

        problems = checks.check_call(call.subcommand, call.config, code, out)
        if problems:
            self.correct = False
            problems.append(log.read_text(errors="replace")[-500:].strip())
        else:
            csvs = checks.csv_outputs(out)
            ref = self._reference.get(call.name)
            if ref is None and jobs == 1:
                self._reference[call.name] = csvs
            elif ref is not None:
                for name in sorted(set(ref) | set(csvs)):
                    if ref.get(name) != csvs.get(name):
                        line = checks.first_difference(ref.get(name, b""), csvs.get(name, b""))
                        problems.append(f"{name} differs from the first --jobs 1 "
                                        f"output (line {line})")
        self.passed.setdefault((call.name, jobs), []).append(not problems)
        if problems:
            print(f"perfbench: {call.name} --jobs {jobs}"
                  f"{' (traced)' if traced else ''}: " + "; ".join(problems),
                  file=sys.stderr)

        record = None
        if traced and spans.exists():
            record = json.loads(spans.read_text())
        shutil.rmtree(out, ignore_errors=True)
        for leftover in (spans, log):
            leftover.unlink(missing_ok=True)
        return wall, record

    def run_pass(self, jobs: int, walls: dict, traced: bool = False) -> list[dict]:
        """Every call of the workload once; appends each wall time to
        ``walls[call.name]`` and returns the trace records."""
        records = []
        for call in self.calls:
            wall, record = self.run_call(call, jobs, traced)
            walls.setdefault(call.name, []).append(wall)
            if record is not None:
                records.append(record)
        return records


def pass_time(walls: dict) -> float:
    """Time of one pass: the sum over calls of each call's mean wall time.

    On a shared machine the speed flips between a fast and a slow state
    every few seconds.  A median of a few calls flips with it; a mean over
    all the time measured in a run averages part of it out.
    """
    return sum(statistics.fmean(times) for times in walls.values())


def repeat_cycles(runner: Runner, seconds: float, cycle) -> float:
    """Call ``cycle()`` once, then again while another, judged by the time
    of the last one, still fits in ``seconds``; returns the deadline."""
    deadline = time.perf_counter() + seconds
    while True:
        began = time.perf_counter()
        cycle()
        last = time.perf_counter() - began
        if runner.killed or time.perf_counter() + last > deadline:
            return deadline


def measure_end_to_end(runner: Runner, seconds: float) -> dict:
    setups, walls = [], {1: {}, 2: {}}

    def cycle():
        # A set-up sample in every cycle spreads them over the run like the
        # call times.
        setups.append(runner.setup_call())
        runner.run_pass(1, walls[1])
        runner.run_pass(2, walls[2])

    deadline = repeat_cycles(runner, seconds, cycle)
    # The time left, too short for another cycle, holds more set-up samples.
    while not runner.killed and time.perf_counter() + setups[-1] <= deadline:
        setups.append(runner.setup_call())
    wall_s = pass_time(walls[1])
    return {
        "wall_s": (wall_s, "s"),
        "jobs2_speedup": (wall_s / pass_time(walls[2]), "ratio"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (runner.peak_rss_kb / 1024.0, "MB"),
        "ok_frac": (1.0 - runner.failed / runner.attempted, "ratio"),
    }


def measure_per_layer(runner: Runner, seconds: float) -> dict:
    untraced, traced, per_cycle = {}, {}, []

    def cycle():
        runner.run_pass(1, untraced)
        serial = runner.run_pass(1, traced, traced=True)
        parallel = runner.run_pass(2, {}, traced=True)
        per_cycle.append(tracer.per_layer_metrics(tracer.layer_stats(serial),
                                                  tracer.layer_stats(parallel)))

    repeat_cycles(runner, seconds, cycle)
    metrics = {name: (statistics.median(c[name][0] for c in per_cycle), unit)
               for name, (_, unit) in per_cycle[0].items()}
    metrics["trace.overhead_s"] = (pass_time(traced) - pass_time(untraced), "s")
    return metrics


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must fit in an unsigned 64-bit integer")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "effdim" / "cli.py").is_file():
        print(f"perfbench: no effdim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    TMP_ROOT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=TMP_ROOT))
    try:
        runner = Runner(args.workload, args.seed, tmp)
        measure = measure_per_layer if args.trace else measure_end_to_end
        try:
            # Warm-up, not timed: writes the bytecode caches of a fresh
            # checkout and pulls the imported libraries into the page cache.
            runner.setup_call()
            metrics = measure(runner, args.seconds)
        except RuntimeError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass
    print(json.dumps({
        "fingerprint": fingerprint(args.seed, runner.env),
        "workload": args.workload, "why": workload_why(args.workload),
        "calls": [call._asdict() for call in runner.calls],
    }, sort_keys=True))
    print(json.dumps({
        "correct": runner.correct, "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
