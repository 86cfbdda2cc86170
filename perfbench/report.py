"""Run every workload and print each metric by name and unit.

Usage, from the repository root::

    python3 perfbench/report.py --seed 1 [--trace] [--out FILE]

For each workload it runs ``run.py`` for the ``run_seconds`` that
``BENCHMARK.json`` gives, with ``--trace 0`` (end-to-end
metrics and output checks) and, with ``--trace``, also ``--trace 1``
(per-layer metrics and tracing overhead).  ``--out`` writes every result
with the machine fingerprint to a JSON file, such as a new point of the
trajectory in ``perfbench/trajectory/``.  Exits 1 if any run failed or any
call failed a check.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"
SPEC = HERE.parent / "BENCHMARK.json"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true", help="also run the traced mode")
    parser.add_argument("--out", type=Path, help="write all results to this JSON file")
    args = parser.parse_args(argv)
    seconds = json.loads(SPEC.read_text())["run_seconds"]

    status, report = 0, {"seed": args.seed, "seconds": seconds, "workloads": {}}
    for workload in WORKLOADS:
        for trace in (0, 1) if args.trace else (0,):
            proc = subprocess.run(
                [sys.executable, str(RUN), "--workload", workload, "--seed", str(args.seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                print(f"{workload} --trace {trace}: run.py exited {proc.returncode}")
                status = 1
                continue
            info, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
            report["fingerprint"] = info["fingerprint"]
            entry = report["workloads"].setdefault(
                workload, {"why": info["why"], "calls": info["calls"]})
            entry[f"trace{trace}"] = result
            if result["failed"]:
                status = 1
            print(f"{workload} --trace {trace}: correct {result['correct']}, "
                  f"{result['failed']} of {result['attempted']} calls failed")
            for name, metric in result["metrics"].items():
                print(f"  {name:34s} {metric['value']:>14.6g} {metric['unit']}")
    if args.out:
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
