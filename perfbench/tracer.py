"""Span tracing of one effdim CLI call, installed from outside the library.

Run as::

    python3 perfbench/tracer.py SPANS.json <effdim arguments...>

It imports ``effdim.cli`` (timing the import), wraps the public function of
each layer that the CLI and sibling modules call, runs ``effdim.cli.main``
and writes what it recorded to SPANS.json once, at the end.  No library
file is edited: a wrapper replaces every module attribute bound to the
original function, so names imported with ``from .x import f`` are traced
too.  A function that a later change removes is skipped, and its metrics
read 0.

A span is ``(id, parent id, name, start, end, thread)``.  ``values`` holds
per-span quantities such as rows sampled or bytes written, and
``failures`` names the spans that raised.  :func:`layer_stats` turns the
records of several calls into per-layer counts and self times, where self
time is a span's duration minus that of its child spans on the same thread.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import statistics
import sys
import threading
import time
from collections import Counter, defaultdict
from typing import NamedTuple

class Tracer:
    """In-memory span recorder.

    Appending to a list is atomic in CPython, so worker threads of
    ``parallel_map`` record into the same lists without a lock.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.values: list[tuple[str, float]] = []
        self.failures: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def new_id(self) -> int:
        return next(self._ids)

    def call(self, name, fn, args, kwargs, parent=None, sid=None):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``.

        The parent defaults to the innermost open span of this thread.
        """
        stack = self._local.__dict__.setdefault("stack", [])
        sid = self.new_id() if sid is None else sid
        if parent is None and stack:
            parent = stack[-1]
        stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException:
            self.failures.append(name)
            raise
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, parent, name, start, end, threading.get_ident()))

    def value(self, name: str, value: float) -> None:
        self.values.append((name, float(value)))

    def wrap(self, fn, name, hook=None):
        """``fn`` traced as ``name``; ``hook(tracer, arguments, result)`` runs after."""
        if hook is None:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                return self.call(name, fn, args, kwargs)
            return traced
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.call(name, fn, args, kwargs)
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            hook(self, bound.arguments, result)
            return result
        return traced

    def write(self, path: str, import_s: float) -> None:
        with open(path, "w") as fh:
            json.dump({"import_s": import_s, "spans": self.spans,
                       "values": self.values, "failures": self.failures}, fh)


def _sup_dev_hook(tracer, arguments, result):
    from effdim.spectrum import CovarianceSpectrum, SampleMatrix

    ref = arguments["ref"]
    if isinstance(ref, SampleMatrix):
        tracer.value("concentration.ref_rows", ref.n)
    exact_r2 = (arguments["centered"] and arguments["r"] == 2
                and isinstance(ref, CovarianceSpectrum)
                and all(f.kind == "identity" for f in arguments["fs"]))
    if exact_r2:
        # For r = 2 and identity factors the supremum is exactly the
        # operator norm ||A^T A / n - Sigma||.  Its own span keeps this
        # check out of the self time of the enclosing layers.
        def opnorm():
            import numpy as np

            A = arguments["samples"].rows
            return float(np.abs(np.linalg.eigvalsh(A.T @ A / len(A) - ref.covariance())).max())

        exact = tracer.call("trace.check", opnorm, (), {})
        if exact > 0:
            tracer.value("concentration.r2_shortfall_rel", (exact - result.value) / exact)


def _rs_hook(tracer, arguments, result):
    tol = arguments["gap_tol"]
    tracer.value("smoothing.reached", tol is not None and result.gaps[-1] <= tol)


def _write_hook(tracer, arguments, result):
    tracer.value("cli.bytes_written", arguments["path"].stat().st_size)


# (module, attribute, span name, hook).  Several attributes may share a span.
TARGETS = [
    ("effdim.concentration", "empirical_sup_deviation", "concentration.sup_dev", _sup_dev_hook),
    ("effdim.concentration", "_gaussian_product_moment", "concentration.isserlis", None),
    ("effdim.concentration", "_gaussian_product_moment_grad", "concentration.isserlis", None),
    ("effdim.concentration", "tensor_deviation", "concentration.tensor_dev", None),
    ("effdim.spectrum", "sample_gaussian", "spectrum.sample",
     lambda tracer, arguments, result: tracer.value("spectrum.rows", result.n)),
    ("effdim.linalg", "sym_eigh", "linalg.eigh", None),
    ("effdim.linalg", "tensor_opnorm", "linalg.tensor_opnorm", None),
    ("effdim.precond", "hessian_deviation_sup", "precond.hess_sup", None),
    ("effdim.precond", "ErmProblem.data_hessian", "precond.data_hessian", None),
    ("effdim.precond", "ErmProblem.value", "precond.value", None),
    ("effdim.precond", "newton_minimize", "precond.newton", None),
    ("effdim.precond", "GradientServer.full_gradient", "precond.round", None),
    ("effdim.smoothing", "rs_optimize", "smoothing.rs", _rs_hook),
    ("effdim.smoothing", "grad_estimator", "smoothing.grad", None),
    ("effdim.rng", "RngStream.generator", "rng.generator", None),
    ("effdim.rng", "RngStream.child", "rng.child", None),
    ("effdim.entropy", "build_cover", "entropy.build_cover",
     lambda tracer, arguments, result: tracer.value("entropy.cover_centers", result.size)),
    ("effdim.entropy", "sample_ellipsoid", "entropy.sample", None),
    ("effdim.entropy", "verify_cover", "entropy.verify", None),
    ("effdim.cli", "_write_csv", "cli.write", _write_hook),
    ("effdim.cli", "_write_json", "cli.write", _write_hook),
]


def _rebind(orig, replacement) -> None:
    """Point every effdim module attribute bound to ``orig`` at ``replacement``."""
    for modname, module in list(sys.modules.items()):
        if modname == "effdim" or modname.startswith("effdim."):
            for attr, value in list(vars(module).items()):
                if value is orig:
                    setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap every target that exists; ``effdim.cli`` must already be imported."""
    for modname, attr, name, hook in TARGETS:
        owner = sys.modules.get(modname)
        *classname, fname = attr.split(".")
        if owner is not None and classname:
            owner = vars(owner).get(classname[0])
        orig = vars(owner).get(fname) if owner is not None else None
        if not callable(orig):
            continue
        traced = tracer.wrap(orig, name, hook)
        if classname:
            setattr(owner, fname, traced)
        else:
            _rebind(orig, traced)

    parallel = sys.modules.get("effdim._parallel")
    orig_map = getattr(parallel, "parallel_map", None)
    if callable(orig_map):
        @functools.wraps(orig_map)
        def parallel_map(fn, items, jobs=1):
            map_id = tracer.new_id()

            def task(item):
                # Worker threads start with an empty span stack; name the
                # map as parent so the task tree stays connected.
                return tracer.call("parallel.task", fn, (item,), {}, parent=map_id)

            return tracer.call("parallel.map", orig_map, (task, items, jobs), {},
                               sid=map_id)

        _rebind(orig_map, parallel_map)


class LayerStats(NamedTuple):
    calls: Counter
    self_s: dict
    max_s: dict
    values: dict
    failures: Counter
    import_s: list
    spans: int


def layer_stats(records: list[dict]) -> LayerStats:
    """Aggregate the trace records of several calls by span name."""
    calls, failures = Counter(), Counter()
    self_s, max_s, values = defaultdict(float), defaultdict(float), defaultdict(list)
    import_s, n_spans = [], 0
    for rec in records:
        spans = rec["spans"]
        thread_of = {span[0]: span[5] for span in spans}
        in_children = defaultdict(float)
        for sid, parent, name, start, end, thread in spans:
            if parent is not None and thread_of.get(parent) == thread:
                in_children[parent] += end - start
        for sid, parent, name, start, end, thread in spans:
            calls[name] += 1
            self_s[name] += end - start - in_children[sid]
            max_s[name] = max(max_s[name], end - start)
        for name, value in rec["values"]:
            values[name].append(value)
        failures.update(rec["failures"])
        import_s.append(rec["import_s"])
        n_spans += len(spans)
    return LayerStats(calls, self_s, max_s, values, failures, import_s, n_spans)


def _mean(xs):
    return statistics.fmean(xs) if xs else 0.0


def per_layer_metrics(serial: LayerStats, parallel: LayerStats) -> dict:
    """Per-layer metrics as ``{name: (value, unit)}``.

    ``serial`` comes from ``--jobs 1`` calls; the ``parallel.*`` metrics
    come from ``parallel``, the same calls at ``--jobs 2``.  Sums run over
    all calls of a workload; ``cli.import_s`` is the median per interpreter.
    """
    calls, self_s, values = serial.calls, serial.self_s, serial.values
    shortfall = values["concentration.r2_shortfall_rel"]
    return {
        "concentration.sup_dev_calls": (calls["concentration.sup_dev"], "count"),
        "concentration.sup_dev_s": (self_s["concentration.sup_dev"], "s"),
        "concentration.isserlis_calls": (calls["concentration.isserlis"], "count"),
        "concentration.isserlis_s": (self_s["concentration.isserlis"], "s"),
        "concentration.tensor_dev_s": (self_s["concentration.tensor_dev"], "s"),
        "concentration.ref_rows": (sum(values["concentration.ref_rows"]), "rows"),
        "concentration.r2_checks": (len(shortfall), "count"),
        "concentration.r2_shortfall_rel": (_mean(shortfall), "ratio"),
        "spectrum.sample_calls": (calls["spectrum.sample"], "count"),
        "spectrum.rows_sampled": (sum(values["spectrum.rows"]), "rows"),
        "spectrum.sample_s": (self_s["spectrum.sample"], "s"),
        "linalg.eigh_calls": (calls["linalg.eigh"], "count"),
        "linalg.eigh_s": (self_s["linalg.eigh"], "s"),
        "linalg.tensor_opnorm_calls": (calls["linalg.tensor_opnorm"], "count"),
        "linalg.tensor_opnorm_s": (self_s["linalg.tensor_opnorm"], "s"),
        "precond.hess_sup_s": (self_s["precond.hess_sup"], "s"),
        "precond.data_hessian_calls": (calls["precond.data_hessian"], "count"),
        "precond.data_hessian_s": (self_s["precond.data_hessian"], "s"),
        "precond.newton_calls": (calls["precond.newton"], "count"),
        "precond.newton_s": (self_s["precond.newton"], "s"),
        "precond.rounds": (calls["precond.round"], "count"),
        "precond.value_calls": (calls["precond.value"], "count"),
        "precond.value_s": (self_s["precond.value"], "s"),
        "precond.inner_failures": (serial.failures["precond.newton"], "count"),
        "smoothing.rs_s": (self_s["smoothing.rs"], "s"),
        "smoothing.grad_calls": (calls["smoothing.grad"], "count"),
        "smoothing.grad_s": (self_s["smoothing.grad"], "s"),
        "smoothing.reached_frac": (_mean(values["smoothing.reached"]), "ratio"),
        "rng.generator_calls": (calls["rng.generator"], "count"),
        "rng.generator_s": (self_s["rng.generator"], "s"),
        "rng.child_calls": (calls["rng.child"], "count"),
        "entropy.build_cover_s": (self_s["entropy.build_cover"], "s"),
        "entropy.cover_centers": (sum(values["entropy.cover_centers"]), "count"),
        "entropy.sample_s": (self_s["entropy.sample"], "s"),
        "entropy.verify_s": (self_s["entropy.verify"], "s"),
        "parallel.tasks": (parallel.calls["parallel.task"], "count"),
        "parallel.map_s": (parallel.self_s["parallel.map"], "s"),
        "parallel.task_max_s": (parallel.max_s["parallel.task"], "s"),
        "cli.import_s": (statistics.median(serial.import_s) if serial.import_s else 0.0, "s"),
        "cli.write_s": (self_s["cli.write"], "s"),
        "cli.bytes_written": (sum(values["cli.bytes_written"]), "bytes"),
        "trace.spans": (serial.spans, "count"),
    }


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    start = time.perf_counter()
    import effdim.cli
    import_s = time.perf_counter() - start
    tracer = Tracer()
    install(tracer)
    try:
        return effdim.cli.main(cli_args)
    finally:
        tracer.write(out_path, import_s)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
