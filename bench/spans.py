"""Span tracer for the traced benchmark run.

Wrappers are installed from outside the program, at every name a consumer
looks up: the package namespace, each submodule's globals (``verify`` binds
``laplacian``, ``curl``, ``_diff_array`` and ``sample_*`` at import), the
module attributes that ``cli`` reads after its lazy imports, and the
``components``/``value`` methods of the model classes. Each wrapped call
records a span ``[layer, start, end, parent, n]``; ``n`` is the grid's node
count along x for the grid layers, inherited from the parent span otherwise.
Spans stay in memory until the run ends.
"""

from __future__ import annotations

import csv
import sys
import tracemalloc
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

from defectfield import cli, detect, fieldio, fields, forms, models, verify

# layers whose spans are split by grid size (the ``.n33``-style suffixes)
SIZED_LAYERS = ("fields.sample", "fields.fd", "verify")

BENCH_LAYER = "bench"


def _grid_n(args, inherited):
    for arg in args:
        grid = arg if isinstance(arg, fields.GridSpec) else getattr(arg, "grid", None)
        if isinstance(grid, fields.GridSpec):
            return grid.dims[0]
    return inherited


class Tracer:
    """In-memory spans plus exact counts taken at the same boundaries."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.verify_peak_bytes = 0
        self._stack: list[int] = []
        self._verify_depth = 0

    def _parent(self) -> int:
        return self._stack[-1] if self._stack else -1

    def _open(self, layer: str, n) -> list:
        span = [layer, 0.0, 0.0, self._parent(), n]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def job(self):
        """Root span of one benchmark job; its self time is the benchmark's own."""
        span = self._open(BENCH_LAYER, None)
        span[1] = perf_counter()
        try:
            yield
        finally:
            self._close(span)

    def wrap(self, layer: str, fn, count=None):
        tracer = self
        sized = layer in SIZED_LAYERS
        is_verify = layer == "verify"

        def traced(*args, **kwargs):
            parent = tracer._parent()
            inherited = tracer.spans[parent][4] if parent >= 0 else None
            span = tracer._open(layer, _grid_n(args, inherited) if sized else inherited)
            outermost_verify = is_verify and tracer._verify_depth == 0
            if is_verify:
                tracer._verify_depth += 1
            span[1] = perf_counter()
            try:
                if outermost_verify:
                    tracemalloc.start()
                result = fn(*args, **kwargs)
                if count is not None:
                    count(tracer, args, result, parent)
                return result
            finally:
                if outermost_verify:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    tracer.verify_peak_bytes = max(tracer.verify_peak_bytes, peak)
                if is_verify:
                    tracer._verify_depth -= 1
                tracer._close(span)

        traced.__wrapped__ = fn
        return traced

    def self_times(self):
        """Self time per span: its duration minus its direct children's durations."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for (_, start, end, parent, _) in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def summary(self, jobs: int) -> dict:
        """Per-job self time by layer and by (layer, grid size), plus per-job counts."""
        by_layer = defaultdict(float)
        by_size = defaultdict(float)
        root_total = 0.0
        for span, own in zip(self.spans, self.self_times()):
            layer, start, end, parent, n = span
            by_layer[layer] += own
            if n is not None:
                by_size[(layer, n)] += own
            if parent < 0:
                root_total += end - start
        return {
            "self_s": {k: v / jobs for k, v in by_layer.items()},
            "self_s_by_n": {k: v / jobs for k, v in by_size.items()},
            "counts": {k: v / jobs for k, v in self.counts.items()},
            "job_s": root_total / jobs,
            "verify_peak_bytes": self.verify_peak_bytes,
        }

    def write(self, path) -> None:
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["layer", "start", "end", "parent", "n"])
            out.writerows(self.spans)


def _count_points(tracer, args, result, parent):
    # nested model calls (e.g. a wrapper model delegating) count once
    if parent < 0 or tracer.spans[parent][0] != "models.eval":
        tracer.counts["models.eval.points"] += np.broadcast(*args[1:5]).size


def _count_nodes(tracer, args, result, parent):
    tracer.counts["fields.sample.nodes"] += args[1].node_count


def _count_diff(tracer, args, result, parent):
    tracer.counts["fields.fd.calls"] += 1
    # computed, not measured: one read of the input and one write of the output
    tracer.counts["fields.fd.bytes"] += args[0].nbytes + result.nbytes


def _counter(name):
    def count(tracer, args, result, parent):
        tracer.counts[name] += 1
    return count


def _count_records(tracer, args, result, parent):
    tracer.counts["detect.defects.records"] += len(result)


def _count_boundary(tracer, args, result, parent):
    tracer.counts["forms.chain_cells"] += len(args[0].coeffs)


def _count_evaluate(tracer, args, result, parent):
    tracer.counts["forms.chain_cells"] += len(args[1].coeffs)


def _count_saved(tracer, args, result, parent):
    tracer.counts["fieldio.bytes_written"] += sum(p.stat().st_size for p in result)


def _count_loaded(tracer, args, result, parent):
    arrays = ([result.values] if isinstance(result, fields.ComplexScalarField)
              else [result.ax, result.ay, result.az, result.phi])
    manifest_bytes = Path(args[0]).stat().st_size
    tracer.counts["fieldio.bytes_read"] += manifest_bytes + sum(a.nbytes for a in arrays)


# (layer, module, function name, counter)
TARGETS = (
    ("fields.sample", fields, "sample_potential", _count_nodes),
    ("fields.sample", fields, "sample_scalar", _count_nodes),
    ("fields.fd", fields, "_diff_array", _count_diff),
    ("fields.fd", fields, "laplacian", None),
    ("fields.fd", fields, "curl", None),
    ("fields.fd", fields, "divergence", None),
    ("verify", verify, "lorentz_residual", None),
    ("verify", verify, "transverse_divergence", None),
    ("verify", verify, "wave_residual_fields", _counter("verify.wave.calls")),
    ("verify", verify, "wave_residual", None),
    ("verify", verify, "convergence_study", None),
    ("verify", verify, "electric_field", None),
    ("verify", verify, "magnetic_field", None),
    ("detect.defects", detect, "find_dislocations", _count_records),
    ("detect.defects", detect, "find_disclinations", _count_records),
    ("detect.winding", detect, "phase_winding", _counter("detect.winding.calls")),
    ("detect.fits", detect, "pattern_rotation_rate", _counter("detect.fits.calls")),
    ("detect.fits", detect, "axial_twist_per_length", _counter("detect.fits.calls")),
    ("detect.fits", detect, "tifold_index", _counter("detect.fits.calls")),
    ("forms", forms, "boundary", _count_boundary),
    ("forms", forms, "evaluate", _count_evaluate),
    ("forms", forms, "coboundary", None),
    ("forms", forms, "stokes_residual", None),
    ("forms", forms, "hole_cycle", None),
    ("forms", forms, "closed_not_exact_witness", None),
    ("forms", forms, "winding_one_form", None),
    ("forms", forms, "period_integral", None),
    ("forms", forms, "ws_integral", None),
    ("fieldio.save", fieldio, "save_field", _count_saved),
    ("fieldio.load", fieldio, "load_field", _count_loaded),
    ("cli", cli, "main", _counter("cli.calls")),
)


def install(tracer: Tracer):
    """Replace every binding of each target function, and the model methods.

    Returns a function that puts the original bindings back.
    """
    replaced = []   # (namespace, attribute, original)
    modules = [m for name, m in sys.modules.items()
               if name == "defectfield" or name.startswith("defectfield.")]
    for layer, module, name, count in TARGETS:
        original = getattr(module, name)
        wrapped = tracer.wrap(layer, original, count)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    replaced.append((mod, attr, original))
                    setattr(mod, attr, wrapped)
    for cls in list(vars(models).values()):
        if isinstance(cls, type) and cls.__module__ == models.__name__:
            for method in ("components", "value"):
                if method in vars(cls):
                    original = vars(cls)[method]
                    replaced.append((cls, method, original))
                    setattr(cls, method, tracer.wrap("models.eval", original, _count_points))

    def uninstall():
        for owner, attr, original in replaced:
            setattr(owner, attr, original)

    return uninstall
