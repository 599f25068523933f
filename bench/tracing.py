"""In-memory span tracing of calls into fracbb, installed only for traced runs.

The tracer replaces module attributes of ``fracbb`` with timing wrappers:
the names the benchmark calls and the names one module imported from
another (``fracbb.experiments.sum_space_norm``, ``fracbb.disk.inverse_transform``,
...), plus a few ``SpectralField`` methods.  Nothing under ``src/`` changes;
:meth:`Tracer.uninstall` restores every original attribute.

A span is ``[name, start, end, parent, item, info]``: ``parent`` is the index
of the enclosing span (-1 for a root), ``item`` the id of the benchmark item
that caused it, and ``info`` per-call facts such as solver iterations.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import math
import os
import statistics
import sys
from time import perf_counter

from fracbb.errors import ToolkitError
from fracbb.spectral import SpectralField


def _solve_info(args, result):
    return {"iterations": int(result.iterations), "gap": float(result.gap)}


def _modes_info(args, result):
    return {"modes": len(args[0].coeffs)}


def _bytes_info(args, result):
    return {"bytes": os.path.getsize(args[0])}


# (module, attribute, span name, info callback).  Span names group into
# layers by prefix: ``spectral.field_ops.`` collects the field arithmetic,
# ``kernels.build.`` the kernel constructors, ``fileio.write.`` the writers.
WRAPPED_FUNCTIONS = (
    ("norms", "sum_space_norm", "norms.sum_space_norm", _solve_info),
    ("norms", "sobolev_norm", "norms.sobolev_norm", None),
    ("norms", "l1_norm", "norms.l1_norm", None),
    ("norms", "l2_norm", "norms.l2_norm", None),
    ("operators", "riesz", "operators.riesz", _modes_info),
    ("operators", "fractional_laplacian", "operators.fractional_laplacian", _modes_info),
    ("operators", "dirac_D", "operators.dirac_D", _modes_info),
    ("operators", "dirac_Dbar", "operators.dirac_Dbar", _modes_info),
    ("operators", "invert_D", "operators.invert_D", _modes_info),
    ("operators", "invert_D2", "operators.invert_D2", _modes_info),
    ("spectral", "forward_transform", "spectral.forward_transform", None),
    ("spectral", "inverse_transform", "spectral.inverse_transform", None),
    ("spectral", "convolve", "spectral.field_ops.convolve", None),
    ("spectral", "project_zero_mean", "spectral.field_ops.project_zero_mean", None),
    ("kernels", "kernel_K_1d", "kernels.build.kernel_K_1d", None),
    ("kernels", "kernel_K_nd", "kernels.build.kernel_K_nd", None),
    ("kernels", "kernel_component_nd", "kernels.build.kernel_component_nd", None),
    ("kernels", "sawtooth_field", "kernels.build.sawtooth_field", None),
    ("kernels", "sup_norm_scan", "kernels.sup_norm_scan", None),
    ("disk", "bbb_ratio", "disk.bbb_ratio", None),
    ("experiments", "verify_bb", "experiments.verify_bb", None),
    ("experiments", "random_field", "experiments.random_field", None),
    ("decomposition", "solve_decomposition", "decomposition.solve_decomposition", None),
    ("fileio", "write_json", "fileio.write.json", _bytes_info),
    ("fileio", "write_csv_report", "fileio.write.csv_report", _bytes_info),
)

FIELD_METHODS = {
    "__add__": "spectral.field_ops.add",
    "__sub__": "spectral.field_ops.sub",
    "scale": "spectral.field_ops.scale",
    "l2_coefficient_norm": "spectral.field_ops.l2_norm",
}


class Tracer:
    """Collects spans in memory while its wrappers are installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.item: int | None = None
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        record = [name, 0.0, 0.0, parent, self.item, None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = perf_counter()
        return record

    def _close(self, record: list) -> None:
        record[2] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def region(self, name: str, info: dict | None = None):
        """Span around benchmark code (an item, or its output check)."""
        record = self._open(name)
        try:
            yield
        finally:
            self._close(record)
            record[5] = info

    def wrap(self, name: str, fn, info=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except ToolkitError as exc:
                # A ConvergenceError carries the partial split and its gap.
                partial = getattr(exc, "partial", None)
                record[5] = {"error": type(exc).__name__}
                if info is _solve_info and partial is not None:
                    record[5].update(_solve_info(args, partial))
                raise
            finally:
                self._close(record)
            if info is not None:
                record[5] = info(args, result)
            return result

        return traced

    def install(self) -> None:
        modules = [
            module
            for name, module in sorted(sys.modules.items())
            if name == "fracbb" or name.startswith("fracbb.")
        ]
        for module_name, attr, span_name, info in WRAPPED_FUNCTIONS:
            original = getattr(importlib.import_module(f"fracbb.{module_name}"), attr)
            wrapper = self.wrap(span_name, original, info)
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._installed.append((module, attr, original))
                    setattr(module, attr, wrapper)
        for attr, span_name in FIELD_METHODS.items():
            original = SpectralField.__dict__[attr]
            self._installed.append((SpectralField, attr, original))
            setattr(SpectralField, attr, self.wrap(span_name, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def write_jsonl(self, path, origin: float) -> None:
        """Write every span, times in seconds relative to ``origin``."""
        with open(path, "w") as fh:
            for name, start, end, parent, item, info in self.spans:
                row = {
                    "name": name,
                    "start": start - origin,
                    "end": end - origin,
                    "parent": parent,
                    "item": item,
                }
                if info:
                    row.update(info)
                fh.write(json.dumps(row) + "\n")


# -- aggregation -------------------------------------------------------------


class SpanTable:
    """Durations, self times and nesting-aware busy times of a span list."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        self.duration = [end - start for _, start, end, _, _, _ in spans]
        self.self_time = list(self.duration)
        for index, span in enumerate(spans):
            if span[3] >= 0:
                self.self_time[span[3]] -= self.duration[index]

    def matching(self, prefix: str) -> list[int]:
        return [i for i, span in enumerate(self.spans) if span[0].startswith(prefix)]

    def busy(self, prefix: str) -> float:
        """Time inside spans named ``prefix*``, not counting nested ones twice."""
        total = 0.0
        for index in self.matching(prefix):
            parent = self.spans[index][3]
            while parent >= 0 and not self.spans[parent][0].startswith(prefix):
                parent = self.spans[parent][3]
            if parent < 0:
                total += self.duration[index]
        return total

    def self_total(self, prefix: str) -> float:
        return sum(self.self_time[i] for i in self.matching(prefix))

    def info(self, prefix: str, key: str) -> list:
        return [
            self.spans[i][5][key]
            for i in self.matching(prefix)
            if self.spans[i][5] and key in self.spans[i][5]
        ]


def layer_metrics(spans: list[list], wall_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer figures of one traced pass, as ``name -> (value, unit)``."""
    table = SpanTable(spans)
    iterations = table.info("norms.sum_space_norm", "iterations")
    gaps = table.info("norms.sum_space_norm", "gap")
    iterated = [
        i
        for i in table.matching("norms.sum_space_norm")
        if (table.spans[i][5] or {}).get("iterations", 0) > 0
    ]
    iterated_s = sum(table.duration[i] for i in iterated)
    total_iterations = sum(iterations)
    operator_modes = sum(table.info("operators.", "modes"))
    operator_busy = table.busy("operators.")
    return {
        "norms.solves": (len(table.matching("norms.sum_space_norm")), "count"),
        "norms.iterations": (total_iterations, "count"),
        "norms.iterations_per_solve.p50": (
            statistics.median(iterations) if iterations else 0, "count"),
        "norms.iterations_per_solve.max": (max(iterations, default=0), "count"),
        "norms.us_per_iteration": (
            1e6 * iterated_s / total_iterations if total_iterations else 0.0, "us"),
        "norms.busy_s": (table.busy("norms."), "s"),
        "norms.solves_without_iteration": (iterations.count(0), "count"),
        "norms.gap.max": (max(gaps, default=0.0), "1"),
        "operators.calls": (len(table.matching("operators.")), "count"),
        "operators.busy_s": (operator_busy, "s"),
        "operators.ns_per_mode": (
            1e9 * operator_busy / operator_modes if operator_modes else 0.0, "ns"),
        "spectral.inverse_transform.calls": (
            len(table.matching("spectral.inverse_transform")), "count"),
        "spectral.inverse_transform.busy_s": (
            table.busy("spectral.inverse_transform"), "s"),
        "spectral.forward_transform.calls": (
            len(table.matching("spectral.forward_transform")), "count"),
        "spectral.forward_transform.busy_s": (
            table.busy("spectral.forward_transform"), "s"),
        "spectral.field_ops.busy_s": (table.busy("spectral.field_ops."), "s"),
        "kernels.build.busy_s": (table.busy("kernels.build."), "s"),
        "kernels.sup_norm_scan.busy_s": (table.busy("kernels.sup_norm_scan"), "s"),
        "disk.bbb_ratio.calls": (len(table.matching("disk.bbb_ratio")), "count"),
        "disk.bbb_ratio.self_s": (table.self_total("disk.bbb_ratio"), "s"),
        "experiments.verify_bb.self_s": (table.self_total("experiments.verify_bb"), "s"),
        "experiments.random_field.busy_s": (table.busy("experiments.random_field"), "s"),
        "decomposition.solve_decomposition.calls": (
            len(table.matching("decomposition.solve_decomposition")), "count"),
        "decomposition.solve_decomposition.busy_s": (
            table.busy("decomposition.solve_decomposition"), "s"),
        "fileio.write.busy_s": (table.busy("fileio.write."), "s"),
        "fileio.bytes": (sum(table.info("fileio.write.", "bytes")), "bytes"),
        "bench.check.busy_s": (table.busy("bench.check"), "s"),
        "trace.spans": (len(spans), "count"),
        "trace.self_time_coverage": (
            sum(table.self_time) / wall_s if wall_s > 0 else 0.0, "1"),
    }


def solve_gaps(spans: list[list]) -> list[float]:
    """Duality gaps of every traced sum-space solve (NaN when one failed)."""
    return [
        (span[5] or {}).get("gap", math.nan)
        for span in spans
        if span[0] == "norms.sum_space_norm"
    ]
