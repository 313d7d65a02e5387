"""Spans and counts at libration's module boundaries, recorded from outside.

``install`` replaces public functions of the libration modules with wrappers
that open a span per call and bump counters; it also replaces every copy a
libration module took with ``from ... import``, such as
``libration.cli.sweep_diagram``.  No file of the package changes.  Spans and
counts stay in memory until the caller writes them out.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import importlib
import os
import sys
import time

# Layer of a span = text before the first dot of its name.
LAYERS = ("import", "cli", "config", "model", "steadystate", "dynamics", "squeezing", "output")


class Tracer:
    """In-memory span and counter store.

    A span is ``[name, start_ns, end_ns, parent_index, run_id]``; the parent is
    the innermost span open when it began.  ``gauges`` hold measured values
    that are not counts, such as a worst deviation.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: collections.Counter = collections.Counter()
        self.gauges: dict[str, float] = {}
        self.run_id: str | None = None
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter_ns(), None, parent, self.run_id])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def gauge_max(self, name: str, value: float) -> None:
        self.gauges[name] = max(self.gauges.get(name, value), value)

    def to_json(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts), "gauges": self.gauges}

    def merge(self, data: dict, run_id: str) -> None:
        """Append spans and counts recorded by another process."""
        offset = len(self.spans)
        for name, start, end, parent, _ in data["spans"]:
            self.spans.append([name, start, end, None if parent is None else parent + offset, run_id])
        self.counts.update(data["counts"])
        for name, value in data["gauges"].items():
            self.gauge_max(name, value)


def self_times(spans: list[list]) -> list[int]:
    """Each span's duration minus the part of its interval its children cover."""
    children: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[3] is not None:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0
        lo_run = hi_run = None
        pieces = sorted((max(spans[c][1], start), min(spans[c][2], end)) for c in children[i])
        for lo, hi in pieces:
            if hi <= lo:
                continue
            if hi_run is None or lo > hi_run:
                if hi_run is not None:
                    covered += hi_run - lo_run
                lo_run, hi_run = lo, hi
            else:
                hi_run = max(hi_run, hi)
        if hi_run is not None:
            covered += hi_run - lo_run
        out.append(end - start - covered)
    return out


# --- hooks: counters taken from arguments and results at the boundary --------

def _sweep_points(tracer, args, kwargs, result):
    tracer.counts["steadystate.grid_points"] += len(args[0])


def _roots(tracer, args, kwargs, result):
    tracer.counts["steadystate.points"] += 1
    tracer.counts["steadystate.roots"] += len(result)


def _plateau(tracer, args, kwargs, result):
    tracer.counts["dynamics.plateaus"] += 1
    tracer.counts["dynamics.steps"] += len(result.t) - 1
    tracer.counts["dynamics.incomplete"] += not result.complete


def _closed_samples(tracer, args, kwargs, result):
    tracer.counts["squeezing.closed_samples"] += len(result) if hasattr(result, "__len__") else 1


def _oracle_regime(tracer, args, kwargs, result):
    tracer.counts[f"squeezing.traces.{result.regime}"] += 1


def _file_written(tracer, args, kwargs, result):
    tracer.counts["output.files"] += 1
    tracer.counts["output.bytes"] += os.path.getsize(args[0])


# (module, function, hook); the span is named "<layer>.<function>".
TARGETS = (
    ("libration.config", "load_config", None),
    ("libration.model", "mode_parameters", None),
    ("libration.model", "gas_damping", None),
    ("libration.model", "thermal_occupancy", None),
    ("libration.model", "drive_amplitude", None),
    ("libration.steadystate", "sweep_diagram", _sweep_points),
    ("libration.steadystate", "solve_branches", _roots),
    ("libration.steadystate", "turning_points", None),
    ("libration.steadystate", "bistability_condition", None),
    ("libration.dynamics", "hysteresis_sweep", None),
    ("libration.dynamics", "quasi_static_sweep", None),
    ("libration.dynamics", "integrate", _plateau),
    ("libration.squeezing", "squeeze_params", None),
    ("libration.squeezing", "variance_theta_closed", _closed_samples),
    ("libration.squeezing", "variance_J_closed", _closed_samples),
    ("libration.squeezing", "moment_oracle", _oracle_regime),
    ("libration.squeezing", "exponential_angle", None),
    ("libration.output", "write_csv", _file_written),
    ("libration.output", "svg_line_chart", _file_written),
)


def _wrap(tracer: Tracer, name: str, fn, hook):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        except Exception:
            tracer.counts[name + ".errors"] += 1
            raise
        finally:
            tracer.end(index)
        if hook is not None:
            hook(tracer, args, kwargs, result)
        return result
    return wrapper


def _count_calls(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.counts[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def install(tracer: Tracer):
    """Wrap the traced functions; returns a callable that restores them.

    ``dynamics.mean_field_rhs`` only counts calls: a span per RHS evaluation
    would cost more than the evaluation.
    """
    replaced = []  # (module, attribute, original)

    def replace(module_name: str, attr: str, wrapper) -> None:
        original = getattr(importlib.import_module(module_name), attr)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "libration" and getattr(mod, attr, None) is original:
                replaced.append((mod, attr, original))
                setattr(mod, attr, wrapper)

    for module_name, attr, hook in TARGETS:
        layer = module_name.split(".")[1]
        fn = getattr(importlib.import_module(module_name), attr)
        replace(module_name, attr, _wrap(tracer, f"{layer}.{attr}", fn, hook))
    rhs = importlib.import_module("libration.dynamics").mean_field_rhs
    replace("libration.dynamics", "mean_field_rhs", _count_calls(tracer, "dynamics.rhs_evals", rhs))

    def restore() -> None:
        for mod, attr, original in reversed(replaced):
            setattr(mod, attr, original)
    return restore


def layer_metrics(tracer: Tracer, commands: tuple[str, ...]) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, by name, as (value, unit)."""
    total: dict[str, int] = collections.Counter()  # ns, per span name
    own: dict[str, int] = collections.Counter()  # self ns, per span name
    calls: dict[str, int] = collections.Counter()
    for span, self_ns in zip(tracer.spans, self_times(tracer.spans)):
        total[span[0]] += span[2] - span[1]
        own[span[0]] += self_ns
        calls[span[0]] += 1
    c = tracer.counts

    def mean(name: str, scale: float, of: dict = total) -> float:
        return of[name] / calls[name] / scale if calls[name] else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m = {
        "config.load_ms": (mean("config.load_config", 1e6), "ms"),
        "config.calls": (calls["config.load_config"], "count"),
        "model.mode_parameters_us": (mean("model.mode_parameters", 1e3), "us"),
        "model.calls": (calls["model.mode_parameters"], "count"),
        "steadystate.sweep_diagram_ms": (mean("steadystate.sweep_diagram", 1e6), "ms"),
        "steadystate.grid_us_per_point": (
            ratio(total["steadystate.sweep_diagram"] / 1e3, c["steadystate.grid_points"]), "us"),
        "steadystate.solve_branches_us": (mean("steadystate.solve_branches", 1e3), "us"),
        "steadystate.turning_points_us": (mean("steadystate.turning_points", 1e3), "us"),
        "steadystate.points": (c["steadystate.points"] + c["steadystate.solve_branches.errors"],
                               "count"),
        "steadystate.roots_per_point": (
            ratio(c["steadystate.roots"], c["steadystate.points"]), "1"),
        "steadystate.errors": (c["steadystate.solve_branches.errors"], "count"),
        "steadystate.missed_branches": (c["steadystate.missed_branches"], "count"),
        "steadystate.check_failures": (c["steadystate.check_failures"], "count"),
        "dynamics.hysteresis_sweep_s": (mean("dynamics.hysteresis_sweep", 1e9), "s"),
        "dynamics.plateaus": (c["dynamics.plateaus"], "count"),
        "dynamics.integrate_ms": (mean("dynamics.integrate", 1e6), "ms"),
        "dynamics.steps": (c["dynamics.steps"], "count"),
        "dynamics.rhs_evals": (c["dynamics.rhs_evals"], "count"),
        "dynamics.rhs_evals_per_step": (ratio(c["dynamics.rhs_evals"], c["dynamics.steps"]), "1"),
        "dynamics.incomplete": (c["dynamics.incomplete"], "count"),
        "squeezing.closed_ns_per_sample": (
            ratio(total["squeezing.variance_theta_closed"] + total["squeezing.variance_J_closed"],
                  c["squeezing.closed_samples"]), "ns"),
        "squeezing.oracle_ms": (mean("squeezing.moment_oracle", 1e6), "ms"),
        "squeezing.oracle_calls": (calls["squeezing.moment_oracle"], "count"),
        "squeezing.traces.hyperbolic": (c["squeezing.traces.hyperbolic"], "count"),
        "squeezing.traces.oscillatory": (c["squeezing.traces.oscillatory"], "count"),
        "squeezing.traces.degenerate": (c["squeezing.traces.degenerate"], "count"),
        "squeezing.max_rel_dev": (tracer.gauges.get("squeezing.max_rel_dev", 0.0), "1"),
        "output.write_csv_ms": (mean("output.write_csv", 1e6), "ms"),
        "output.svg_ms": (mean("output.svg_line_chart", 1e6), "ms"),
        "output.files": (c["output.files"], "count"),
        "output.bytes": (c["output.bytes"], "B"),
    }
    for cmd in commands:
        m[f"cli.{cmd}.main_ms"] = (mean(f"cli.{cmd}", 1e6), "ms")
        m[f"cli.{cmd}.self_ms"] = (mean(f"cli.{cmd}", 1e6, own), "ms")
    for layer in LAYERS:
        layer_ns = sum(v for name, v in own.items() if name.split(".")[0] == layer)
        m[f"layer.{layer}.self_ms"] = (layer_ns / 1e6, "ms")
    return m
