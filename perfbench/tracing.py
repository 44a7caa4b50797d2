"""Per-layer spans for the benchmark, recorded from outside the package.

The tracer replaces public functions under the names their callers look
them up by (``runner.evolve``, ``evolution.apply_coin_layer``, ...) with
wrappers that record a span per call: name, start, end and the index of
the enclosing span.  ``json.dumps``/``json.loads`` are wrapped only as the
runner sees them, through a stand-in for its ``json`` module.  Spans stay
in memory until the job ends.  A target that no longer exists is skipped,
and every metric that depends on it is left out.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
import types
from typing import Any, Callable

Span = tuple  # (name, start, end, parent_index, counts or None)


def _schedule_points(args, kwargs, result) -> dict:
    schedules = result if isinstance(result, list) else [result]
    return {"mesh_points": sum(s.num_steps * (s.num_steps + 1) // 2 for s in schedules)}


def _trajectory(args, kwargs, result) -> dict:
    # A walk reaching step index k crossed k splitters on its last step.
    return {
        "mesh_points": sum(state.step_index for state in result[1:]),
        "trajectory_bytes": sum(state.amplitudes.nbytes for state in result),
    }


def _paths(args, kwargs, result) -> dict:
    return {"paths": 2 ** result.step_index}


def _rows(args, kwargs, result) -> dict:
    return {"rows": len(result)}


def _series_rows(args, kwargs, result) -> dict:
    return {"rows": len(result.rows)}


def _chars(args, kwargs, result) -> dict:
    # The runner keeps json's default ensure_ascii, so characters are bytes.
    return {"bytes": len(result)}


# (module, attribute, span name, counter).  The runner and the evolution
# module call these through their own globals; the library chain of the
# ordered-walk workload calls the module attributes of schedules,
# evolution and measure.
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("beamwalk.cli", "run", "runner.run", None),
    ("beamwalk.cli", "replay", "runner.replay", None),
    ("beamwalk.runner", "ensemble_schedules", "schedules.draw", _schedule_points),
    ("beamwalk.runner", "ordered_schedule", "schedules.draw", _schedule_points),
    ("beamwalk.schedules", "ordered_schedule", "schedules.draw", _schedule_points),
    ("beamwalk.runner", "evolve", "evolution.evolve", _trajectory),
    ("beamwalk.evolution", "evolve", "evolution.evolve", _trajectory),
    ("beamwalk.evolution", "apply_coin_layer", "evolution.coin_layer", None),
    ("beamwalk.evolution", "apply_shift", "evolution.shift", None),
    ("beamwalk.evolution", "coin_field", "evolution.coin_field", None),
    ("beamwalk.runner", "series_from_trajectory", "measure.series", _series_rows),
    ("beamwalk.measure", "series_from_trajectory", "measure.series", _series_rows),
    ("beamwalk.runner", "ensemble_mean_series", "measure.ensemble_mean", None),
    ("beamwalk.runner", "variance", "measure.variance", None),
    ("beamwalk.measure", "variance_series", "measure.variance", None),
    ("beamwalk.runner", "oracle_state", "oracle.path_sum", _paths),
    ("beamwalk.runner", "layout_table", "apparatus.layout", _rows),
    ("beamwalk.runner", "json.dumps", "runner.manifest_encode", _chars),
    ("beamwalk.runner", "json.loads", "runner.manifest_decode", None),
)


class Tracer:
    """Installs span-recording wrappers and removes them again."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.installed: set[str] = set()
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []

    def _wrap(self, fn: Callable, name: str, counter: Callable | None) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                counts = None
                if counter is not None and result is not None:
                    try:
                        counts = counter(args, kwargs, result)
                    except (AttributeError, TypeError, IndexError):
                        counts = None
                spans[index] = (name, start, end, parent, counts)

        return wrapper

    def install(self) -> None:
        proxies: dict[int, types.ModuleType] = {}
        for module_name, attr, name, counter in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            owner = module
            if "." in attr:
                # ``json.dumps`` as the runner sees it: give the runner its
                # own copy of the json namespace and wrap the copy.
                holder, attr = attr.split(".")
                real = getattr(module, holder, None)
                if not isinstance(real, types.ModuleType):
                    continue
                owner = proxies.get(id(module))
                if owner is None:
                    owner = types.ModuleType(real.__name__)
                    owner.__dict__.update(real.__dict__)
                    self._saved.append((module, holder, real))
                    setattr(module, holder, owner)
                    proxies[id(module)] = owner
            original = getattr(owner, attr, None)
            if not callable(original):
                continue
            if owner is module:
                self._saved.append((module, attr, original))
            setattr(owner, attr, self._wrap(original, name, counter))
            self.installed.add(name)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


# Per-layer metric -> (unit, span names it needs).  A metric whose spans
# were not installed is left out.  Order is the order of BENCHMARK.json.
LAYER_METRICS: dict[str, tuple[str, tuple[str, ...]]] = {
    "schedules.draw_s": ("s", ("schedules.draw",)),
    "schedules.mesh_points": ("count", ("schedules.draw",)),
    "evolution.evolve_s": ("s", ("evolution.evolve",)),
    "evolution.coin_layer_s": ("s", ("evolution.coin_layer",)),
    "evolution.shift_s": ("s", ("evolution.shift",)),
    "evolution.coin_field_s": ("s", ("evolution.coin_field",)),
    "evolution.ns_per_mesh_point": ("ns", ("evolution.evolve",)),
    "evolution.walk_p50_ms": ("ms", ("evolution.evolve",)),
    "evolution.walk_tail_ms": ("ms", ("evolution.evolve",)),
    "evolution.walk_tail_pct": ("pct", ("evolution.evolve",)),
    "evolution.walk_samples": ("count", ("evolution.evolve",)),
    "state.trajectory_mb": ("MB", ("evolution.evolve",)),
    "measure.series_s": ("s", ("measure.series",)),
    "measure.ensemble_mean_s": ("s", ("measure.ensemble_mean",)),
    "measure.variance_s": ("s", ("measure.variance",)),
    "measure.distributions": ("count", ("measure.series",)),
    "oracle.path_sum_s": ("s", ("oracle.path_sum",)),
    "oracle.paths": ("count", ("oracle.path_sum",)),
    "oracle.ns_per_path": ("ns", ("oracle.path_sum",)),
    "apparatus.layout_s": ("s", ("apparatus.layout",)),
    "apparatus.layout_rows": ("count", ("apparatus.layout",)),
    "runner.manifest_encode_s": ("s", ("runner.manifest_encode",)),
    "runner.manifest_bytes": ("count", ("runner.manifest_encode",)),
    "runner.manifest_decode_s": ("s", ("runner.manifest_decode",)),
    "runner.self_s": ("s", ("runner.run", "runner.replay")),
    # Measured by run.py, from the output directories and the untraced
    # operations of the same run.
    "runner.files_written": ("count", ()),
    "runner.bytes_written": ("count", ()),
    "trace.overhead_s": ("s", ()),
}


def _busy(spans: list[Span], name: str) -> float:
    return sum(end - start for n, start, end, _, _ in spans if n == name)


def _count(spans: list[Span], name: str, key: str) -> int:
    return sum((counts or {}).get(key, 0) for n, _, _, _, counts in spans if n == name)


def op_layer_values(spans: list[Span], installed: set[str]) -> dict[str, float]:
    """Layer metrics of one operation, from the spans of its child jobs
    (parent indices refer to positions in ``spans``)."""
    self_time = 0.0
    for index, (name, start, end, _, _) in enumerate(spans):
        if name in ("runner.run", "runner.replay"):
            children = sum(e - s for _, s, e, parent, _ in spans if parent == index)
            self_time += (end - start) - children
    evolve_s = _busy(spans, "evolution.evolve")
    evolve_points = _count(spans, "evolution.evolve", "mesh_points")
    oracle_s = _busy(spans, "oracle.path_sum")
    paths = _count(spans, "oracle.path_sum", "paths")
    values = {
        "schedules.draw_s": _busy(spans, "schedules.draw"),
        "schedules.mesh_points": _count(spans, "schedules.draw", "mesh_points"),
        "evolution.evolve_s": evolve_s,
        "evolution.coin_layer_s": _busy(spans, "evolution.coin_layer"),
        "evolution.shift_s": _busy(spans, "evolution.shift"),
        "evolution.coin_field_s": _busy(spans, "evolution.coin_field"),
        "evolution.ns_per_mesh_point": evolve_s / evolve_points * 1e9 if evolve_points else 0.0,
        "state.trajectory_mb": max(
            ((counts or {}).get("trajectory_bytes", 0) for n, _, _, _, counts in spans
             if n == "evolution.evolve"), default=0) / 1e6,
        "measure.series_s": _busy(spans, "measure.series"),
        "measure.ensemble_mean_s": _busy(spans, "measure.ensemble_mean"),
        "measure.variance_s": _busy(spans, "measure.variance"),
        "measure.distributions": _count(spans, "measure.series", "rows"),
        "oracle.path_sum_s": oracle_s,
        "oracle.paths": paths,
        "oracle.ns_per_path": oracle_s / paths * 1e9 if paths else 0.0,
        "apparatus.layout_s": _busy(spans, "apparatus.layout"),
        "apparatus.layout_rows": _count(spans, "apparatus.layout", "rows"),
        "runner.manifest_encode_s": _busy(spans, "runner.manifest_encode"),
        "runner.manifest_bytes": _count(spans, "runner.manifest_encode", "bytes"),
        "runner.manifest_decode_s": _busy(spans, "runner.manifest_decode"),
        "runner.self_s": self_time,
    }
    return {
        metric: value for metric, value in values.items()
        if all(name in installed for name in LAYER_METRICS[metric][1])
    }


def walk_latencies(spans: list[Span]) -> list[float]:
    """Duration in seconds of every ``evolve`` call, one per realization."""
    return [end - start for name, start, end, _, _ in spans if name == "evolution.evolve"]


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it.  Below twenty samples no such percentile lies above
    the median, and the maximum is given, at percentile 100."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 20:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def summarize_walks(samples: list[float]) -> dict[str, float]:
    value, pct = tail(samples)
    return {
        "evolution.walk_p50_ms": statistics.median(samples) * 1e3,
        "evolution.walk_tail_ms": value * 1e3,
        "evolution.walk_tail_pct": pct,
        "evolution.walk_samples": len(samples),
    }
