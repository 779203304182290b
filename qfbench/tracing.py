"""Spans recorded by the benchmark around its own calls into qfront.

Nothing inside ``src/`` is instrumented: the workloads wrap each call into a
public qfront function in ``tracer.span(...)``.  Spans stay in memory and are
written out once, when the run ends.  The untraced run uses ``NullTracer``,
whose spans cost one attribute lookup and a no-op context manager.
"""

from __future__ import annotations

import contextlib
import statistics
import time
import tracemalloc
from dataclasses import dataclass, field

MIB = float(1 << 20)


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records (name, start, end, parent, attrs) per span, in memory."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, memory: bool = False, **attrs):
        """Time the enclosed call; with memory=True also its tracemalloc peak.

        Yields the attribute dict so the caller can attach counts that are
        only known after the call returns.
        """
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        record = Span(name, 0.0, parent=parent, attrs=dict(attrs))
        self.spans.append(record)
        self._open.append(index)
        if memory:
            tracemalloc.start()
        record.start = time.perf_counter()
        try:
            yield record.attrs
        finally:
            record.end = time.perf_counter()
            if memory:
                record.attrs["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            self._open.pop()

    def as_json(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end,
             "parent": s.parent, **s.attrs}
            for s in self.spans
        ]


class NullTracer:
    """Tracer stand-in for the untraced run: records nothing."""

    enabled = False

    @contextlib.contextmanager
    def span(self, name: str, memory: bool = False, **attrs):
        yield {}


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.duration
    return own


def _per(total: float, base: float) -> float:
    return total / base if base else 0.0


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def per_layer_metrics(spans: list[Span], untraced_walls: list[float]) -> dict:
    """Per-layer numbers from the spans of a traced run.

    Times are per traced iteration unless the name says otherwise.  A layer
    the workload never calls reads 0.
    """
    iterations = [i for i, s in enumerate(spans) if s.name == "iteration"]
    n_iter = len(iterations)
    traced_walls = [spans[i].duration for i in iterations]
    own = self_times(spans)
    in_iteration = set(iterations)

    def select(name, **match):
        return [s for s in spans if s.name == name
                and all(s.attrs.get(k) == v for k, v in match.items())]

    def seconds(chosen):
        return sum(s.duration for s in chosen)

    def attr_sum(chosen, key):
        return sum(s.attrs.get(key, 0) for s in chosen)

    solves = select("eikonal.solve_traveltime")
    solves_2d = select("eikonal.solve_traveltime", dims=2)
    solves_3d = select("eikonal.solve_traveltime", dims=3)
    runs = select("schrodinger.propagate_classical")
    runs_1d = select("schrodinger.propagate_classical", dims=1)
    runs_2d = select("schrodinger.propagate_classical", dims=2)
    frames = select("schrodinger.evaluate_modified")
    # Frames run under tracemalloc are slower; time the others.
    timed_frames = [s.duration for s in frames if "peak_bytes" not in s.attrs]
    reads = select("fields.read_field_csv")
    writes = select("fields.write_field_csv")
    imported = [s.attrs["import_s"] for s in select("cli.import") if "import_s" in s.attrs]

    metrics = {
        "eikonal.solve_s": _per(seconds(solves), n_iter),
        "eikonal.us_per_cell_2d": 1e6 * _per(seconds(solves_2d), attr_sum(solves_2d, "cells")),
        "eikonal.us_per_cell_3d": 1e6 * _per(seconds(solves_3d), attr_sum(solves_3d, "cells")),
        "eikonal.cells": _per(attr_sum(solves, "cells"), n_iter),
        "localtime.classify_s": _per(seconds(select("localtime.local_time")), n_iter),
        "schrodinger.propagate_s": _per(seconds(runs), n_iter),
        "schrodinger.step_ms_1d": 1e3 * _per(seconds(runs_1d), attr_sum(runs_1d, "steps")),
        "schrodinger.step_ms_2d": 1e3 * _per(seconds(runs_2d), attr_sum(runs_2d, "steps")),
        "schrodinger.steps": _per(attr_sum(runs, "steps"), n_iter),
        "schrodinger.evaluate_ms": 1e3 * _median(timed_frames),
        "schrodinger.difference_s": _per(seconds(select("schrodinger.difference_estimate")), n_iter),
        "schrodinger.frames": _per(len(frames), n_iter),
        "schrodinger.history_mb": max((s.attrs["history_bytes"] for s in runs), default=0) / MIB,
        "schrodinger.evaluate_peak_mb": max((s.attrs.get("peak_bytes", 0) for s in frames), default=0) / MIB,
        "fields.write_us_per_row": 1e6 * _per(seconds(writes), attr_sum(writes, "rows")),
        "fields.read_us_per_row": 1e6 * _per(seconds(reads), attr_sum(reads, "rows")),
        "fields.rows": attr_sum(reads, "rows"),
        "cli.import_s": _median(imported),
    }
    for command in ("eikonal2d", "eikonal1d", "propagate", "propagate_modified",
                    "dispersion", "fit", "compare"):
        metrics[f"cli.{command}_s"] = _median(s.duration for s in select(f"cli.{command}"))

    # Self time and coverage count only spans inside traced iterations.
    layer_self: dict[str, float] = {}
    covered = 0.0
    for i, s in enumerate(spans):
        if s.parent in in_iteration:
            covered += s.duration
        if s.name != "iteration" and _inside(spans, i, in_iteration):
            layer_self[s.layer] = layer_self.get(s.layer, 0.0) + own[i]
    for layer in ("eikonal", "localtime", "schrodinger", "cli"):
        metrics[f"{layer}.self_s"] = _per(layer_self.get(layer, 0.0), n_iter)

    traced_wall = _median(traced_walls)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - statistics.median(untraced_walls)
    metrics["trace.coverage"] = _per(covered, sum(traced_walls))
    return metrics


def _inside(spans: list[Span], index: int, roots: set) -> bool:
    parent = spans[index].parent
    while parent is not None:
        if parent in roots:
            return True
        parent = spans[parent].parent
    return False
