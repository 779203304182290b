"""The four benchmark workloads: inputs from a seed, one iteration, checks.

Each workload is built from ``(seed, size)`` in the set-up phase; only the
generated inputs (grids, source cells, packets, command lines) reach qfront.
``iteration(tracer)`` does the timed work and returns its outputs;
``check(outputs)`` returns the list of failed output checks, and runs
outside the timed region.  See README.md beside this file for why each
workload exists and which metric each layer should move.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys

import numpy as np

from qfront import (
    Grid,
    QuantumProblem,
    ScalarField,
    SourceSpec,
    TraveltimeField,
    difference_estimate,
    evaluate_modified,
    front_mask,
    gaussian_packet,
    local_time,
    natural_units,
    propagate_classical,
    read_field_csv,
    solve_traveltime,
    write_field_csv,
)

NATURAL = natural_units()
# Relative tolerance of the fast-marching t_P against the exact distance
# outside the seed ball (1.69% measured at 301^2 with three sources).
CONE_TOLERANCE = 0.02
NORM_DRIFT_LIMIT = 1e-9
COMMAND_TIMEOUT_S = 120.0


class Front:
    """Fast marching on a 2-D and a 3-D grid, then local time and front masks."""

    name = "front"
    # The toy 2-D grid stays wide against the 8-cell seed balls: where three
    # balls nearly touch, the cells between them exceed the 2% tolerance
    # (2.96% at 101^2, seed 21), which is rare at 301^2.
    SIZES = {"full": (301, 40, 16), "toy": (151, 12, 4)}
    SPEED = 1.0

    def __init__(self, seed: int, size: str) -> None:
        n2, n3, self.n_times = self.SIZES[size]
        rng = np.random.default_rng(seed)
        self.grid2 = Grid((n2, n2), (1.0 / (n2 - 1),) * 2)
        self.cells2 = [tuple(int(i) for i in rng.integers(0, n2, 2)) for _ in range(3)]
        self.grid3 = Grid((n3,) * 3, (1.0 / (n3 - 1),) * 3)
        self.cells3 = [tuple(int(i) for i in rng.integers(0, n3, 3))]
        self.reference = None

    def iteration(self, tracer):
        fields = []
        for grid, cells in ((self.grid2, self.cells2), (self.grid3, self.cells3)):
            with tracer.span("eikonal.solve_traveltime", dims=grid.dims, cells=grid.n_cells):
                tt = solve_traveltime(grid, SourceSpec(cells), self.SPEED)
            fields.append(tt)
        for tt in fields:
            for t in np.linspace(0.0, tt.max_traveltime(), self.n_times):
                with tracer.span("localtime.local_time"):
                    local_time(tt, t)
                with tracer.span("eikonal.front_mask"):
                    front_mask(tt, t)
        return fields

    def check(self, fields) -> list[str]:
        from scipy import ndimage

        failures = []
        tt2 = fields[0]
        spacing = self.grid2.spacing
        outside = np.ones(self.grid2.shape, dtype=bool)
        for cell in self.cells2:
            outside[cell] = False
        exact = ndimage.distance_transform_edt(outside, sampling=spacing) / self.SPEED
        beyond = exact > 8.0 * max(spacing) / self.SPEED
        rel = np.abs(tt2.t_P[beyond] - exact[beyond]) / exact[beyond]
        if not rel.max() < CONE_TOLERANCE:
            failures.append(f"2-D t_P off the exact distance by {rel.max():.3%}")
        current = [tt.t_P.tobytes() for tt in fields]
        if self.reference is None:
            self.reference = current
        elif current != self.reference:
            failures.append("t_P differs from the first iteration")
        return failures


class _Retarded:
    """Front by fast marching, CN run with a windowed history, retarded frames.

    Subclasses set grid, source, speed, potential, initial, dt, steps,
    frames and spare (snapshots kept beyond the minimal window).
    """

    def iteration(self, tracer):
        grid = self.grid
        with tracer.span("eikonal.solve_traveltime", dims=grid.dims, cells=grid.n_cells):
            tt = solve_traveltime(grid, self.source, self.speed)
        window = math.ceil(tt.max_traveltime() / self.dt) + 2 + self.spare
        with tracer.span("schrodinger.QuantumProblem"):
            problem = QuantumProblem(grid, self.potential, 1.0, self.dt, NATURAL)
        with tracer.span("schrodinger.propagate_classical", dims=grid.dims,
                         steps=self.steps) as attrs:
            solution = propagate_classical(self.initial, problem, self.steps,
                                           history_window=window)
        attrs["history_bytes"] = len(solution.snapshots) * grid.n_cells * 16
        frames = []
        # Every frame reads the same window, so tracemalloc runs on the first
        # only; on all of them it would inflate schrodinger.evaluate_ms.
        for k, snapshot in enumerate(solution.snapshots[-self.frames:]):
            with tracer.span("schrodinger.evaluate_modified", memory=tracer.enabled and k == 0):
                frames.append(evaluate_modified(solution, tt, snapshot.time_stamp))
        return solution, tt, frames

    def check(self, outputs) -> list[str]:
        """Norm drift, the classical limit and exact zeros where unreached.

        The unreached-cell check delays every cell beyond the median t_P
        past the final time, so some cells are unreached while the rest
        keep the local times of the last timed frame.
        """
        solution, traveltime, frames = outputs[:3]
        failures = []
        drift = solution.norm_drift()
        if not drift < NORM_DRIFT_LIMIT:
            failures.append(f"norm drift {drift:.3e} >= {NORM_DRIFT_LIMIT:g}")

        grid = solution.problem.grid
        middle = solution.snapshots[len(solution.snapshots) // 2]
        zero = TraveltimeField(grid, np.zeros(grid.shape), traveltime.v_P)
        classical = evaluate_modified(solution, zero, middle.time_stamp).values
        if classical.tobytes() != middle.values.tobytes():
            failures.append("zero traveltime does not reproduce the classical snapshot bit for bit")

        t_end = solution.snapshots[-1].time_stamp
        t_p = traveltime.t_P
        delayed = np.where(t_p > np.median(t_p), t_p + 2.0 * t_end, t_p)
        partial = evaluate_modified(solution, TraveltimeField(grid, delayed, traveltime.v_P), t_end)
        unreached = delayed > t_end
        if not unreached.any() or np.any(partial.values[unreached] != 0.0):
            failures.append("unreached cells are not exactly zero")
        if partial.values[~unreached].tobytes() != frames[-1].values[~unreached].tobytes():
            failures.append("reached cells differ from the timed retarded frame")
        return failures


class Frames1D(_Retarded):
    """Long 1-D Crank-Nicolson run, then a 50-frame retarded movie."""

    name = "frames1d"
    # cells, dt, steps, frames
    SIZES = {"full": (4096, 1e-5, 4000, 50), "toy": (256, 1e-4, 300, 5)}
    speed = 100.0

    def __init__(self, seed: int, size: str) -> None:
        cells, self.dt, self.steps, self.frames = self.SIZES[size]
        self.spare = self.frames
        rng = np.random.default_rng(seed)
        self.grid = Grid((cells,), (1.0 / (cells - 1),))
        # The source stays within the first 1% of the line so max t_P, and
        # with it the history window, barely moves with the seed.
        self.source = SourceSpec([(int(rng.integers(0, cells // 100 + 1)),)])
        self.potential = ScalarField(self.grid, np.zeros(self.grid.shape))
        self.initial = gaussian_packet(self.grid, (rng.uniform(0.3, 0.7),), 0.04, 30.0)

    def iteration(self, tracer):
        solution, tt, frames = super().iteration(tracer)
        with tracer.span("schrodinger.difference_estimate"):
            difference = difference_estimate(solution, tt, solution.snapshots[-2].time_stamp)
        return solution, tt, frames, difference

    def check(self, outputs) -> list[str]:
        failures = super().check(outputs)
        if not all(np.all(np.isfinite(f.values)) for f in outputs[3]):
            failures.append("difference estimate is not finite")
        return failures


class Steps2D(_Retarded):
    """2-D Crank-Nicolson (BiCGSTAB) run whose history window evicts snapshots."""

    name = "steps2d"
    # cells per axis, dt, steps, frames
    SIZES = {"full": (160, 1e-5, 200, 2), "toy": (24, 1e-5, 20, 2)}
    spare = 0

    def __init__(self, seed: int, size: str) -> None:
        n, self.dt, self.steps, self.frames = self.SIZES[size]
        rng = np.random.default_rng(seed)
        self.grid = Grid((n, n), (1.0 / (n - 1),) * 2)
        cell = tuple(int(i) for i in rng.integers(0, n, 2))
        self.source = SourceSpec([cell])
        # Front speed chosen so ceil(max t_P / dt) + 2, the minimal window,
        # is about half the run wherever the seed puts the source.
        corners = np.array([[0, 0], [0, n - 1], [n - 1, 0], [n - 1, n - 1]])
        farthest = np.max(np.hypot(*(corners - np.array(cell)).T)) * self.grid.spacing[0]
        self.speed = farthest / ((self.steps // 2 - 2) * self.dt)
        self.potential = ScalarField(self.grid, np.zeros(self.grid.shape))
        # BiCGSTAB iterations per step depend on where the packet sits (2 or
        # 3 at dt = 1e-5 for centres in [0.3, 0.7]^2), so the seed picks one
        # of the eight mirror images of one centre: another packet, the same
        # work (400 iterations over the 200 steps for each image).
        x, y = 0.42, 0.57
        images = [(x, y), (1 - x, y), (x, 1 - y), (1 - x, 1 - y),
                  (y, x), (1 - y, x), (y, 1 - x), (1 - y, 1 - x)]
        self.initial = gaussian_packet(self.grid, images[int(rng.integers(0, 8))], 0.05)

    def check(self, outputs) -> list[str]:
        failures = super().check(outputs)
        if outputs[0].first_step == 0:
            failures.append("history window evicted no snapshot")
        return failures


class Cli:
    """The README command sequence, each command a fresh interpreter."""

    name = "cli"
    # 2-D eikonal cells per axis, 1-D cells, propagate steps
    SIZES = {"full": (201, 512, 300), "toy": (31, 64, 50)}
    CONE_LINE = re.compile(r"analytic cone \(beyond 5 cells\): ([0-9.eE+-]+)%")
    RATIO_LINE = re.compile(r"v_P = ([0-9.eE+-]+) m/s.*\(ratio ([0-9.eE+-]+)\)")
    FIELD_CSVS = ("tt.csv", "run_state.csv", "tt1d.csv", "runmod_state.csv")

    def __init__(self, seed: int, size: str, workdir: str, env: dict) -> None:
        self.n2, self.n1, steps = self.SIZES[size]
        rng = np.random.default_rng(seed)
        self.workdir, self.env = workdir, env
        src2 = ",".join(str(int(i)) for i in rng.integers(self.n2 // 10, self.n2 - self.n2 // 10, 2))
        src1 = str(int(rng.integers(0, self.n1)))
        centre = f"{rng.uniform(0.3, 0.7):.6f}"
        h1 = repr(1.0 / (self.n1 - 1))
        line = ["--shape", str(self.n1), "--spacing", h1]
        packet = ["--gaussian-center", centre, "--gaussian-width", "0.04",
                  "--mass", "1", "--dt", "1e-5", "--n-steps", str(steps)]
        self.commands = [
            ("eikonal2d", ["eikonal", "--shape", f"{self.n2},{self.n2}", "--spacing", "1,1",
                           "--source", src2, "--speed", "1.0", "--out", "tt.csv",
                           "--verify-analytic"]),
            ("propagate", ["propagate", *line, *packet, "--gaussian-carrier", "30",
                           "--out-prefix", "run"]),
            ("eikonal1d", ["eikonal", *line, "--source", src1, "--speed", "100",
                           "--out", "tt1d.csv"]),
            ("propagate_modified", ["propagate", *line, *packet, "--mode", "modified",
                                    "--traveltime", "tt1d.csv", "--vp", "100",
                                    "--localtime-out", "lt.csv", "--out-prefix", "runmod"]),
            ("dispersion", ["dispersion", "--vp", "1.3e8", "--voltage", "54"]),
            ("fit", ["fit", "--use-bundled"]),
            ("compare", ["compare", "--use-bundled", "--out", "layers.csv"]),
        ]

    def _run(self, argv: list[str]) -> subprocess.CompletedProcess:
        return subprocess.run(argv, cwd=self.workdir, env=self.env, capture_output=True,
                              text=True, timeout=COMMAND_TIMEOUT_S)

    def iteration(self, tracer):
        results = {}
        for name, args in self.commands:
            with tracer.span(f"cli.{name}"):
                results[name] = self._run([sys.executable, "-m", "qfront.cli", *args])
        return results

    def _rows(self, name: str) -> int:
        with open(os.path.join(self.workdir, name)) as fh:
            return sum(1 for _ in fh)

    def check(self, results) -> list[str]:
        failures = [f"{name} exited {r.returncode}: {r.stderr.strip()[-200:]}"
                    for name, r in results.items() if r.returncode != 0]
        if failures:
            return failures
        expected = {"tt.csv": self.n2 * self.n2 + 1, "run_state.csv": self.n1 + 1,
                    "tt1d.csv": self.n1 + 1, "runmod_state.csv": self.n1 + 1,
                    "lt.csv": self.n1 + 1}
        fit = json.loads(results["fit"].stdout)
        expected["layers.csv"] = 1 + fit["n_records"] + 2 * 200
        for name, rows in expected.items():
            if self._rows(name) != rows:
                failures.append(f"{name} has {self._rows(name)} lines, expected {rows}")
        cone = self.CONE_LINE.search(results["eikonal2d"].stdout)
        if cone is None or not float(cone.group(1)) < 100 * CONE_TOLERANCE:
            failures.append(f"cone error line missing or >= 2%: {results['eikonal2d'].stdout!r}")
        if len(results["dispersion"].stdout.splitlines()) != 2:
            failures.append("dispersion table is not one header and one row")
        v_p = fit["v_p_fitted_m_per_s"]
        ratio = fit["variance_classical_inv_m2"] / fit["variance_modified_inv_m2"]
        compared = self.RATIO_LINE.search(results["compare"].stdout)
        for label, v, r in (("fit", v_p, ratio),
                            ("compare", *(map(float, compared.groups()) if compared else (0, 0)))):
            if not (abs(v / 1.3e8 - 1.0) < 0.05 and 1.8 <= r <= 2.8):
                failures.append(f"{label}: v_P {v:.4g} m/s, variance ratio {r:.3f}")
        return failures

    def finish(self, tracer) -> list[str]:
        """Traced run only: CSV read/write in-process, and fresh imports."""
        failures = []
        for name in self.FIELD_CSVS:
            path = os.path.join(self.workdir, name)
            rows = self._rows(name) - 1
            with tracer.span("fields.read_field_csv", rows=rows):
                field = read_field_csv(path)
            copy = path + ".rewrite"
            with tracer.span("fields.write_field_csv", rows=rows):
                write_field_csv(field, copy)
            with open(path, "rb") as a, open(copy, "rb") as b:
                if a.read() != b.read():
                    failures.append(f"{name} does not round-trip byte for byte")
        probe = ("import time; t = time.perf_counter(); import qfront; "
                 "print(time.perf_counter() - t)")
        for _ in range(3):
            with tracer.span("cli.import") as attrs:
                done = self._run([sys.executable, "-c", probe])
            if done.returncode != 0:
                failures.append(f"import qfront failed: {done.stderr.strip()[-200:]}")
            else:
                attrs["import_s"] = float(done.stdout)
        return failures


WORKLOADS = {cls.name: cls for cls in (Front, Frames1D, Steps2D, Cli)}
