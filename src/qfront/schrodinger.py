"""Time-dependent Schrodinger propagation with a retarded local time.

Classical (instantaneous) evolution uses the Crank-Nicolson scheme

    (I + i*dt/(2*hbar) H) psi_{n+1} = (I - i*dt/(2*hbar) H) psi_n,

with H = -hbar^2/(2m) Laplacian + U and fixed-zero boundary values.  With
A = I + i*dt/(2*hbar) H the right-hand operator is 2I - A, so a step is the
Cayley form psi_{n+1} = 2 A^-1 psi_n - psi_n: one solve with A and no
second operator.  In 1-D A is factored once by LAPACK zgttrf and solved
by zgttrs each step; in 2-D and 3-D each step runs conjugate orthogonal
CG (COCG) on A's diagonal and per-axis couplings, started from the
quadratic extrapolation of the last three states.  The scheme is
unconditionally stable and, for real U, preserves the L2 norm to round-off.
The modified evolution is obtained from the classical one by evaluating
each point at its own local time theta = t - t_P, where t_P is the arrival
time of the perturbation front; points the front has not yet reached hold
the unperturbed value (zero for states that start as pure perturbations).
"""

from __future__ import annotations

import cmath
import functools
import importlib.machinery
import importlib.util
import math
import operator
import os
import sys
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from .constants import CODATA2018, PhysicalConstants
from .eikonal import TraveltimeField
from .fields import (ComplexField, Grid, ScalarField, _frozen, _integers, _norm_drift,
                     _require_grid_shape, l2_norm_squared)

__all__ = [
    "QuantumProblem",
    "ClassicalSolution",
    "ConvergenceError",
    "HistoryWindowError",
    "propagate_classical",
    "evaluate_modified",
    "difference_estimate",
    "make_plane_wave",
    "gaussian_packet",
    "box_eigenmode",
]

# Iterative-solver settings for multi-dimensional steps.  The tolerance is
# far below the CN truncation error so the solver never dominates the
# error budget; 500 iterations is generous for the diagonally dominant
# systems CN produces at practical dt.
_SOLVE_RTOL = 1e-13
_SOLVE_MAXITER = 500

# A time within _TIME_MATCH_RTOL * dt of a whole step is that step's
# snapshot time (absorbs round-off in t, t_P and the step times).
_TIME_MATCH_RTOL = 1e-9


def _step_weights(times, start_time: float, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Step (as float) at or below each finite time of a run from start_time
    and the weight of the next step.  A time within _TIME_MATCH_RTOL * dt of
    a step snaps to it with weight 0, so snapshot hits read one row bit for bit."""
    # A time so far from start_time that pos overflows is step +-inf, with a
    # NaN weight, outside every window.
    with np.errstate(over="ignore", invalid="ignore"):
        pos = (np.asarray(times, dtype=np.float64) - start_time) / dt
        step = np.rint(pos)
        hit = np.abs(pos - step) <= _TIME_MATCH_RTOL
        step = np.where(hit, step, np.floor(pos))
        return step, np.where(hit, 0.0, pos - step)


def _window_steps(t: float, times, start_time: float, dt: float, first: int, last: int,
                  margin=0) -> tuple[np.ndarray, np.ndarray]:
    """_step_weights of times (t, or times at t) in a run from start_time,
    each of which must lie in steps first..last less margin at each end."""
    if not math.isfinite(t):
        raise ValueError(f"time must be finite, got {t}")
    times = np.asarray(times, dtype=np.float64)
    step, weight = _step_weights(times, start_time, dt)
    first, last = first + margin, last - margin
    if np.any(step < first) or np.any(step + (weight > 0.0) > last):
        raise HistoryWindowError(
            f"times span [{times.min()}, {times.max()}] but steps {first}..{last} "
            f"of the retained window{' (less its endpoints)' if margin else ''} "
            "are usable; enlarge history_window, extend the run, or reduce t"
        )
    return step, weight


def _local_times(t_P: np.ndarray, t: float, oldest: float) -> tuple[np.ndarray, np.ndarray]:
    """Each cell's local time theta = t - t_P, flat, where the front has
    reached it (the second array: theta >= 0), else oldest, the first time
    a lookup may read; _retarded zeroes those cells."""
    theta = (t - t_P).reshape(-1)
    reached = theta >= 0.0
    return np.where(reached, theta, oldest), reached


class ConvergenceError(RuntimeError):
    """Iterative linear solve failed to reach the requested tolerance."""


class HistoryWindowError(RuntimeError):
    """A local-time lookup fell outside the retained snapshot window."""


@dataclass(frozen=True, eq=False)
class QuantumProblem:
    """A single-particle problem on a grid: potential, mass and step size.

    The potential is in joules on the same grid as the states; boundary
    values are clamped to zero (hard-wall box), so any state fed to the
    stepper must vanish on the outermost cell layer.  Every axis needs at
    least 3 cells, so that it has an interior cell.  The cell volume and its
    reciprocal must be finite and nonzero, and A = I + c*H, c = i*dt/(2*hbar),
    finite: the diagonal and the one coupling per axis _operator builds.
    """

    grid: Grid
    potential: ScalarField
    mass: float
    dt: float
    constants: PhysicalConstants = CODATA2018

    def __post_init__(self) -> None:
        if min(self.grid.shape) < 3:
            raise ValueError(
                f"grid shape {self.grid.shape} has an axis of fewer than 3 cells, "
                "so no interior cell to propagate"
            )
        _require_grid_shape("potential", self.potential.grid.shape, self.grid.shape)
        _require_finite("potential", self.potential.values)
        if not (self.mass > 0.0 and math.isfinite(self.mass)):
            raise ValueError(f"mass must be positive and finite, got {self.mass}")
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        _require_cell_volume(self.grid)
        if not all(np.isfinite(a).all() for a in _operator(self)):
            raise ValueError(
                f"c*H = i*dt*H/(2*hbar) overflows at dt={self.dt}, mass={self.mass}, "
                f"spacing={self.grid.spacing}; lower dt or the potential, or raise "
                "mass or spacing"
            )


def _require_cell_volume(grid: Grid) -> None:
    """Reject a grid on which no state of unit norm is finite."""
    volume = grid.cell_volume
    if not (0.0 < volume < math.inf and 1.0 / volume < math.inf):
        raise ValueError(f"the cell volume {volume!r} of spacing {grid.spacing} or its "
                         "reciprocal is not positive and finite")


def _require_finite(name: str, values: np.ndarray) -> None:
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{name} contains non-finite values")


def _initial_norm(state: ComplexField, grid: Grid) -> float:
    """Squared L2 norm of state, checked as an initial state on grid: finite,
    zero on the boundary cell layer and of nonzero norm."""
    _require_grid_shape("state", state.grid.shape, grid.shape)
    _require_finite("state", state.values)
    walls = np.ones(grid.shape, dtype=bool)
    walls[tuple(slice(1, -1) for _ in grid.shape)] = False
    if np.any(state.values[walls] != 0.0):
        raise ValueError(
            "state does not vanish on the boundary cell layer; the stepper "
            "assumes hard-wall (fixed zero) boundaries"
        )
    norm = l2_norm_squared(state)
    if norm == 0.0:
        raise ValueError("initial state has zero norm")
    return norm


def _product_state(grid: Grid, factors: Sequence[Sequence[complex]]) -> ComplexField:
    """prod_a factors[a][i_a - 1], factors[a] being Python numbers for the
    interior cells of axis a, at unit L2 norm and exactly +0.0 on the walls.
    Each list is scaled to unit norm along its axis (math.fsum), and numpy
    forms only the products, so no numpy SIMD loop touches a factor's bits."""
    _require_cell_volume(grid)
    scaled = []
    for f, h in zip(factors, grid.spacing):
        norm = math.sqrt(math.fsum(abs(v) ** 2 for v in f) * h)
        if norm == 0.0:
            raise ValueError("state vanishes on the grid interior")
        scaled.append(np.array([v / norm for v in f]))
    values = np.zeros(grid.shape, dtype=np.complex128)
    values[tuple(slice(1, -1) for _ in grid.shape)] = functools.reduce(np.multiply.outer, scaled)
    return ComplexField(grid, values)


def _require_lapack_success(routine: str, info: int) -> None:
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACK {routine} failed (info={info})")


def _zgttrf_zgttrs() -> tuple[Callable, Callable]:
    """LAPACK zgttrf and zgttrs from scipy.linalg._flapack, scipy's f2py
    LAPACK binding, loaded without importing scipy or scipy.linalg.

    These are the objects get_lapack_funcs(("gttrf", "gttrs"),
    dtype=complex128) returns.  The binding is taken from sys.modules if
    scipy.linalg has loaded it, else loaded from its file in scipy's
    directory, which find_spec("scipy") gives without importing scipy.
    """
    name = "scipy.linalg._flapack"
    flapack = sys.modules.get(name)
    if flapack is None:
        spec = importlib.util.find_spec("scipy")
        if spec is None:
            raise ModuleNotFoundError("No module named 'scipy'", name="scipy")
        (root,) = spec.submodule_search_locations
        path = os.path.join(root, "linalg", "_flapack" + importlib.machinery.EXTENSION_SUFFIXES[0])
        if not os.path.isfile(path):
            raise ImportError(f"scipy's LAPACK binding {path} is missing", name=name, path=path)
        loader = importlib.machinery.ExtensionFileLoader(name, path)
        flapack = importlib.util.module_from_spec(importlib.util.spec_from_loader(name, loader))
        loader.exec_module(flapack)
        # Creating a single-phase extension module files it in sys.modules.
        # Left there without its package, it would be taken as is by a later
        # import scipy.linalg, which would then lack the attribute _flapack;
        # taken out, it is created again from CPython's extension cache,
        # holding these same function objects.
        sys.modules.pop(name, None)
    return flapack.zgttrf, flapack.zgttrs


def _operator(problem: QuantumProblem) -> tuple[np.ndarray, list[complex]]:
    """A = I + cH, c = i dt/2hbar, over the whole grid in C order, the walls
    as unit rows: its diagonal, shaped like the grid, and the coupling
    A[i, j] of two interior neighbours along axis a, one number per axis.

    With hop_a = hbar^2/2m / dx_a^2, the diagonal is 1 + c (sum_a 2 hop_a +
    U) on the interior and exactly 1 on the walls, and coupling a is -c
    hop_a.  The spacings are numpy floats and warnings are off, so a dx^2
    or 1/dx^2 that overflows is inf, not an error: QuantumProblem checks
    both for finiteness.
    """
    hbar = problem.constants.hbar
    spacing = np.asarray(problem.grid.spacing)
    interior = tuple(slice(1, -1) for _ in spacing)
    kinetic = hbar**2 / (2.0 * problem.mass)
    c = 1j * problem.dt / (2.0 * hbar)
    with np.errstate(all="ignore"):
        h = kinetic * sum(2.0 / (dx * dx) for dx in spacing) + problem.potential.values[interior]
        diagonal = np.ones(problem.grid.shape, dtype=np.complex128)
        diagonal[interior] += c * h
        return diagonal, [c * (kinetic * (-1.0 / (dx * dx))) for dx in spacing]


class _Stepper:
    """Crank-Nicolson stepper on a 1-, 2- or 3-D grid, for a run from initial.

    Since I - cH = 2I - A, the CN update A^-1 (I - cH) x equals 2y - x with
    A y = x, so each step is one solve with A (_operator) over the whole
    state, in place, the walls being unit rows (x and y are 0 there).  In
    1-D A is factored once here by LAPACK zgttrf and each step is one zgttrs
    solve.  1-D loads only scipy's compiled LAPACK binding (_zgttrf_zgttrs):
    the scipy.linalg package would add about 0.3 s of CPU time (a 2-core
    Xeon, 2026-10-20) and 25 MiB of peak memory to every run.  In 2-D and
    3-D a sparse LU fills in (a 40^3 factorisation takes about a minute), so
    each step runs COCG (_cocg) on the diagonal and the per-axis couplings,
    over the span from the first interior cell to the last: every cell
    outside it is a wall.

    COCG starts from the quadratic extrapolation of the last three states,
    (4x_n - 3x_{n-1} + x_{n-2})/2, which is 4(x_n - y_{n-1}) + y_{n-2} as
    each solve returns y_k = (x_k + x_{k+1})/2.  The two last solutions
    swap roles each step, the older one taking the prediction, and both
    start as initial, so step 1 starts from y = x.  The prediction takes
    real scalings and adds of float64 views only.  A = A^T, as H is real
    symmetric, and A is normal with eigenvalues 1 + i dt lambda/2hbar,
    lambda real, so |A^-1| <= 1: y errs by at most the tracked residual,
    rtol |x|, and x' = 2y - x by 2 rtol |x|, from any start.  The solve
    reduces with np.einsum and never calls BLAS, whose summation order
    changes with the CPU kernel and the thread count, so the bits of a run
    depend on neither.
    """

    def __init__(self, problem: QuantumProblem, initial: np.ndarray) -> None:
        diagonal, couplings = _operator(problem)
        self._lu = None
        if problem.grid.dims == 1:
            gttrf, self._gttrs = _zgttrf_zgttrs()
            band = np.pad(np.full(diagonal.size - 3, couplings[0]), 1)
            *self._lu, info = gttrf(band, diagonal, band)
            _require_lapack_success("zgttrf", info)
        else:
            shape = diagonal.shape
            # Each axis's C-order stride with its coupling.  The first interior
            # cell, (1, ..., 1), is at the sum of the strides, and as many
            # wall cells follow the last one.
            strides = [math.prod(shape[a + 1:]) for a in range(len(shape))]
            self._couplings = list(zip(strides, couplings))
            self._span = span = slice(sum(strides), diagonal.size - sum(strides))
            self._diagonal = diagonal.reshape(-1)[span]
            interior = np.zeros([n - 2 for n in shape], dtype=bool)
            self._walls = np.flatnonzero(np.pad(interior, 1, constant_values=True).flat[span])
            # The last two solutions, whole states, then r, p, q and tmp.
            work = np.empty((6, diagonal.size), dtype=np.complex128)
            work[:2] = initial.reshape(-1)
            self._solutions = (work[0], work[1])
            self._work = work[2:, span]

    def _matvec(self, x: np.ndarray, out: np.ndarray) -> None:
        """out = A x over the span, for x zero on the walls; uses the last
        work vector."""
        tmp = self._work[-1]
        np.multiply(self._diagonal, x, out=out)
        for s, g in self._couplings:
            np.multiply(x, g, out=tmp)
            out[:-s] += tmp[s:]
            out[s:] += tmp[:-s]
        out[self._walls] = 0.0

    @np.errstate(over="ignore", invalid="ignore")
    def _cocg(self, b: np.ndarray, x: np.ndarray) -> None:
        """x with |b - A x| <= _SOLVE_RTOL |b|, over the span, in place from
        the start x holds: conjugate orthogonal CG (CG in the bilinear form
        u^T v, as A^T = A), with in-place axpys.  The error's info is the
        iteration it stopped in, below _SOLVE_MAXITER only on a breakdown:
        rho or p^T A p = 0, or p^T A p not finite, as when A p overflows."""
        r, p, q, tmp = self._work
        atol = _SOLVE_RTOL * _norm(b)
        self._matvec(x, r)
        np.subtract(b, r, out=r)
        p[:] = r
        rho = _dot(r, r)
        for k in range(_SOLVE_MAXITER):
            if _norm(r) <= atol:
                return
            self._matvec(p, q)
            mu = _dot(p, q)
            if rho == 0.0 or mu == 0.0 or not cmath.isfinite(mu):
                break
            alpha = rho / mu
            x += np.multiply(p, alpha, out=tmp)
            r -= np.multiply(q, alpha, out=tmp)
            rho, rho_prev = _dot(r, r), rho
            p *= rho / rho_prev
            p += r
        advice = ("reduce dt or refine the grid" if cmath.isfinite(mu) else
                  "p^T A p overflows; lower dt or the potential, or raise mass or spacing")
        raise ConvergenceError(
            f"COCG failed to converge to rtol={_SOLVE_RTOL} within {_SOLVE_MAXITER} "
            f"iterations (info={k + 1}); {advice}")

    def step(self, values: np.ndarray, out: np.ndarray) -> None:
        x = values.reshape(-1)
        if self._lu is not None:
            y, info = self._gttrs(*self._lu, x)
            _require_lapack_success("zgttrs", info)
        else:
            # y = 4(x - y_{n-1}) + y_{n-2} in place of y_{n-2}, then solved.
            last, y = self._solutions
            s = self._span
            tmp = self._work[-1].view(np.float64)
            np.subtract(x[s].view(np.float64), last[s].view(np.float64), out=tmp)
            tmp *= 4.0
            start = y[s].view(np.float64)
            start += tmp
            self._cocg(x[s], y[s])
            self._solutions = (y, last)
        out = out.reshape(-1)
        np.multiply(y, 2.0, out=out)
        out -= x


def _dot(a: np.ndarray, b: np.ndarray) -> complex:
    """sum_i a_i b_i by numpy's own loop, not BLAS."""
    return np.einsum("i,i->", a, b)


def _norm(a: np.ndarray) -> float:
    """The 2-norm of a complex vector by numpy's own loop, not BLAS."""
    f = a.view(np.float64)
    return math.sqrt(np.einsum("i,i->", f, f))


@dataclass(frozen=True, eq=False)
class ClassicalSolution:
    """A run of CN states at uniform spacing problem.dt, oldest first.

    history has shape (rows, *grid.shape) and holds the retained tail of
    the run: row i is the state at global step first_step + i, at time
    _time(i).  A complex128 array that fields._frozen accepts is kept as it
    is; any other array, a read-only view of a writable one included, is
    copied and frozen.  initial_norm is the squared L2 norm at
    step 0, kept so norm drift stays checkable after early steps have
    left the window.
    """

    problem: QuantumProblem
    history: np.ndarray = field(repr=False)
    initial_norm: float
    first_step: int = 0
    start_time: float = 0.0

    def __post_init__(self) -> None:
        history = np.asarray(self.history, dtype=np.complex128)
        shape = self.problem.grid.shape
        if history.ndim != len(shape) + 1 or history.shape[1:] != shape or not len(history):
            raise ValueError(f"history shape {history.shape} is not (rows >= 1, *{shape})")
        if not _frozen(history):
            history = np.array(history, order="C")
            history.flags.writeable = False
        object.__setattr__(self, "history", history)
        if not (self.initial_norm > 0.0 and math.isfinite(self.initial_norm)):
            raise ValueError("initial_norm must be positive and finite")
        object.__setattr__(self, "first_step", _count(self.first_step, "first_step"))
        if self.first_step < 0 or not math.isfinite(self.start_time):
            raise ValueError("first_step must be >= 0 and start_time finite")

    def _time(self, row):
        """Time of history row (an int or an integer array)."""
        return self.start_time + (self.first_step + row) * self.problem.dt

    @property
    def times(self) -> np.ndarray:
        return self._time(np.arange(len(self.history)))

    @property
    def snapshots(self) -> "_Snapshots":
        """The retained states oldest first, read in place (_Snapshots)."""
        return _Snapshots(self)

    def _snapshot(self, row: int) -> ComplexField:
        return ComplexField(self.problem.grid, self.history[row], self._time(row))

    def _locate(self, t: float, local: np.ndarray | None = None, exact=False, margin=0):
        """_window_steps of each time (t, or local if given), as history rows,
        in the retained window; exact also requires snapshot times."""
        step, weight = _window_steps(t, t if local is None else local, self.start_time,
                                     self.problem.dt, self.first_step,
                                     self.first_step + len(self.history) - 1, margin)
        if exact and np.any(weight != 0.0):
            raise HistoryWindowError(f"t={t} is not a retained snapshot time")
        return (step - self.first_step).astype(np.int64), weight

    def norm_drift(self) -> float:
        """Largest relative deviation of any retained norm from step 0."""
        return _norm_drift(self.initial_norm, map(l2_norm_squared, self.snapshots))

    def snapshot_at(self, t: float) -> ComplexField:
        """The retained snapshot whose time matches t to round-off."""
        return self._snapshot(int(self._locate(t, exact=True)[0]))


@dataclass(frozen=True)
class _Snapshots(Sequence):
    """Read-only view of a solution's retained states, oldest first.  Each
    state's values are its history row itself, not a copy: a row of the
    frozen history is frozen too, and a field keeps a frozen array as it is
    (fields._frozen)."""

    solution: ClassicalSolution

    def __len__(self) -> int:
        return len(self.solution.history)

    def __getitem__(self, index):
        rows = range(len(self))[index]
        if isinstance(rows, range):
            return tuple(self.solution._snapshot(i) for i in rows)
        return self.solution._snapshot(rows)


def _count(value, name: str) -> int:
    """value as an int; one that is not an integer to operator.index, such
    as 2.5 or np.float64(3.0), is an error naming name."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def propagate_classical(
    initial: ComplexField,
    problem: QuantumProblem,
    n_steps: int,
    history_window: int | None = None,
    on_step: Callable[[int, np.ndarray], object] | None = None,
) -> ClassicalSolution:
    """Run n_steps CN steps, retaining the last history_window states oldest first.

    history_window=None keeps all n_steps + 1 states.  A retarded
    evaluation at global time t needs every state back to t - max(t_P),
    so the window must cover ceil(max(t_P)/dt) + 2 steps; too-small
    windows surface later as HistoryWindowError from evaluate_modified.
    on_step(k, values), if given, is called for step 0 and after each step
    k, with values a read-only view of the new state valid during the call.
    """
    n_steps = _count(n_steps, "n_steps")
    if history_window is not None:
        history_window = _count(history_window, "history_window")
    if n_steps < 0:
        raise ValueError(f"n_steps must be non-negative, got {n_steps}")
    if history_window is not None and history_window < 2:
        raise ValueError(
            f"history_window must be at least 2 to bracket any local time, "
            f"got {history_window}"
        )
    initial_norm = _initial_norm(initial, problem.grid)
    rows = n_steps + 1 if history_window is None else min(history_window, n_steps + 1)
    first = n_steps + 1 - rows
    # Zero-filled, and this copy writes the interior only, so step 0 has +0.0
    # walls even if the initial state has -0.0 ones; every step keeps them +0.0.
    # Step k goes to row (k - first) % rows, so the kept steps end oldest first.
    history = np.zeros((rows, *problem.grid.shape), dtype=np.complex128)
    interior = tuple(slice(1, -1) for _ in problem.grid.shape)
    history[-first % rows][interior] = initial.values[interior]
    stepper = _Stepper(problem, history[-first % rows])
    for k in range(n_steps + 1):
        row = history[(k - first) % rows]
        if k:
            stepper.step(history[(k - 1 - first) % rows], row)
        if on_step is not None:
            row.flags.writeable = False
            on_step(k, row)
    history.flags.writeable = False
    return ClassicalSolution(
        problem=problem,
        history=history,
        initial_norm=initial_norm,
        first_step=first,
        start_time=initial.time_stamp,
    )


def _retarded(grid: Grid, t: float, lower: np.ndarray, upper: np.ndarray,
              weight: np.ndarray, reached: np.ndarray) -> ComplexField:
    """The state at time t, each cell at its local time: (1 - weight) lower +
    weight upper, lower and upper being the flat states at the steps around
    it, and exactly zero where the front has not arrived (reached False).
    Exact hits (weight 0) bypass the blend, so snapshot hits are bit-identical."""
    mixed = np.where(weight == 0.0, lower, (1.0 - weight) * lower + weight * upper)
    out = np.where(reached, mixed, 0.0 + 0.0j)
    out.flags.writeable = False  # so that ComplexField keeps it
    return ComplexField(grid, out.reshape(grid.shape), t)


def evaluate_modified(
    solution: ClassicalSolution,
    traveltime: TraveltimeField,
    t: float,
) -> ComplexField:
    """Evaluate the retarded state Psi(x, t - t_P(x)) from the stored history.

    Where the front has not yet arrived (t < t_P) the value is exactly
    zero.  Local times that coincide with a snapshot time reproduce that
    snapshot's values bit for bit; in particular t_P = 0 everywhere gives
    back the classical state unchanged.  Local times strictly between
    snapshots are interpolated linearly in time.  Memory use is a few
    arrays of one state each, independent of the history length.
    """
    grid = solution.problem.grid
    _require_grid_shape("traveltime", traveltime.grid.shape, grid.shape)
    local, reached = _local_times(traveltime.t_P, t, solution._time(0))
    row, w = solution._locate(t, local)
    flat = solution.history.reshape(len(solution.history), -1)
    cols = np.arange(grid.n_cells)
    # The last row has no successor, and a cell there has weight 0.
    return _retarded(grid, t, flat[row, cols], flat[row + (w > 0.0), cols], w, reached)


def _propagate_retarded(initial: ComplexField, problem: QuantumProblem, n_steps: int,
                        reads, on_step=None) -> list[ComplexField]:
    """For each (t_P, t) of reads, evaluate_modified's state at t on the
    history of a run of n_steps steps from initial, bit for bit, while the
    run keeps two states; t_P = 0 reads a whole state.  A read off steps
    0..n_steps raises HistoryWindowError before the first step.  on_step(k,
    values) is called after the hook copies step k's reads."""
    start, cells = initial.time_stamp, problem.grid.n_cells
    looked_up, steps = [], []
    for t_P, t in reads:
        local, reached = _local_times(t_P, t, start)
        step, w = _window_steps(t, local, start, problem.dt, 0, n_steps)
        looked_up.append((t, w, reached))
        steps += [step, step + (w > 0.0)]
    # buffer[i] is cell i % cells at step steps[i]: each read's lower states,
    # then its upper ones.  order sorts i by step, so step k's share of the
    # buffer is order[bounds[k]:bounds[k + 1]].
    steps = np.concatenate(steps)
    order = np.argsort(steps)
    bounds = np.searchsorted(steps[order], np.arange(n_steps + 2))
    buffer = np.zeros(steps.size, dtype=np.complex128)

    def copy(k, values):
        share = order[bounds[k]:bounds[k + 1]]
        buffer[share] = values.reshape(-1)[share % cells]
        if on_step is not None:
            on_step(k, values)

    propagate_classical(initial, problem, n_steps, history_window=2, on_step=copy)
    return [_retarded(problem.grid, t, *rows, w, reached)
            for rows, (t, w, reached) in zip(buffer.reshape(-1, 2, cells), looked_up)]


def _difference(before: np.ndarray, now: np.ndarray, after: np.ndarray,
                modified: np.ndarray, t_P: np.ndarray, dt: float):
    """|now - modified| and |dPsi/dt| * t_P, dPsi/dt being the centred
    difference of the states before and after now, dt away on each side."""
    return np.abs(now - modified), np.abs((after - before) / (2.0 * dt)) * t_P


def difference_estimate(
    solution: ClassicalSolution,
    traveltime: TraveltimeField,
    t: float,
) -> tuple[ScalarField, ScalarField]:
    """Actual and first-order-predicted retardation difference at time t.

    Returns (|Psi_classical - Psi_modified|, |dPsi/dt| * t_P), both at
    snapshot time t.  The time derivative is the centered difference of
    the neighbouring snapshots, so t must sit strictly inside the retained
    window; the retarded lookup additionally needs history back to
    t - max(t_P).  Both fields vanish together as t_P goes to zero.
    """
    i = int(solution._locate(t, exact=True, margin=1)[0])
    modified = evaluate_modified(solution, traveltime, solution._time(i))
    actual, predicted = _difference(*solution.history[i - 1 : i + 2], modified.values,
                                    traveltime.t_P, solution.problem.dt)
    grid = solution.problem.grid
    return ScalarField(grid, actual), ScalarField(grid, predicted)


def make_plane_wave(
    grid: Grid,
    nu: float,
    wavenumber: float,
    t: float,
) -> ComplexField:
    """exp(2 pi i (k x - nu t)) along axis 0; k and nu are in cycles.

    Useful as an analytic snapshot source: the values of these at uniform
    times, stacked with np.stack, form a ClassicalSolution history without
    running the stepper.  A non-finite nu, wavenumber or t, or a phase that
    overflows on the grid, raises ValueError.
    """
    for name, value in (("nu", nu), ("wavenumber", wavenumber), ("t", t)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    x = grid.coordinate_arrays()[0]
    with np.errstate(over="ignore", invalid="ignore"):
        phase = 2.0j * np.pi * (wavenumber * x - nu * t)
    if not np.all(np.isfinite(phase)):
        raise ValueError(f"the phase 2*pi*(wavenumber*x - nu*t) overflows at wavenumber "
                         f"{wavenumber!r}, nu {nu!r} and t {t!r}")
    return ComplexField(grid, np.exp(phase), t)


def gaussian_packet(
    grid: Grid,
    center: Sequence[float],
    width: float,
    wavenumber: float = 0.0,
) -> ComplexField:
    """A normalized Gaussian wave packet with a plane-wave carrier.

    width is the position-space standard deviation; wavenumber is the
    carrier in cycles per unit length along axis 0.  The packet is zero on
    the boundary cell layer, so it is a valid hard-wall initial state; keep
    it several widths away from the walls for that clamp to be negligible.
    exp(-|x - c|^2 / 4 width^2) is the product over axes of exp(-z^2), z =
    (x_a - c_a) / width / 2, and the carrier exp(2 pi i wavenumber x_0)
    depends on axis 0 alone, so each is a per-axis libm factor
    (_product_state).  A z that overflows is a cell where the packet is 0.
    """
    center = tuple(float(c) for c in center)
    if len(center) != grid.dims:
        raise ValueError(f"center has {len(center)} components for a {grid.dims}-d grid")
    if not all(math.isfinite(c) for c in center):
        raise ValueError(f"center must be finite, got {center}")
    if not 0.0 < width < math.inf:
        raise ValueError(f"width must be positive and finite, got {width}")
    if not math.isfinite(wavenumber):
        raise ValueError(f"wavenumber must be finite, got {wavenumber}")
    axes = [grid.axis_coordinates(a)[1:-1].tolist() for a in range(grid.dims)]
    factors = [[math.exp(-(z * z)) for z in ((x - c) / width / 2.0 for x in xs)]
               for xs, c in zip(axes, center)]
    phases = [2.0 * math.pi * wavenumber * x for x in axes[0]]
    if not all(math.isfinite(p) for p in phases):
        raise ValueError(
            f"the carrier phase 2*pi*wavenumber*x overflows at wavenumber {wavenumber!r}")
    factors[0] = [g * cmath.exp(1j * p) for g, p in zip(factors[0], phases)]
    return _product_state(grid, factors)


def box_eigenmode(grid: Grid, mode_numbers: Sequence[int]) -> ComplexField:
    """A hard-wall box eigenstate on the grid, at unit L2 norm.

    mode_numbers are the per-axis quantum numbers (1, 2, ...).  The state
    is the product over axes of sin(m_a pi i_a / (n_a - 1)) at cell index
    i_a of n_a, so it is exactly zero on the boundary cell layer.  It is an
    eigenvector of the discrete Laplacian the stepper uses, whatever the mass.
    """
    mode_numbers = _integers(mode_numbers, "mode numbers")
    if len(mode_numbers) != grid.dims:
        raise ValueError(f"{len(mode_numbers)} mode numbers for a {grid.dims}-d grid")
    if any(n < 1 for n in mode_numbers):
        raise ValueError(f"mode numbers must be >= 1, got {mode_numbers}")
    return _product_state(grid, [[math.sin(m * math.pi * i / (n - 1)) for i in range(1, n - 1)]
                                 for m, n in zip(mode_numbers, grid.shape)])
