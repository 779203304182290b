"""Time-dependent Schrodinger propagation with a retarded local time.

Classical (instantaneous) evolution uses the Crank-Nicolson scheme

    (I + i*dt/(2*hbar) H) psi_{n+1} = (I - i*dt/(2*hbar) H) psi_n,

with H = -hbar^2/(2m) Laplacian + U and fixed-zero boundary values.  With
A = I + i*dt/(2*hbar) H the right-hand operator is 2I - A, so a step is the
Cayley form psi_{n+1} = 2 A^-1 psi_n - psi_n: one solve with A and no
second operator.  The scheme is unconditionally stable and, for real U,
preserves the L2 norm to round-off.  The modified evolution is obtained
from the classical one by evaluating each point at its own local time
theta = t - t_P, where t_P is the arrival time of the perturbation front;
points the front has not yet reached hold the unperturbed value (zero for
states that start as pure perturbations).
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .constants import CODATA2018, PhysicalConstants
from .eikonal import TraveltimeField
from .fields import ComplexField, Grid, ScalarField, l2_norm_squared

__all__ = [
    "QuantumProblem",
    "ClassicalSolution",
    "StationaryState",
    "ConvergenceError",
    "HistoryWindowError",
    "step_classical",
    "propagate_classical",
    "evaluate_modified",
    "difference_estimate",
    "stationary_modified_wavefunction",
    "make_plane_wave",
    "gaussian_packet",
    "box_eigenmode",
]

# Iterative-solver settings for multi-dimensional steps.  The tolerance is
# far below the CN truncation error so the solver never dominates the
# error budget; 500 iterations is generous for the diagonally dominant
# systems CN produces at practical dt.
_BICGSTAB_RTOL = 1e-13
_BICGSTAB_MAXITER = 500

# A time within _TIME_MATCH_RTOL * dt of a whole step is that step's
# snapshot time (absorbs round-off in t, t_P and start_time + k*dt).
_TIME_MATCH_RTOL = 1e-9


class ConvergenceError(RuntimeError):
    """Iterative linear solve failed to reach the requested tolerance."""


class HistoryWindowError(RuntimeError):
    """A local-time lookup fell outside the retained snapshot window."""


@dataclass(frozen=True, eq=False)
class QuantumProblem:
    """A single-particle problem on a grid: potential, mass and step size.

    The potential is in joules on the same grid as the states; boundary
    values are clamped to zero (hard-wall box), so any state fed to the
    stepper must vanish on the outermost cell layer.
    """

    grid: Grid
    potential: ScalarField
    mass: float
    dt: float
    constants: PhysicalConstants = CODATA2018

    def __post_init__(self) -> None:
        if self.potential.grid.shape != self.grid.shape:
            raise ValueError(
                f"potential grid shape {self.potential.grid.shape} does not "
                f"match problem grid shape {self.grid.shape}"
            )
        if not np.all(np.isfinite(self.potential.values)):
            raise ValueError("potential contains non-finite values")
        if not (self.mass > 0.0 and math.isfinite(self.mass)):
            raise ValueError(f"mass must be positive and finite, got {self.mass}")
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")


@dataclass(frozen=True, eq=False)
class StationaryState:
    """An energy eigenstate with its frequency nu = E/h."""

    psi: ComplexField
    energy: float
    constants: PhysicalConstants = CODATA2018
    nu: float = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "nu", self.energy / self.constants.h)


def _boundary_mask(shape: tuple[int, ...]) -> np.ndarray:
    mask = np.ones(shape, dtype=bool)
    mask[tuple(slice(1, -1) for _ in shape)] = False
    return mask


def _require_valid_state(state: ComplexField, problem: QuantumProblem) -> None:
    if state.grid.shape != problem.grid.shape:
        raise ValueError(
            f"state grid shape {state.grid.shape} does not match problem "
            f"grid shape {problem.grid.shape}"
        )
    if not np.all(np.isfinite(state.values)):
        raise ValueError("state contains non-finite values")
    mask = _boundary_mask(state.grid.shape)
    if np.any(state.values[mask] != 0.0):
        raise ValueError(
            "state does not vanish on the boundary cell layer; the stepper "
            "assumes hard-wall (fixed zero) boundaries"
        )


class _Stepper:
    """Crank-Nicolson stepper on the interior cells of a 1-, 2- or 3-D grid.

    H = (hbar^2/2m) L + diag(U) is built once, L being the Kronecker sum of
    the per-axis second differences (axis 0 slowest, as in C order), and
    only A = I + cH, c = i dt/2hbar, is kept.  Since I - cH = 2I - A, the
    CN update A^-1 (I - cH) x equals 2y - x with A y = x, so each step is
    one solve with A.  In 1-D, A is tridiagonal, so its sparse LU has no
    fill-in: it is factored once here and every step is two triangular
    solves.  In 2-D and 3-D the LU fills in (a 40^3 factorisation takes
    about a minute), so each step runs BiCGSTAB started from x instead;
    its rtol bounds the relative error of y, and x' = 2y - x carries at
    most twice that error.  scipy is imported here, not with the module,
    so that importing qfront for traveltimes, dispersion or fits does not
    pay for it.
    """

    def __init__(self, problem: QuantumProblem) -> None:
        # scipy.linalg first: loaded from inside scipy.sparse.linalg it costs
        # a fresh process about 27 ms more CPU (2.6k more page faults).
        import scipy.linalg
        import scipy.sparse.linalg

        hbar = problem.constants.hbar
        self._interior = tuple(slice(1, -1) for _ in problem.grid.shape)
        u = problem.potential.values[self._interior]
        self._shape_int = u.shape
        second_differences = [
            scipy.sparse.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n_ax, n_ax))
            / (dx * dx)
            for n_ax, dx in zip(u.shape, problem.grid.spacing)
        ]
        lap = functools.reduce(
            lambda slow, fast: scipy.sparse.kronsum(fast, slow, format="csr"),
            second_differences,
        )
        h_mat = (hbar**2 / (2.0 * problem.mass)) * lap + scipy.sparse.diags(u.ravel())
        c = 1j * problem.dt / (2.0 * hbar)
        eye = scipy.sparse.identity(u.size, dtype=np.complex128, format="csr")
        self._a = (eye + c * h_mat).tocsr()
        self._lu = scipy.sparse.linalg.splu(self._a.tocsc()) if u.ndim == 1 else None
        self._bicgstab = scipy.sparse.linalg.bicgstab

    def step(self, values: np.ndarray, out: np.ndarray) -> None:
        x = values[self._interior].ravel()
        if self._lu is not None:
            y = self._lu.solve(x)
        else:
            y, info = self._bicgstab(
                self._a, x, x0=x, rtol=_BICGSTAB_RTOL, atol=0.0, maxiter=_BICGSTAB_MAXITER
            )
            if info != 0:
                raise ConvergenceError(
                    f"BiCGSTAB failed to converge to rtol={_BICGSTAB_RTOL} "
                    f"within {_BICGSTAB_MAXITER} iterations (info={info}); "
                    "reduce dt or refine the grid"
                )
        out[self._interior] = (2.0 * y - x).reshape(self._shape_int)


def step_classical(state: ComplexField, problem: QuantumProblem) -> ComplexField:
    """Advance a state by one CN step of problem.dt.

    The state must live on the problem grid and vanish on the boundary
    cell layer.  The returned field carries time_stamp advanced by dt.
    """
    _require_valid_state(state, problem)
    new_values = np.zeros_like(state.values)
    _Stepper(problem).step(state.values, new_values)
    return ComplexField(problem.grid, new_values, state.time_stamp + problem.dt)


@dataclass(frozen=True, eq=False)
class ClassicalSolution:
    """A run of CN states at uniform spacing problem.dt, kept in a ring buffer.

    history has shape (rows, *grid.shape) and holds the retained tail of
    the run: the state at global step k, for first_step <= k <
    first_step + rows, is row k % rows and belongs to time start_time +
    k * problem.dt.  A read-only complex128 array is kept as it is; any
    other array is copied and frozen.  initial_norm is the squared L2
    norm at step 0, kept so norm drift stays checkable after early steps
    have left the window.
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
        if history.flags.writeable or not history.flags.c_contiguous:
            history = np.array(history, order="C")
            history.flags.writeable = False
        object.__setattr__(self, "history", history)
        if not (self.initial_norm > 0.0 and math.isfinite(self.initial_norm)):
            raise ValueError("initial_norm must be positive and finite")
        if self.first_step < 0 or not math.isfinite(self.start_time):
            raise ValueError("first_step must be >= 0 and start_time finite")

    @property
    def times(self) -> np.ndarray:
        steps = self.first_step + np.arange(len(self.history))
        return self.start_time + steps * self.problem.dt

    @property
    def snapshots(self) -> "_Snapshots":
        """The retained states oldest first; each read copies one row."""
        return _Snapshots(self)

    def _snapshot(self, step: int) -> ComplexField:
        row = self.history[step % len(self.history)]
        return ComplexField(self.problem.grid, row, self.start_time + step * self.problem.dt)

    def _locate(self, t: float, local: np.ndarray | None = None, exact=False, margin=0):
        """Global step at or below each time (t, or local if given) and the
        weight of the next step.  A time within _TIME_MATCH_RTOL * dt of a
        whole step snaps to it with weight 0, so snapshot hits read one row
        bit for bit.  Every time must lie in the retained window less margin
        steps at each end; exact also requires snapshot times.
        """
        if not math.isfinite(t):
            raise ValueError(f"time must be finite, got {t}")
        times = np.asarray(t if local is None else local, dtype=np.float64)
        pos = (times - self.start_time) / self.problem.dt
        step = np.rint(pos)
        hit = np.abs(pos - step) <= _TIME_MATCH_RTOL
        step = np.where(hit, step, np.floor(pos))
        weight = np.where(hit, 0.0, pos - step)
        first = self.first_step + margin
        last = self.first_step + len(self.history) - 1 - margin
        if np.any(step < first) or np.any(step + (weight > 0.0) > last):
            raise HistoryWindowError(
                f"times span [{times.min()}, {times.max()}] but steps {first}..{last} "
                f"of the retained window{' (less its endpoints)' if margin else ''} "
                "are usable; enlarge history_window, extend the run, or reduce t"
            )
        if exact and np.any(weight != 0.0):
            raise HistoryWindowError(f"t={t} is not a retained snapshot time")
        return step.astype(np.int64), weight

    def norm_drift(self) -> float:
        """Largest relative deviation of any retained norm from step 0."""
        norms = [l2_norm_squared(s) for s in self.snapshots]
        return max(abs(n - self.initial_norm) for n in norms) / self.initial_norm

    def snapshot_at(self, t: float) -> ComplexField:
        """The retained snapshot whose time matches t to round-off."""
        step, _ = self._locate(t, exact=True)
        return self._snapshot(int(step))


@dataclass(frozen=True)
class _Snapshots(Sequence):
    """Read-only view of a solution's retained states, oldest first."""

    solution: ClassicalSolution

    def __len__(self) -> int:
        return len(self.solution.history)

    def __getitem__(self, index):
        first = self.solution.first_step
        steps = range(first, first + len(self))[index]
        if isinstance(steps, range):
            return tuple(self.solution._snapshot(k) for k in steps)
        return self.solution._snapshot(steps)


def propagate_classical(
    initial: ComplexField,
    problem: QuantumProblem,
    n_steps: int,
    history_window: int | None = None,
) -> ClassicalSolution:
    """Run n_steps CN steps, retaining the last history_window states.

    history_window=None keeps all n_steps + 1 states.  A retarded
    evaluation at global time t needs every state back to t - max(t_P),
    so the window must cover ceil(max(t_P)/dt) + 2 steps; too-small
    windows surface later as HistoryWindowError from evaluate_modified.
    """
    if n_steps < 0:
        raise ValueError(f"n_steps must be non-negative, got {n_steps}")
    if history_window is not None and history_window < 2:
        raise ValueError(
            f"history_window must be at least 2 to bracket any local time, "
            f"got {history_window}"
        )
    _require_valid_state(initial, problem)
    initial_norm = l2_norm_squared(initial)
    if initial_norm == 0.0:
        raise ValueError("initial state has zero norm")

    rows = n_steps + 1 if history_window is None else min(history_window, n_steps + 1)
    # Zero-filled: the stepper writes interiors only, so boundaries stay 0.
    history = np.zeros((rows, *problem.grid.shape), dtype=np.complex128)
    history[0] = initial.values
    stepper = _Stepper(problem)
    for k in range(1, n_steps + 1):
        stepper.step(history[(k - 1) % rows], history[k % rows])
    history.flags.writeable = False
    return ClassicalSolution(
        problem=problem,
        history=history,
        initial_norm=initial_norm,
        first_step=n_steps + 1 - rows,
        start_time=initial.time_stamp,
    )


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
    if traveltime.grid.shape != grid.shape:
        raise ValueError(
            f"traveltime grid shape {traveltime.grid.shape} does not match "
            f"solution grid shape {grid.shape}"
        )
    theta = (t - traveltime.t_P).reshape(-1)
    reached = theta >= 0.0
    # Unreached points look up the oldest retained time; their values are
    # overwritten with zero below.
    oldest = solution.start_time + solution.first_step * solution.problem.dt
    step, w = solution._locate(t, np.where(reached, theta, oldest))

    rows = len(solution.history)
    flat = solution.history.reshape(rows, -1)
    cols = np.arange(grid.n_cells)
    lower = flat[step % rows, cols]
    upper = flat[(step + (w > 0.0)) % rows, cols]  # the last step has no successor
    # Exact hits bypass the blend so snapshot hits are bit-identical.
    mixed = np.where(w == 0.0, lower, (1.0 - w) * lower + w * upper)
    out = np.where(reached, mixed, 0.0 + 0.0j).reshape(grid.shape)
    return ComplexField(grid, out, t)


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
    k = int(solution._locate(t, exact=True, margin=1)[0])
    history, rows, dt = solution.history, len(solution.history), solution.problem.dt
    dpsi_dt = (history[(k + 1) % rows] - history[(k - 1) % rows]) / (2.0 * dt)
    predicted = np.abs(dpsi_dt) * traveltime.t_P
    modified = evaluate_modified(solution, traveltime, solution.start_time + k * dt)
    actual = np.abs(history[k % rows] - modified.values)
    grid = solution.problem.grid
    return ScalarField(grid, actual), ScalarField(grid, predicted)


def stationary_modified_wavefunction(
    state: StationaryState,
    traveltime: TraveltimeField,
    t: float,
) -> ComplexField:
    """Retarded evolution of an energy eigenstate, evaluated analytically.

    psi(x) exp(-2 pi i nu (t - t_P(x))) where the front has arrived,
    exactly zero elsewhere.  Uses the closed-form phase instead of stored
    snapshots, so it is exact for any t.
    """
    grid = state.psi.grid
    if traveltime.grid.shape != grid.shape:
        raise ValueError(
            f"traveltime grid shape {traveltime.grid.shape} does not match "
            f"state grid shape {grid.shape}"
        )
    theta = t - traveltime.t_P
    phase = np.exp(-2.0j * np.pi * state.nu * theta)
    values = np.where(theta >= 0.0, state.psi.values * phase, 0.0 + 0.0j)
    return ComplexField(grid, values, t)


def make_plane_wave(
    grid: Grid,
    nu: float,
    wavenumber: float,
    t: float,
    axis: int = 0,
) -> ComplexField:
    """exp(2 pi i (k x - nu t)) along one axis; k and nu are in cycles.

    Useful as an analytic snapshot source: the values of these at uniform
    times, stacked with np.stack, form a ClassicalSolution history without
    running the stepper.
    """
    if not 0 <= axis < grid.dims:
        raise ValueError(f"axis {axis} out of range for {grid.dims}-d grid")
    x = grid.coordinate_arrays()[axis]
    values = np.exp(2.0j * np.pi * (wavenumber * x - nu * t))
    return ComplexField(grid, np.broadcast_to(values, grid.shape).copy(), t)


def gaussian_packet(
    grid: Grid,
    center: Sequence[float],
    width: float,
    wavenumber: float = 0.0,
    axis: int = 0,
) -> ComplexField:
    """A normalized Gaussian wave packet with a plane-wave carrier.

    width is the position-space standard deviation; wavenumber is the
    carrier in cycles per unit length along the given axis.  The boundary
    cell layer is zeroed so the packet is a valid hard-wall initial state;
    keep the packet several widths away from the walls for that clamp to
    be negligible.
    """
    center = tuple(float(c) for c in center)
    if len(center) != grid.dims:
        raise ValueError(
            f"center has {len(center)} components for a {grid.dims}-d grid"
        )
    if width <= 0.0:
        raise ValueError(f"width must be positive, got {width}")
    coords = grid.coordinate_arrays()
    r2 = sum((c - c0) ** 2 for c, c0 in zip(coords, center))
    values = np.exp(-r2 / (4.0 * width**2)).astype(np.complex128)
    values = values * np.exp(2.0j * np.pi * wavenumber * coords[axis])
    values[_boundary_mask(grid.shape)] = 0.0
    norm = math.sqrt(l2_norm_squared(ComplexField(grid, values)))
    if norm == 0.0:
        raise ValueError("packet vanishes on this grid; widen it or move it")
    return ComplexField(grid, values / norm)


def box_eigenmode(
    grid: Grid,
    mode_numbers: Sequence[int],
    mass: float = CODATA2018.m_e,
    constants: PhysicalConstants = CODATA2018,
) -> StationaryState:
    """A hard-wall box eigenstate on the grid, with its continuum energy.

    mode_numbers are the per-axis quantum numbers (1, 2, ...).  The box
    spans the grid extent along each axis, so the state vanishes exactly
    on the boundary cell layer.  The energy is the continuum eigenvalue
    sum_a (n_a pi hbar / L_a)^2 / (2 m); the discrete operator's
    eigenvalue differs at O(dx^2), which matters when comparing CN phases
    against exp(-i E t / hbar).
    """
    mode_numbers = tuple(int(n) for n in mode_numbers)
    if len(mode_numbers) != grid.dims:
        raise ValueError(
            f"{len(mode_numbers)} mode numbers for a {grid.dims}-d grid"
        )
    if any(n < 1 for n in mode_numbers):
        raise ValueError(f"mode numbers must be >= 1, got {mode_numbers}")
    if not (mass > 0.0 and math.isfinite(mass)):
        raise ValueError(f"mass must be positive and finite, got {mass}")
    coords = grid.coordinate_arrays()
    values = np.ones(grid.shape, dtype=np.complex128)
    energy = 0.0
    for axis, n_mode in enumerate(mode_numbers):
        length = (grid.shape[axis] - 1) * grid.spacing[axis]
        rel = coords[axis] - grid.origin[axis]
        values = values * np.sin(n_mode * np.pi * rel / length)
        energy += (n_mode * np.pi * constants.hbar / length) ** 2 / (2.0 * mass)
    # sin(n*pi) evaluates to ~1e-16, not 0; clamp so the hard-wall
    # precondition holds exactly.
    values[_boundary_mask(grid.shape)] = 0.0
    psi = ComplexField(grid, values)
    norm = math.sqrt(l2_norm_squared(psi))
    psi = ComplexField(grid, values / norm)
    return StationaryState(psi=psi, energy=energy, constants=constants)
