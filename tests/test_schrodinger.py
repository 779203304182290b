import dataclasses
import importlib.machinery
import importlib.util
import itertools
import math
import re
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from numpy._core._multiarray_umath import __cpu_features__

from qfront import schrodinger
from qfront.constants import CODATA2018, natural_units
from qfront.eikonal import TraveltimeField
from qfront.fields import ComplexField, Grid, ScalarField, l2_norm_squared
from qfront.schrodinger import (
    ClassicalSolution,
    ConvergenceError,
    HistoryWindowError,
    QuantumProblem,
    box_eigenmode,
    difference_estimate,
    evaluate_modified,
    gaussian_packet,
    make_plane_wave,
    propagate_classical,
)
from test_bits import PINS, expected

NAT = natural_units()


def free_problem(n=256, dt=1e-4):
    g = Grid((n,), (1.0 / (n - 1),))
    return QuantumProblem(g, ScalarField(g, np.zeros(n)), 1.0, dt, NAT)


# --- construction validation --------------------------------------------------

def test_problem_ignores_a_potential_on_the_walls_only():
    # The wall layer never enters H, so a potential that would overflow c*H
    # there leaves every entry of A finite, and the run stays finite and unitary.
    g = Grid((16,), (0.1,))
    u = np.zeros(16)
    u[[0, -1]] = 1e308
    prob = QuantumProblem(g, ScalarField(g, u), 1.0, 4.0, NAT)
    solution = propagate_classical(gaussian_packet(g, (0.75,), 0.2, 1.0), prob, 3)
    assert np.all(np.isfinite(solution.history))
    assert solution.norm_drift() <= 1e-12


def test_stepper_builds_an_operator_whose_spacing_squared_overflows():
    # dx * dx overflows to inf, so 1/dx^2 is 0 and A = I: QuantumProblem and the
    # stepper both build its bands, warning-free (warnings are errors here).
    g = Grid((16,), (1e200,))
    prob = QuantumProblem(g, ScalarField(g, np.zeros(16)), CODATA2018.m_e, 1e-19)
    solution = propagate_classical(gaussian_packet(g, (7e200,), 1e150), prob, 2)
    assert np.flatnonzero(solution.history[-1]).tolist() == [7]
    assert np.array_equal(solution.history[-1], solution.history[0])


def test_gaussian_packet_is_zero_where_the_squared_distance_overflows():
    # Warnings are errors under pytest, so an overflow warning fails this too.
    g = Grid((64,), (1e300,))
    packet = gaussian_packet(g, (3e301,), 1e150)
    assert np.flatnonzero(packet.values).tolist() == [30]
    assert l2_norm_squared(packet) == pytest.approx(1.0)


def test_gaussian_packet_is_zero_where_the_distance_over_4_width_squared_overflows():
    # z = (x - 8) / width / 2 is finite, but z * z overflows off the centre.
    packet = gaussian_packet(Grid((16,), (1.0,)), (8.0,), 1e-154)
    assert np.flatnonzero(packet.values).tolist() == [8]
    assert l2_norm_squared(packet) == pytest.approx(1.0)


@pytest.mark.parametrize("width", [1e154, 1.7e308])
def test_gaussian_packet_far_wider_than_the_grid_is_the_flat_interior(width):
    # z = (x - c) / width / 2 squared is 0 or subnormal, so every factor is 1.0.
    g = Grid((32,), (1.0 / 31,))
    packet = gaussian_packet(g, (0.5,), width)
    assert np.all(packet.values[1:-1] == 1.0 / math.sqrt(30 * g.spacing[0]))
    assert l2_norm_squared(packet) == pytest.approx(1.0)


@pytest.mark.parametrize("width", [1e-200, 5e-324])
def test_gaussian_packet_far_narrower_than_a_cell_is_one_cell_or_none(width):
    # z is 0 on the centre's cell and +-inf or overflows off it.
    g = Grid((16,), (1.0,))
    packet = gaussian_packet(g, (8.0,), width)
    assert np.flatnonzero(packet.values).tolist() == [8]
    assert packet.values[8] == 1.0
    with pytest.raises(ValueError, match="state vanishes on the grid interior"):
        gaussian_packet(g, (8.5,), width)


@pytest.mark.parametrize("shape", [(16,), (9, 8), (7, 6, 5)])
def test_packets_and_box_modes_are_plus_zero_on_the_walls(shape):
    g = Grid(shape, tuple(1.0 / (n - 1) for n in shape))
    walls = np.ones(shape, dtype=bool)
    walls[tuple(slice(1, -1) for _ in shape)] = False
    # sin(m pi) rounds to about 1e-16, not 0, and a product with a negative
    # factor would be -0.0: the walls take neither.
    for state in (gaussian_packet(g, (0.5,) * len(shape), 0.2, 2.5),
                  box_eigenmode(g, (3,) * len(shape))):
        parts = state.values[walls].view(np.float64)
        assert np.all(parts == 0.0) and not np.any(np.signbit(parts))
        assert l2_norm_squared(state) == pytest.approx(1.0)


def test_propagate_takes_numpy_integer_step_counts():
    prob = free_problem(16)
    initial = gaussian_packet(prob.grid, (0.5,), 0.1)
    expected = propagate_classical(initial, prob, 3, history_window=2).history
    got = propagate_classical(initial, prob, np.int64(3), history_window=np.int32(2)).history
    assert got.tobytes() == expected.tobytes()


# --- classical propagation oracles --------------------------------------------

def test_unitarity_drifting_gaussian():
    prob = free_problem(512, dt=1e-5)
    psi0 = gaussian_packet(prob.grid, (0.35,), 0.04, wavenumber=30.0)
    sol = propagate_classical(psi0, prob, 300, history_window=4)
    assert sol.norm_drift() < 1e-11


def test_eigenmode_amplification_matches_discrete_eigenvalue():
    # CN maps an eigenvector of the discrete H with eigenvalue E to
    # itself times (1 - i E dt / 2 hbar) / (1 + i E dt / 2 hbar); for the
    # hard-wall box the discrete eigenvalue is known in closed form.
    n, m = 256, 3
    prob = free_problem(n)
    mode = box_eigenmode(prob.grid, (m,))
    dx = prob.grid.spacing[0]
    e_disc = (NAT.hbar**2 / 2.0) * (2.0 - 2.0 * math.cos(m * math.pi / (n - 1))) / dx**2
    z = 1j * e_disc * prob.dt / (2.0 * NAT.hbar)
    lam = (1.0 - z) / (1.0 + z)
    stepped = propagate_classical(mode, prob, 1).snapshots[-1]
    interior = np.abs(mode.values) > 1e-3
    ratio = stepped.values[interior] / mode.values[interior]
    assert np.max(np.abs(ratio - lam)) < 1e-12
    assert abs(abs(lam) - 1.0) < 1e-15  # the scheme is exactly unitary per mode


def test_gaussian_spreading_matches_analytic_width():
    # Free-packet width sigma(t) = sigma0 sqrt(1 + (hbar t / 2 m sigma0^2)^2).
    n, sigma0, dt, steps = 513, 0.02, 4e-6, 200
    prob = free_problem(n, dt)
    psi0 = gaussian_packet(prob.grid, (0.5,), sigma0)
    sol = propagate_classical(psi0, prob, steps, history_window=2)
    x = prob.grid.axis_coordinates(0)
    w = np.abs(sol.snapshots[-1].values) ** 2
    mean = (x * w).sum() / w.sum()
    sigma = math.sqrt((((x - mean) ** 2) * w).sum() / w.sum())
    t = steps * dt
    predicted = sigma0 * math.sqrt(1.0 + (NAT.hbar * t / (2.0 * sigma0**2)) ** 2)
    assert abs(sigma - predicted) / predicted < 0.01


def test_unitarity_2d():
    g = Grid((33, 33), (1.0 / 32, 1.0 / 32))
    prob = QuantumProblem(g, ScalarField(g, np.zeros((33, 33))), 1.0, 5e-5, NAT)
    psi0 = gaussian_packet(g, (0.5, 0.5), 0.08)
    sol = propagate_classical(psi0, prob, 25, history_window=2)
    assert sol.norm_drift() < 1e-11


def test_eigenmode_amplification_2d():
    g = Grid((33, 33), (1.0 / 32, 1.0 / 32))
    prob = QuantumProblem(g, ScalarField(g, np.zeros((33, 33))), 1.0, 1e-4, NAT)
    mode = box_eigenmode(g, (1, 2))
    e_disc = sum(
        (NAT.hbar**2 / 2.0) * (2.0 - 2.0 * math.cos(m * math.pi / 32)) / g.spacing[a] ** 2
        for a, m in enumerate((1, 2))
    )
    z = 1j * e_disc * prob.dt / (2.0 * NAT.hbar)
    lam = (1.0 - z) / (1.0 + z)
    stepped = propagate_classical(mode, prob, 1).snapshots[-1]
    interior = np.abs(mode.values) > 1e-3
    ratio = stepped.values[interior] / mode.values[interior]
    # The iterative solve converges to 1e-13, looser than the 1-D direct path.
    assert np.max(np.abs(ratio - lam)) < 1e-10


def test_constant_potential_shifts_eigenvalue():
    # A constant potential U0 shifts every discrete eigenvalue by U0, so a
    # box mode steps with the Cayley factor of (E_disc + U0).
    n, m, u0 = 64, 2, 3.7
    g = Grid((n,), (1.0 / (n - 1),))
    prob = QuantumProblem(g, ScalarField(g, np.full(n, u0)), 1.0, 1e-4, NAT)
    mode = box_eigenmode(g, (m,))
    dx = g.spacing[0]
    e_disc = (NAT.hbar**2 / 2.0) * (2.0 - 2.0 * math.cos(m * math.pi / (n - 1))) / dx**2
    z = 1j * (e_disc + u0) * prob.dt / (2.0 * NAT.hbar)
    lam = (1.0 - z) / (1.0 + z)
    stepped = propagate_classical(mode, prob, 1).snapshots[-1]
    interior = np.abs(mode.values) > 1e-3
    ratio = stepped.values[interior] / mode.values[interior]
    assert np.max(np.abs(ratio - lam)) < 1e-12


def dense_operator_case(shape, spacing, seed):
    """A problem on shape with a potential drawn uniform(-5, 5), a random state
    that vanishes on the walls, and A = I + cH over the interior cells in C
    order, with H = -hbar^2/(2m) Laplacian + U written out entry by entry."""
    rng = np.random.default_rng(seed)
    g = Grid(shape, spacing)
    mass, dt = 0.7, 2e-3
    u = rng.uniform(-5.0, 5.0, shape)
    prob = QuantumProblem(g, ScalarField(g, u), mass, dt, NAT)
    cells = list(itertools.product(*(range(1, n - 1) for n in shape)))
    index = {cell: i for i, cell in enumerate(cells)}
    h = np.zeros((len(cells), len(cells)))
    for cell, i in index.items():
        h[i, i] = u[cell]
        for axis, dx in enumerate(spacing):
            hop = NAT.hbar**2 / (2.0 * mass * dx * dx)
            h[i, i] += 2.0 * hop
            for side in (-1, 1):
                nb = cell[:axis] + (cell[axis] + side,) + cell[axis + 1:]
                if nb in index:
                    h[i, index[nb]] = -hop
    values = np.zeros(shape, dtype=complex)
    interior = tuple(slice(1, -1) for _ in shape)
    values[interior] = rng.normal(size=values[interior].shape) + 1j * rng.normal(
        size=values[interior].shape)
    c = 1j * dt / (2.0 * NAT.hbar)
    return prob, ComplexField(g, values), np.eye(len(cells)) + c * h


@pytest.mark.parametrize("shape, spacing", [
    ((3,), (0.5,)),
    ((4,), (0.3,)),
    ((40,), (0.03,)),
    ((9, 12), (0.1, 0.07)),
    ((3, 7), (0.1, 0.07)),
    ((6, 7, 8), (0.2, 0.15, 0.1)),
    ((5, 3, 4), (0.2, 0.15, 0.1)),
    ((7, 3), (0.1, 0.07)),
    ((3, 3), (0.1, 0.07)),
    ((3, 5, 3), (0.2, 0.15, 0.1)),
    ((3, 3, 8), (0.2, 0.15, 0.1)),
])
def test_cn_step_matches_dense_solve(shape, spacing):
    # One CN step as a dense solve.  On the thin grids every interior cell
    # touches a wall.
    prob, psi, a = dense_operator_case(shape, spacing, len(shape))
    interior = tuple(slice(1, -1) for _ in shape)
    x = psi.values[interior].reshape(-1)
    expected = np.linalg.solve(a, (2.0 * np.eye(len(x)) - a) @ x)

    stepped = propagate_classical(psi, prob, 1).snapshots[-1].values.copy()
    got = stepped[interior].reshape(-1)
    assert np.linalg.norm(got - expected) / np.linalg.norm(expected) < 1e-12
    stepped[interior] = 0.0
    # The boundary layer stays +0.0, with no sign bit.
    assert stepped.tobytes() == np.zeros_like(stepped).tobytes()


@pytest.mark.parametrize("shape, spacing", [((9, 7), (0.1, 0.07)), ((5, 6, 4), (0.2, 0.15, 0.1))])
def test_cn_run_matches_dense_solves(shape, spacing):
    # From step 2 on, COCG starts from a state extrapolated from the earlier
    # steps; each step of the run must still be the dense solve from the
    # state before it, to the solve's tolerance.
    prob, psi, a = dense_operator_case(shape, spacing, len(shape))
    interior = tuple(slice(1, -1) for _ in shape)
    history = propagate_classical(psi, prob, 24).history[(slice(None), *interior)]
    cn = np.linalg.solve(a, 2.0 * np.eye(len(a)) - a)
    for x, got in zip(history, history[1:]):
        expected = cn @ x.reshape(-1)
        assert np.linalg.norm(got.reshape(-1) - expected) <= 1e-12 * np.linalg.norm(expected)


# The history pins of tests/test_bits.py, each run here after the tests before it.
@pytest.mark.parametrize("name", [pin[12:] for pin in PINS if pin.startswith("history 1-D ")])
def test_pinned_1d_histories(name):
    run, *args, digest = PINS[f"history 1-D {name}"]
    assert run(*args) == digest


@pytest.mark.parametrize("name", ["2-D free", "2-D potential", "3-D free", "3-D potential"])
def test_pinned_nd_histories(name):
    # Without numpy's AVX2 loops the N-D step gives the avx2-off digests.
    run, *args, _ = PINS[f"history {name}"]
    config = "default" if __cpu_features__["X86_V3"] else "avx2-off"
    assert run(*args) == expected(config)[f"history {name}"]


def electron_packet_48():
    """An electron packet on a 48^2 grid at the README's spacing and dt: one
    step of it takes 62 COCG iterations."""
    dx = 1.9569471624266144e-12
    g = Grid((48, 48), (dx, dx))
    prob = QuantumProblem(g, ScalarField(g, np.zeros(g.shape)), CODATA2018.m_e, 2e-19)
    return prob, gaussian_packet(g, (24 * dx, 24 * dx), 1e-11, 1e10)


def test_cocg_out_of_iterations_raises_convergence_error(monkeypatch):
    monkeypatch.setattr(schrodinger, "_SOLVE_MAXITER", 1)
    prob, psi = electron_packet_48()
    with pytest.raises(ConvergenceError, match=r"within 1 iterations \(info=1\)"):
        propagate_classical(psi, prob, 1)


def test_cocg_step_meets_its_tolerance():
    # A y = x holds to rtol 1e-13 in the residual the loop tracks, at step 1,
    # started from y = x, and at steps 2 and 3, started from states
    # extrapolated from the earlier ones; the true residual, with A applied
    # by a 5-point stencil here, measured 9.3e-14 to 9.9e-14 relative over
    # the three steps, so the bound leaves a margin of about 2.
    prob, psi = electron_packet_48()
    history = propagate_classical(psi, prob, 3).history[:, 1:-1, 1:-1]
    hbar, dx = prob.constants.hbar, prob.grid.spacing[0]
    for x, x_next in zip(history, history[1:]):
        y = (x_next + x) / 2.0  # x' = 2y - x
        pad = np.pad(y, 1)
        laplacian = (pad[2:, 1:-1] + pad[:-2, 1:-1] + pad[1:-1, 2:] + pad[1:-1, :-2]
                     - 4.0 * y) / dx**2
        a_y = y + 1j * prob.dt / (2.0 * hbar) * (-hbar**2 / (2.0 * prob.mass) * laplacian)
        assert np.linalg.norm(x - a_y) < 2e-13 * np.linalg.norm(x)


def test_predicted_start_saves_a_matvec_per_step(monkeypatch):
    # A smooth packet at a small phase per step, as in the steps2d benchmark:
    # COCG from y = x, as a fresh stepper's first step starts, takes 8
    # matvecs a step here and from the extrapolated state about 6.3.  Both
    # give the same states to the solve's tolerance.
    calls = []
    matvec = schrodinger._Stepper._matvec
    monkeypatch.setattr(schrodinger._Stepper, "_matvec",
                        lambda self, x, out: calls.append(1) or matvec(self, x, out))
    g = Grid((32, 32), (1.0 / 31, 1.0 / 31))
    prob = QuantumProblem(g, ScalarField(g, np.zeros(g.shape)), 1.0, 1e-4, NAT)
    n_steps = 30
    history = propagate_classical(gaussian_packet(g, (0.42, 0.57), 0.1), prob, n_steps).history
    predicted = len(calls)
    calls.clear()
    for x, got in zip(history, history[1:]):
        plain = np.empty_like(x)
        schrodinger._Stepper(prob, x).step(x, plain)
        assert np.linalg.norm(got - plain) <= 1e-12 * np.linalg.norm(plain)
    assert predicted <= len(calls) - n_steps


def test_cocg_breakdown_raises_convergence_error(monkeypatch):
    # p^T A p = 0: the step must stop with ConvergenceError, not divide by 0.
    dot = schrodinger._dot
    monkeypatch.setattr(schrodinger, "_dot", lambda a, b: dot(a, b) if a is b else 0j)
    prob, psi = electron_packet_48()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError, match=r"within 500 iterations \(info=1\)"):
            propagate_classical(psi, prob, 1)


def test_missing_lapack_binding_is_an_import_error_naming_its_path(tmp_path, monkeypatch):
    # scipy found in a directory without linalg/_flapack*, and no binding loaded.
    scipy = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
    scipy.submodule_search_locations = [str(tmp_path)]
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: scipy)
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack", raising=False)
    prob = free_problem(16)
    with pytest.raises(ImportError, match=re.escape(str(tmp_path / "linalg" / "_flapack"))):
        propagate_classical(gaussian_packet(prob.grid, (0.5,), 0.1), prob, 1)


# --- history window management -------------------------------------------------

def test_window_retention_and_times():
    prob = free_problem(32)
    psi0 = gaussian_packet(prob.grid, (0.5,), 0.1)
    sol = propagate_classical(psi0, prob, 10, history_window=3)
    assert len(sol.snapshots) == 3
    assert sol.first_step == 8
    np.testing.assert_allclose(sol.times, [8 * prob.dt, 9 * prob.dt, 10 * prob.dt])


def test_zero_steps_keeps_initial():
    prob = free_problem(32)
    psi0 = gaussian_packet(prob.grid, (0.5,), 0.1)
    sol = propagate_classical(psi0, prob, 0)
    assert len(sol.snapshots) == 1
    assert np.array_equal(sol.snapshots[0].values, psi0.values)
    assert sol.snapshots[0].time_stamp == psi0.time_stamp


def test_snapshot_view_reads_the_ring_in_time_order():
    prob = free_problem(32)
    psi0 = gaussian_packet(prob.grid, (0.5,), 0.1)
    full = propagate_classical(psi0, prob, 10)
    sol = propagate_classical(psi0, prob, 10, history_window=4)  # wraps twice
    assert not sol.history.flags.writeable
    view = sol.snapshots
    assert len(view) == 4
    assert [s.time_stamp for s in view] == list(sol.times)
    assert np.array_equal(view[-1].values, full.snapshots[10].values)
    assert np.array_equal(view[-4].values, view[0].values)
    assert [s.time_stamp for s in view[1:3]] == list(sol.times[1:3])
    assert np.array_equal(sol.snapshot_at(8 * prob.dt).values, view[1].values)
    with pytest.raises(IndexError):
        view[4]


def test_hand_built_history_reads_row_i_as_step_first_step_plus_i():
    # Rows 0..4 are plane-wave states at steps 3..7 of a run from t0; a
    # row order keyed on step % rows would read them rotated.
    nu, k, dt, t0, first = 2.0, 3.0, 0.01, 0.25, 3
    g = Grid((9,), (1.0 / 8,))
    prob = QuantumProblem(g, ScalarField(g, np.zeros(9)), 1.0, dt, NAT)
    waves = [make_plane_wave(g, nu, k, t0 + s * dt) for s in range(first, first + 5)]
    sol = ClassicalSolution(prob, np.stack([w.values for w in waves]), initial_norm=1.0,
                            first_step=first, start_time=t0)
    assert [s.time_stamp for s in sol.snapshots] == [w.time_stamp for w in waves]
    assert list(sol.times) == [w.time_stamp for w in waves]
    for snap, wave in zip(sol.snapshots, waves):
        assert np.array_equal(snap.values, wave.values)
    assert np.array_equal(sol.snapshot_at(t0 + 5 * dt).values, waves[2].values)
    # Delays of j % 5 whole steps at step 7 read row 4 - j % 5 of cell j.
    tt = TraveltimeField(g, np.arange(9) % 5 * dt, 1.0)
    mod = evaluate_modified(sol, tt, t0 + 7 * dt)
    assert np.array_equal(mod.values, [waves[4 - j % 5].values[j] for j in range(9)])


def test_writeable_history_is_copied():
    prob = free_problem(16)
    values = np.ones((2, 16), dtype=complex)
    sol = ClassicalSolution(prob, values, initial_norm=1.0)
    values[:] = 0.0
    assert np.all(sol.history == 1.0)
    assert not sol.history.flags.writeable


def test_read_only_view_of_a_writeable_history_is_copied():
    prob = free_problem(16)
    base = np.ones((2, 16), dtype=complex)
    view = base.view()
    view.flags.writeable = False
    sol = ClassicalSolution(prob, view, initial_norm=1.0)
    base[0, 3] = 99.0
    assert np.all(sol.history == 1.0)
    # A read-only history that owns its data, as propagate_classical's, is kept.
    assert dataclasses.replace(sol).history is sol.history


@pytest.mark.parametrize("window", [None, 2])
def test_on_step_sees_every_state_as_it_is_made(window):
    # A window of 2 evicts steps 0..8 of 10; the hook still sees each of them.
    prob = free_problem(32)
    psi0 = gaussian_packet(prob.grid, (0.5,), 0.1, wavenumber=3.0)
    full = propagate_classical(psi0, prob, 10)
    seen = []

    def hook(k, values):
        with pytest.raises(ValueError, match="read-only"):
            values[1] = 1.0
        seen.append((k, values.tobytes()))

    sol = propagate_classical(psi0, prob, 10, history_window=window, on_step=hook)
    assert [k for k, _ in seen] == list(range(11))
    assert [b for _, b in seen] == [row.tobytes() for row in full.history]
    plain = propagate_classical(psi0, prob, 10, history_window=window)
    assert sol.history.tobytes() == plain.history.tobytes()
    assert sol.first_step == plain.first_step


@given(
    n_steps=st.integers(0, 14),
    window=st.integers(2, 16),
    two_d=st.booleans(),
    seed=st.integers(0, 2**16),
    signed_walls=st.booleans(),
)
@example(n_steps=2, window=2, two_d=True, seed=0, signed_walls=True)
def test_windowed_run_is_the_tail_of_the_full_run_property(n_steps, window, two_d, seed,
                                                           signed_walls):
    if two_d:
        g = Grid((7, 6), (1.0 / 6, 1.0 / 5))
        center = (0.5, 0.45)
    else:
        g = Grid((40,), (1.0 / 39,))
        center = (0.45,)
    prob = QuantumProblem(g, ScalarField(g, np.zeros(g.shape)), 1.0, 1e-3, NAT)
    psi0 = gaussian_packet(g, center, 0.15, wavenumber=2.0)
    if signed_walls:
        # -0.0 on the first wall layer: a reused row must not keep its sign bits.
        values = psi0.values.copy()
        values[0] = -0.0
        psi0 = ComplexField(g, values)
    full = propagate_classical(psi0, prob, n_steps)
    tail = propagate_classical(psi0, prob, n_steps, history_window=window)
    rows = min(window, n_steps + 1)
    assert len(tail.snapshots) == rows
    assert tail.first_step == n_steps + 1 - rows
    assert tail.history.tobytes() == full.history[tail.first_step:].tobytes()
    assert np.array_equal(tail.times, full.times[-rows:])
    for a, b in zip(tail.snapshots, full.snapshots[-rows:]):
        assert a.time_stamp == b.time_stamp
        assert np.array_equal(a.values, b.values)
    # Delays reach back to the oldest retained step: half of them whole
    # steps (snapshot hits), the rest in between, a few never reached.
    rng = np.random.default_rng(seed)
    steps_back = rng.uniform(0.0, rows - 1, g.shape)
    steps_back = np.where(rng.random(g.shape) < 0.5, np.round(steps_back), steps_back)
    t_end = full.times[-1]
    t_p = np.where(rng.random(g.shape) < 0.1, 2.0 * t_end + 1.0, steps_back * prob.dt)
    tt = TraveltimeField(g, t_p, 1.0)
    expected = evaluate_modified(full, tt, t_end)
    assert np.array_equal(evaluate_modified(tail, tt, t_end).values, expected.values)


def test_evaluate_modified_peak_memory_is_per_cell():
    # 256 retained steps of 1024 cells: the lookup may allocate per-cell
    # temporaries but nothing proportional to the history.
    prob = free_problem(1024, dt=1e-6)
    psi0 = gaussian_packet(prob.grid, (0.5,), 0.05)
    sol = propagate_classical(psi0, prob, 255)
    tt = TraveltimeField(prob.grid, np.linspace(0.0, 200.5 * prob.dt, 1024), 1.0)
    t_end = sol.times[-1]
    tracemalloc.start()
    try:
        evaluate_modified(sol, tt, t_end)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < sol.history.nbytes / 4


# --- retarded evaluation ---------------------------------------------------------

def test_zero_traveltime_is_bit_identical():
    prob = free_problem(128, dt=2e-5)
    psi0 = gaussian_packet(prob.grid, (0.4,), 0.05, wavenumber=10.0)
    sol = propagate_classical(psi0, prob, 60)
    tt = TraveltimeField(prob.grid, np.zeros(128), 1.0)
    for j in (0, 17, 60):
        mod = evaluate_modified(sol, tt, sol.times[j])
        assert np.array_equal(mod.values, sol.snapshots[j].values)


def test_snapshot_aligned_traveltime_is_bit_identical():
    prob = free_problem(128)
    psi0 = gaussian_packet(prob.grid, (0.4,), 0.05)
    sol = propagate_classical(psi0, prob, 20)
    tt = TraveltimeField(prob.grid, np.full(128, 6 * prob.dt), 1.0)
    mod = evaluate_modified(sol, tt, 15 * prob.dt)
    assert np.array_equal(mod.values, sol.snapshots[9].values)


def test_unreached_points_exactly_zero():
    prob = free_problem(64)
    psi0 = gaussian_packet(prob.grid, (0.5,), 0.08)
    sol = propagate_classical(psi0, prob, 8)
    # Front arrives later for the right half of the grid.
    t_p = np.where(np.arange(64) < 32, 0.0, 100.0)
    tt = TraveltimeField(prob.grid, t_p, 1.0)
    mod = evaluate_modified(sol, tt, 8 * prob.dt)
    assert np.all(mod.values[32:] == 0.0)
    assert np.array_equal(mod.values[:32], sol.snapshots[8].values[:32])


def test_half_weight_linear_interpolation():
    prob = free_problem(128)
    psi0 = gaussian_packet(prob.grid, (0.4,), 0.06)
    sol = propagate_classical(psi0, prob, 12)
    tt = TraveltimeField(prob.grid, np.full(128, 0.5 * prob.dt), 1.0)
    mod = evaluate_modified(sol, tt, 10 * prob.dt)
    expected = 0.5 * (sol.snapshots[9].values + sol.snapshots[10].values)
    assert np.max(np.abs(mod.values - expected)) < 1e-15


def test_retarded_plane_wave_matches_modified_wavenumber():
    # Snapshots of exp(2 pi i (k x - nu t)) evaluated at theta = t - x/v_P
    # give exp(2 pi i (k_l x - nu t)) with k_l = k + nu / v_P.
    v_p, nu, k = 3.0, 7.0, 11.0
    dt = 0.01 / nu
    g = Grid((401,), (1.0 / 400,))
    snaps = tuple(make_plane_wave(g, nu, k, j * dt) for j in range(300))
    prob = QuantumProblem(g, ScalarField(g, np.zeros(401)), 1.0, dt, NAT)
    sol = ClassicalSolution(
        prob, np.stack([s.values for s in snaps]), initial_norm=l2_norm_squared(snaps[0])
    )
    x = g.axis_coordinates(0)
    tt = TraveltimeField(g, x / v_p, v_p)
    t_eval = snaps[-2].time_stamp
    assert t_eval - x.max() / v_p >= 0.0  # fully reached
    mod = evaluate_modified(sol, tt, t_eval)
    analytic = np.exp(2j * np.pi * ((k + nu / v_p) * x - nu * t_eval))
    assert np.max(np.abs(mod.values - analytic)) < 1e-3


def free_packet(x, tau, x0=0.2, sigma=0.04, wavenumber=30.0):
    """The free Gaussian exp(-(x - x0)^2 / 4 sigma^2 + i k x), k = 2 pi
    wavenumber, evolved exactly for a time tau (hbar = m = 1, so v_g = k)."""
    k = 2.0 * np.pi * wavenumber
    s = sigma**2 + 0.5j * tau
    return np.sqrt(sigma**2 / s) * np.exp(
        -((x - x0 - k * tau) ** 2) / (4.0 * s) + 1j * k * x - 0.5j * k * k * tau)


def test_retarded_packet_matches_the_exact_packet_at_its_local_time():
    # The whole chain against a closed form: CN, then evaluate_modified with
    # the front leaving cell 0 at v_P = 2 v_g, against psi_exact(x, t - t_P),
    # at three joint refinements of dx and dt.  The bounds are the measured
    # errors to three digits, plus 1% for that rounding; each halving must
    # cut the error by at least 3.5 (second order gives 4).  The classical
    # snapshot against psi_exact(x, t) is the control.
    t, v_p = 0.002, 4.0 * np.pi * 30.0
    modified, classical = [], []
    for n, dt in [(2001, 1e-5), (4001, 5e-6), (8001, 2.5e-6)]:
        prob = free_problem(n, dt)
        psi0 = gaussian_packet(prob.grid, (0.2,), 0.04, 30.0)
        sol = propagate_classical(psi0, prob, round(t / dt))
        x = prob.grid.axis_coordinates(0)
        theta = t - x / v_p
        exact = np.where(theta >= 0.0, free_packet(x, np.maximum(theta, 0.0)), 0.0)
        scale = np.abs(psi0.values).max()
        got = evaluate_modified(sol, TraveltimeField(prob.grid, x / v_p, v_p), t).values
        modified.append(np.abs(got / scale - exact).max())
        classical.append(np.abs(sol.snapshot_at(t).values / scale - free_packet(x, t)).max())
        assert np.abs(got / scale - free_packet(x, t)).max() > 0.5  # retardation shows
        del sol  # before the next, finer run allocates its history
    for errors, bounds in [(modified, (6.33e-2, 1.61e-2, 4.14e-3)),
                           (classical, (1.23e-1, 3.09e-2, 7.91e-3))]:
        assert all(e <= 1.01 * b for e, b in zip(errors, bounds)), errors
        assert all(coarse >= 3.5 * fine for coarse, fine in zip(errors, errors[1:])), errors


def modified_equation_residuals(cells, dt, streamed):
    """The relative residuals, at t = 1.6e-3, of the modified equation, the
    classical one and the modified one with 1/v_P's sign flipped, for the
    retarded packet of the test below, read from the stored history or
    streamed from the run."""
    prob = free_problem(cells, dt)
    h = prob.grid.spacing[0]
    v_p = 4.0 * np.pi * 40.0  # twice the group velocity hbar k / m
    tt = TraveltimeField(prob.grid, prob.grid.axis_coordinates(0) / v_p, v_p)
    n = round(1.6e-3 / dt)
    psi0 = gaussian_packet(prob.grid, (0.25,), 0.04, 40.0)
    times = [(n + j) * dt for j in (-1, 0, 1)]
    if streamed:
        frames = schrodinger._propagate_retarded(psi0, prob, n + 1, [(tt.t_P, t) for t in times])
    else:
        sol = propagate_classical(psi0, prob, n + 1)
        frames = [evaluate_modified(sol, tt, t) for t in times]
    before, now, after = (frame.values for frame in frames)
    # The cells the front reaches by the first frame, less the last, whose
    # right neighbour it has not reached, and the wall.
    i = np.flatnonzero((n - 1) * dt - tt.t_P >= 0.0)[1:-1]
    psi_t = (after - before) / (2.0 * dt)
    psi_tt = (after - 2.0 * now + before)[i] / dt**2
    psi_xx = (now[i + 1] - 2.0 * now[i] + now[i - 1]) / h**2
    psi_xt = (psi_t[i + 1] - psi_t[i - 1]) / (2.0 * h)
    return [np.linalg.norm(1j * psi_t[i] + 0.5 * (psi_xx + 2.0 * a * psi_xt + a * a * psi_tt))
            / np.linalg.norm(psi_t[i]) for a in (1.0 / v_p, 0.0, -1.0 / v_p)]


@pytest.mark.parametrize("streamed", [False, True], ids=["stored", "streamed"])
def test_retarded_state_solves_the_modified_equation(streamed):
    """The retarded state solves the modified equation, to second order.

    With Psi_l(x, t) = Psi(x, t - t_P(x)), the chain rule gives d_t Psi_l =
    Psi_t and grad Psi_l = grad Psi - grad t_P Psi_t at the local time, so
    the classical grad Psi is D Psi_l, with D = grad + grad t_P d_t.  The
    classical equation i hbar Psi_t = -(hbar^2/2m) Laplacian Psi + U Psi,
    taken at the local time, is then

        i hbar d_t Psi_l = -(hbar^2/2m) D.D Psi_l + U Psi_l,

    D.D = Laplacian + 2 grad t_P . grad d_t + (Laplacian t_P) d_t +
    |grad t_P|^2 d_t^2, with |grad t_P| = 1/v_P by the eikonal equation.
    Its principal part (xi + tau grad t_P)^2 is a degenerate quadratic form,
    so the equation is parabolic.  This is the form derived here; PAPER.md
    holds only the paper's abstract, so it is not claimed to be the
    paper's printed form.

    Here hbar = m = 1, U = 0 and t_P = x / v_P in 1-D, so the equation reads
    i Psi_t = -1/2 (d_x + d_t / v_P)^2 Psi.  A packet (carrier 40 cycles,
    width 0.04, centre 0.25) runs with v_P at twice its group velocity.
    Three retarded frames dt apart give the residual by centred differences
    over the cells all three reach, relative to |Psi_t|.  Measured: 1.61e-2,
    4.23e-3 and 1.23e-3 as h and dt halve (3.8x, then 3.4x); 0.54 to 0.57
    for the classical equation, and 1.20 to 1.26 with 1/v_P's sign flipped.
    """
    runs = [modified_equation_residuals(cells, dt, streamed)
            for cells, dt in ((513, 4e-6), (1025, 2e-6), (2049, 1e-6))]
    for modified, classical, flipped in runs:
        assert modified < 0.1 * classical and modified < 0.1 * flipped, runs
    assert all(coarse[0] >= 3.0 * fine[0] for coarse, fine in zip(runs, runs[1:])), runs


@pytest.mark.parametrize("shape", [(40,), (9, 8)], ids=["1-D", "2-D"])
def test_streamed_reads_equal_the_stored_history_reads(shape):
    # Reads at 31 times on one run, in a random potential: whole steps and
    # times between them, delays of whole steps and between them, cells the
    # front reaches after the read, and every step at t_P = 0.
    g = Grid(shape, tuple(1.0 / (n - 1) for n in shape))
    rng = np.random.default_rng(7)
    prob = QuantumProblem(g, ScalarField(g, rng.uniform(-50.0, 50.0, shape)), 1.0, 1e-3, NAT)
    psi0 = gaussian_packet(g, (0.45,) * len(shape), 0.15, 2.0)
    n_steps, dt = 12, prob.dt
    full = propagate_classical(psi0, prob, n_steps)
    delays = rng.uniform(0.0, 1.5 * n_steps, shape)
    t_p = np.where(rng.random(shape) < 0.5, np.round(delays), delays) * dt
    zero = np.zeros(shape)
    reads = [(t_p, s * dt) for s in np.linspace(0.0, n_steps, 31)]
    reads += [(zero, k * dt) for k in range(n_steps + 1)]
    seen = []
    got = schrodinger._propagate_retarded(psi0, prob, n_steps, reads,
                                          lambda k, values: seen.append(values.tobytes()))
    assert seen == [row.tobytes() for row in full.history]
    assert len(got) == len(reads)
    for (delay, t), field in zip(reads, got):
        expected = evaluate_modified(full, TraveltimeField(g, delay), t)
        assert field.values.tobytes() == expected.values.tobytes(), t
        assert field.time_stamp == t
    for k, field in enumerate(got[31:]):
        assert field.values.tobytes() == full.snapshot_at(k * dt).values.tobytes()
    # A read after the last step fails before the first.
    seen.clear()
    for t in ((n_steps + 0.5) * dt, (n_steps + 1) * dt):
        with pytest.raises(HistoryWindowError):
            schrodinger._propagate_retarded(psi0, prob, n_steps, [(t_p, 0.0), (zero, t)],
                                            lambda k, values: seen.append(k))
    assert seen == []


@given(mult=st.integers(0, 12))
def test_snapshot_hits_are_exact_property(mult):
    prob = free_problem(48)
    psi0 = gaussian_packet(prob.grid, (0.5,), 0.08)
    sol = propagate_classical(psi0, prob, 12)
    tt = TraveltimeField(prob.grid, np.full(48, mult * prob.dt), 1.0)
    mod = evaluate_modified(sol, tt, 12 * prob.dt)
    assert np.array_equal(mod.values, sol.snapshots[12 - mult].values)


# --- first-order difference estimate ---------------------------------------------

def two_mode_solution(n=256, dt=1.25e-5, steps=150):
    g = Grid((n,), (1.0 / (n - 1),))
    prob = QuantumProblem(g, ScalarField(g, np.zeros(n)), 1.0, dt, NAT)
    m1 = box_eigenmode(g, (1,))
    m2 = box_eigenmode(g, (2,))
    psi0 = ComplexField(g, (m1.values + m2.values) / math.sqrt(2.0))
    return propagate_classical(psi0, prob, steps)


def residual_at(solution, tau_steps, t_eval):
    dt = solution.problem.dt
    n = solution.problem.grid.shape[0]
    tt = TraveltimeField(solution.problem.grid, np.full(n, tau_steps * dt), 1.0)
    actual, predicted = difference_estimate(solution, tt, t_eval)
    mask = predicted.values > 1e-3 * predicted.values.max()
    return float(np.max(np.abs(actual.values - predicted.values)[mask]))


def test_difference_estimate_second_order_in_tau():
    sol = two_mode_solution()
    t_eval = 120 * sol.problem.dt
    ratio = residual_at(sol, 16, t_eval) / residual_at(sol, 8, t_eval)
    assert 3.5 < ratio < 4.5


def test_single_mode_magnitude_cancels_to_third_order():
    # For one eigenmode |Psi| is time-independent, the second-order term
    # drops out of the magnitude difference, and halving tau shrinks the
    # residual ~8x. This is why second-order checks need a superposition.
    n, dt, steps = 256, 1.25e-5, 150
    g = Grid((n,), (1.0 / (n - 1),))
    prob = QuantumProblem(g, ScalarField(g, np.zeros(n)), 1.0, dt, NAT)
    m1 = box_eigenmode(g, (1,))
    sol = propagate_classical(m1, prob, steps)
    t_eval = 120 * dt
    ratio = residual_at(sol, 16, t_eval) / residual_at(sol, 8, t_eval)
    assert 6.5 < ratio < 9.5


def test_difference_estimate_agreement():
    # At tau = 16 dt the prediction tracks the actual difference to a
    # fraction of a percent over the well-supported region.
    sol = two_mode_solution()
    dt = sol.problem.dt
    n = sol.problem.grid.shape[0]
    tt = TraveltimeField(sol.problem.grid, np.full(n, 16 * dt), 1.0)
    actual, predicted = difference_estimate(sol, tt, 120 * dt)
    mask = predicted.values > 0.05 * predicted.values.max()
    rel = np.abs(actual.values[mask] - predicted.values[mask]) / predicted.values[mask]
    assert np.median(rel) < 1e-3


def test_difference_estimate_zero_tau_gives_zero():
    sol = two_mode_solution(steps=20)
    n = sol.problem.grid.shape[0]
    tt = TraveltimeField(sol.problem.grid, np.zeros(n), 1.0)
    actual, predicted = difference_estimate(sol, tt, 10 * sol.problem.dt)
    assert np.all(actual.values == 0.0)
    assert np.all(predicted.values == 0.0)


# --- plane waves ---------------------------------------------------------------

def test_make_plane_wave_values():
    g = Grid((5,), (0.25,))
    wave = make_plane_wave(g, nu=1.0, wavenumber=2.0, t=0.5)
    # exp(2 pi i (2 x - 0.5)); at x = 0.25 the phase is 2 pi (0.5 - 0.5) = 0
    np.testing.assert_allclose(wave.values[1], 1.0, atol=1e-14)
    np.testing.assert_allclose(wave.values[0], np.exp(-1j * np.pi), atol=1e-14)
    assert wave.time_stamp == 0.5


@given(seed=st.integers(0, 2**31 - 1))
def test_norm_preservation_property(seed):
    n = 32
    g = Grid((n,), (1.0 / (n - 1),))
    prob = QuantumProblem(g, ScalarField(g, np.zeros(n)), 1.0, 1e-4, NAT)
    rng = np.random.default_rng(seed)
    values = np.zeros(n, dtype=np.complex128)
    values[1:-1] = rng.standard_normal(n - 2) + 1j * rng.standard_normal(n - 2)
    psi0 = ComplexField(g, values)
    sol = propagate_classical(psi0, prob, 20, history_window=2)
    assert sol.norm_drift() < 1e-12
