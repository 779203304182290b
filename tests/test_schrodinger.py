import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qfront.constants import natural_units
from qfront.eikonal import TraveltimeField
from qfront.fields import ComplexField, Grid, ScalarField, l2_norm_squared
from qfront.schrodinger import (
    ClassicalSolution,
    HistoryWindowError,
    QuantumProblem,
    StationaryState,
    box_eigenmode,
    difference_estimate,
    evaluate_modified,
    gaussian_packet,
    make_plane_wave,
    propagate_classical,
    stationary_modified_wavefunction,
    step_classical,
)

NAT = natural_units()


def free_problem(n=256, dt=1e-4):
    g = Grid((n,), (1.0 / (n - 1),))
    return QuantumProblem(g, ScalarField(g, np.zeros(n)), 1.0, dt, NAT)


# --- construction validation --------------------------------------------------

def test_problem_validation():
    g = Grid((8,), (1.0,))
    u = ScalarField(g, np.zeros(8))
    with pytest.raises(ValueError, match="mass"):
        QuantumProblem(g, u, 0.0, 1.0)
    with pytest.raises(ValueError, match="dt"):
        QuantumProblem(g, u, 1.0, -1.0)
    with pytest.raises(ValueError, match="match"):
        QuantumProblem(g, ScalarField(Grid((9,), (1.0,)), np.zeros(9)), 1.0, 1.0)


def test_step_requires_zero_boundary():
    prob = free_problem(16)
    state = ComplexField(prob.grid, np.ones(16))
    with pytest.raises(ValueError, match="boundary"):
        step_classical(state, prob)


def test_step_requires_matching_grid():
    prob = free_problem(16)
    other = Grid((17,), (1.0 / 16,))
    state = ComplexField(other, np.zeros(17))
    with pytest.raises(ValueError, match="grid"):
        step_classical(state, prob)


def test_solution_rejects_history_off_the_grid():
    prob = free_problem(16)
    with pytest.raises(ValueError, match="history shape"):
        ClassicalSolution(prob, np.zeros((2, 17), dtype=complex), initial_norm=1.0)
    with pytest.raises(ValueError, match="history shape"):
        ClassicalSolution(prob, np.zeros(16, dtype=complex), initial_norm=1.0)


def test_propagate_rejects_zero_state():
    prob = free_problem(16)
    zero = ComplexField(prob.grid, np.zeros(16))
    with pytest.raises(ValueError, match="norm"):
        propagate_classical(zero, prob, 1)


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)])
@pytest.mark.parametrize("shape", [(16,), (9, 8)])
def test_step_and_propagate_reject_non_finite_state(shape, bad):
    g = Grid(shape, tuple(1.0 / (n - 1) for n in shape))
    prob = QuantumProblem(g, ScalarField(g, np.zeros(shape)), 1.0, 1e-4, NAT)
    values = gaussian_packet(g, tuple(0.5 for _ in shape), 0.2).values.copy()
    values[(3,) * len(shape)] = bad
    state = ComplexField(g, values)
    with pytest.raises(ValueError, match="non-finite"):
        step_classical(state, prob)
    with pytest.raises(ValueError, match="non-finite"):
        propagate_classical(state, prob, 3)


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
    mode = box_eigenmode(prob.grid, (m,), mass=1.0, constants=NAT)
    dx = prob.grid.spacing[0]
    e_disc = (NAT.hbar**2 / 2.0) * (2.0 - 2.0 * math.cos(m * math.pi / (n - 1))) / dx**2
    z = 1j * e_disc * prob.dt / (2.0 * NAT.hbar)
    lam = (1.0 - z) / (1.0 + z)
    stepped = step_classical(mode.psi, prob)
    interior = np.abs(mode.psi.values) > 1e-3
    ratio = stepped.values[interior] / mode.psi.values[interior]
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
    mode = box_eigenmode(g, (1, 2), mass=1.0, constants=NAT)
    e_disc = sum(
        (NAT.hbar**2 / 2.0) * (2.0 - 2.0 * math.cos(m * math.pi / 32)) / g.spacing[a] ** 2
        for a, m in enumerate((1, 2))
    )
    z = 1j * e_disc * prob.dt / (2.0 * NAT.hbar)
    lam = (1.0 - z) / (1.0 + z)
    stepped = step_classical(mode.psi, prob)
    interior = np.abs(mode.psi.values) > 1e-3
    ratio = stepped.values[interior] / mode.psi.values[interior]
    # The iterative solve converges to 1e-13, looser than the 1-D direct path.
    assert np.max(np.abs(ratio - lam)) < 1e-10


def test_constant_potential_shifts_eigenvalue():
    # A constant potential U0 shifts every discrete eigenvalue by U0, so a
    # box mode steps with the Cayley factor of (E_disc + U0).
    n, m, u0 = 64, 2, 3.7
    g = Grid((n,), (1.0 / (n - 1),))
    prob = QuantumProblem(g, ScalarField(g, np.full(n, u0)), 1.0, 1e-4, NAT)
    mode = box_eigenmode(g, (m,), mass=1.0, constants=NAT)
    dx = g.spacing[0]
    e_disc = (NAT.hbar**2 / 2.0) * (2.0 - 2.0 * math.cos(m * math.pi / (n - 1))) / dx**2
    z = 1j * (e_disc + u0) * prob.dt / (2.0 * NAT.hbar)
    lam = (1.0 - z) / (1.0 + z)
    stepped = step_classical(mode.psi, prob)
    interior = np.abs(mode.psi.values) > 1e-3
    ratio = stepped.values[interior] / mode.psi.values[interior]
    assert np.max(np.abs(ratio - lam)) < 1e-12


@pytest.mark.parametrize("shape, spacing", [
    ((40,), (0.03,)),
    ((9, 12), (0.1, 0.07)),
    ((6, 7, 8), (0.2, 0.15, 0.1)),
])
def test_cn_step_matches_dense_solve(shape, spacing):
    # H = -hbar^2/(2m) Laplacian + U on the interior cells, written out
    # entry by entry, then one CN step as a dense solve.
    rng = np.random.default_rng(len(shape))
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
    eye = np.eye(len(cells))
    x = np.array([values[cell] for cell in cells])
    expected = np.linalg.solve(eye + c * h, (eye - c * h) @ x)

    stepped = step_classical(ComplexField(g, values), prob).values.copy()
    got = np.array([stepped[cell] for cell in cells])
    assert np.linalg.norm(got - expected) / np.linalg.norm(expected) < 1e-12
    stepped[interior] = 0.0
    assert not np.any(stepped)  # the boundary layer stays zero


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


def test_window_must_cover_retardation():
    prob = free_problem(32)
    psi0 = gaussian_packet(prob.grid, (0.5,), 0.1)
    sol = propagate_classical(psi0, prob, 10, history_window=3)
    tt = TraveltimeField(prob.grid, np.full(32, 5 * prob.dt), 1.0)
    with pytest.raises(HistoryWindowError, match="history_window"):
        evaluate_modified(sol, tt, 10 * prob.dt)


def test_snapshot_at_unknown_time():
    prob = free_problem(32)
    psi0 = gaussian_packet(prob.grid, (0.5,), 0.1)
    sol = propagate_classical(psi0, prob, 4)
    with pytest.raises(HistoryWindowError):
        sol.snapshot_at(2.5 * prob.dt)


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


def test_writeable_history_is_copied():
    prob = free_problem(16)
    values = np.ones((2, 16), dtype=complex)
    sol = ClassicalSolution(prob, values, initial_norm=1.0)
    values[:] = 0.0
    assert np.all(sol.history == 1.0)
    assert not sol.history.flags.writeable


@given(
    n_steps=st.integers(0, 14),
    window=st.integers(2, 16),
    two_d=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_windowed_run_is_the_tail_of_the_full_run_property(n_steps, window, two_d, seed):
    if two_d:
        g = Grid((7, 6), (1.0 / 6, 1.0 / 5))
        center = (0.5, 0.45)
    else:
        g = Grid((40,), (1.0 / 39,))
        center = (0.45,)
    prob = QuantumProblem(g, ScalarField(g, np.zeros(g.shape)), 1.0, 1e-3, NAT)
    psi0 = gaussian_packet(g, center, 0.15, wavenumber=2.0)
    full = propagate_classical(psi0, prob, n_steps)
    tail = propagate_classical(psi0, prob, n_steps, history_window=window)
    rows = min(window, n_steps + 1)
    assert len(tail.snapshots) == rows
    assert tail.first_step == n_steps + 1 - rows
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


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_retarded_lookups_reject_non_finite_time(t):
    prob = free_problem(32)
    psi0 = gaussian_packet(prob.grid, (0.5,), 0.1)
    sol = propagate_classical(psi0, prob, 4)
    tt = TraveltimeField(prob.grid, np.zeros(32), 1.0)
    with pytest.raises(ValueError, match="finite"):
        sol.snapshot_at(t)
    with pytest.raises(ValueError, match="finite"):
        evaluate_modified(sol, tt, t)
    with pytest.raises(ValueError, match="finite"):
        difference_estimate(sol, tt, t)


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
    m1 = box_eigenmode(g, (1,), mass=1.0, constants=NAT)
    m2 = box_eigenmode(g, (2,), mass=1.0, constants=NAT)
    psi0 = ComplexField(g, (m1.psi.values + m2.psi.values) / math.sqrt(2.0))
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
    m1 = box_eigenmode(g, (1,), mass=1.0, constants=NAT)
    sol = propagate_classical(m1.psi, prob, steps)
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


def test_difference_estimate_needs_interior_snapshot():
    sol = two_mode_solution(steps=20)
    n = sol.problem.grid.shape[0]
    tt = TraveltimeField(sol.problem.grid, np.zeros(n), 1.0)
    with pytest.raises(HistoryWindowError, match="endpoint"):
        difference_estimate(sol, tt, 20 * sol.problem.dt)
    with pytest.raises(HistoryWindowError, match="snapshot"):
        difference_estimate(sol, tt, 10.4 * sol.problem.dt)


# --- stationary states and plane waves ---------------------------------------------

def test_stationary_state_frequency():
    g = Grid((32,), (1.0 / 31,))
    mode = box_eigenmode(g, (2,), mass=1.0, constants=NAT)
    assert mode.nu == mode.energy / NAT.h


def test_stationary_modified_gating_and_phase():
    g = Grid((5,), (1.0,))
    psi = ComplexField(g, np.ones(5))
    state = StationaryState(psi, energy=NAT.h * 1.0, constants=NAT)  # nu = 1
    tt = TraveltimeField(g, np.array([0.0, 0.25, 0.5, 2.0, 3.0]), 1.0)
    out = stationary_modified_wavefunction(state, tt, t=0.75)
    # theta = [0.75, 0.5, 0.25, -1.25, -2.25]
    assert out.values[3] == 0.0 and out.values[4] == 0.0
    np.testing.assert_allclose(out.values[1], np.exp(-2j * np.pi * 0.5), rtol=1e-15)
    np.testing.assert_allclose(np.abs(out.values[:3]), 1.0, rtol=1e-15)


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
