"""Acceptance gate: the nine headline requirements, one test each.

Every test prints exactly one ``criterion N (...): PASS`` or ``FAIL`` line
(visible with ``pytest -s``), so the suite doubles as a checklist.  The
numeric tolerances here are the contract; the unit-test modules probe the
same code paths more finely.
"""

import functools
import math
import time

import numpy as np

from qfront.constants import CODATA2018, natural_units
from qfront.dispersion import (
    FreeParticle,
    WavelengthRegime,
    WavePhaseDecomposition,
    modified_group_velocity,
    modified_phase_velocity,
    modified_wavenumber_free,
    modified_wavenumber_general,
    wavelength_regime,
)
from qfront.eikonal import SourceSpec, TraveltimeField, front_mask, solve_traveltime
from qfront.fields import ComplexField, Grid, ScalarField, l2_norm_squared
from qfront.fit import derive_kinematics, fit_vp, read_records_csv, synthesize_records
from qfront.schrodinger import (
    ClassicalSolution,
    QuantumProblem,
    box_eigenmode,
    difference_estimate,
    evaluate_modified,
    gaussian_packet,
    make_plane_wave,
    propagate_classical,
)

NAT = natural_units()


def criterion(number: int, label: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number} ({label}): FAIL")
                raise
            print(f"criterion {number} ({label}): PASS")

        return wrapper

    return decorate


def cone_max_error(n: int, spacing: float, ball_radius: float | None) -> float:
    grid = Grid((n, n), (spacing, spacing))
    c = n // 2
    tt = solve_traveltime(
        grid, SourceSpec([(c, c)]), 1.0, source_ball_radius=ball_radius
    )
    coords = grid.coordinate_arrays()
    r = np.sqrt((coords[0] - c * spacing) ** 2 + (coords[1] - c * spacing) ** 2)
    cells = np.sqrt(
        (np.arange(n)[:, None] - c) ** 2.0 + (np.arange(n)[None, :] - c) ** 2.0
    )
    far = cells > 5.0
    return float(np.max(np.abs(tt.t_P[far] - r[far]) / r[far]))


@criterion(1, "eikonal cone accuracy and convergence")
def test_criterion_1_eikonal_cone():
    start = time.perf_counter()
    err_201 = cone_max_error(201, 1.0, None)
    elapsed = time.perf_counter() - start
    assert err_201 < 0.02, f"201^2 cone error {err_201:.4%} >= 2%"
    assert elapsed < 5.0, f"201^2 solve took {elapsed:.2f}s >= 5s"
    # Same physical domain, halved spacing, seed ball held at the same
    # physical radius (the solver default for the coarse grid).
    err_401 = cone_max_error(401, 0.5, 8.0)
    assert err_401 < 0.7 * err_201, (
        f"halving spacing: {err_201:.4%} -> {err_401:.4%}, expected < 0.7x"
    )


@criterion(2, "classical limit bit-identical")
def test_criterion_2_classical_limit():
    n = 512
    grid = Grid((n,), (1.0 / (n - 1),))
    problem = QuantumProblem(grid, ScalarField(grid, np.zeros(n)), 1.0, 1e-5, NAT)
    psi0 = gaussian_packet(grid, (0.4,), 0.05, wavenumber=25.0)
    solution = propagate_classical(psi0, problem, 100)
    tt = TraveltimeField(grid, np.zeros(n), 1.0)
    for j in (0, 37, 100):
        modified = evaluate_modified(solution, tt, solution.times[j])
        assert np.array_equal(modified.values, solution.snapshots[j].values), (
            f"classical limit differs at snapshot {j}"
        )


@criterion(3, "unitarity over 1000 steps")
def test_criterion_3_unitarity():
    n = 512
    grid = Grid((n,), (1.0 / (n - 1),))
    problem = QuantumProblem(grid, ScalarField(grid, np.zeros(n)), 1.0, 1e-6, NAT)
    psi0 = gaussian_packet(grid, (0.3,), 0.04, wavenumber=40.0)
    solution = propagate_classical(psi0, problem, 1000, history_window=4)
    drift = solution.norm_drift()
    assert drift < 1e-9, f"norm drift {drift:.3e} >= 1e-9"


@criterion(4, "retarded plane wave matches modified wavenumber")
def test_criterion_4_plane_wave_retardation():
    v_p, nu, k = 3.0, 7.0, 11.0
    dt = 0.01 / nu
    grid = Grid((401,), (1.0 / 400,))
    snaps = tuple(make_plane_wave(grid, nu, k, j * dt) for j in range(300))
    problem = QuantumProblem(grid, ScalarField(grid, np.zeros(401)), 1.0, dt, NAT)
    solution = ClassicalSolution(
        problem,
        np.stack([s.values for s in snaps]),
        initial_norm=l2_norm_squared(snaps[0]),
    )
    x = grid.axis_coordinates(0)
    tt = TraveltimeField(grid, x / v_p, v_p)
    t_eval = snaps[-2].time_stamp
    assert t_eval - x.max() / v_p >= 0.0  # the front has crossed the grid
    modified = evaluate_modified(solution, tt, t_eval)
    analytic = np.exp(2j * np.pi * ((k + nu / v_p) * x - nu * t_eval))
    err = float(np.max(np.abs(modified.values - analytic)))
    assert err <= 1e-3, f"plane-wave retardation error {err:.3e} > 1e-3"


@criterion(5, "first-order difference estimate is second-order accurate")
def test_criterion_5_difference_estimate():
    n, dt, steps = 512, 6.25e-6, 400
    grid = Grid((n,), (1.0 / (n - 1),))
    problem = QuantumProblem(grid, ScalarField(grid, np.zeros(n)), 1.0, dt, NAT)
    m1 = box_eigenmode(grid, (1,))
    m2 = box_eigenmode(grid, (2,))
    psi0 = ComplexField(grid, (m1.values + m2.values) / math.sqrt(2.0))
    solution = propagate_classical(psi0, problem, steps)
    t_eval = 384 * dt

    def residual(tau_steps: int) -> float:
        tt = TraveltimeField(grid, np.full(n, tau_steps * dt), 1.0)
        actual, predicted = difference_estimate(solution, tt, t_eval)
        mask = predicted.values > 1e-3 * predicted.values.max()
        return float(np.max(np.abs(actual.values - predicted.values)[mask]))

    ratio = residual(16) / residual(8)
    assert 3.5 < ratio < 4.5, f"halving tau gave residual ratio {ratio:.3f}"


@criterion(6, "dispersion identities and regime classifier")
def test_criterion_6_dispersion():
    v_p = 1.3e8
    p = FreeParticle.electron_from_voltage(54.0)
    s = p.nu / v_p
    # Exact reductions of the general composition law.
    assert modified_wavenumber_general(
        WavePhaseDecomposition(p.nu, p.k, 0.0, v_p)
    ) == p.k + s
    assert modified_wavenumber_general(
        WavePhaseDecomposition(p.nu, p.k, 0.0, v_p)
    ) == modified_wavenumber_free(p, v_p)
    assert modified_wavenumber_general(
        WavePhaseDecomposition(p.nu, p.k, 1.0, math.inf)
    ) == p.k
    assert modified_phase_velocity(p.phase_velocity, math.inf) == p.phase_velocity
    assert modified_group_velocity(p.group_velocity, math.inf) == p.group_velocity
    # Harmonic-sum laws, exact on dyadic rationals: 1/8 = 1/4 + 1/4 etc.
    assert modified_phase_velocity(0.25, 0.25) == 0.125
    assert modified_group_velocity(0.5, 0.5) == 0.25
    assert 1.0 / modified_phase_velocity(0.25, 0.5) == 1.0 / 0.25 + 1.0 / 0.5
    # Group velocity is the slope d(nu)/d(k_l) along the voltage axis.
    def point(voltage):
        q = FreeParticle.electron_from_voltage(voltage)
        return q.nu, modified_wavenumber_free(q, v_p)

    nu_lo, k_lo = point(54.0 * (1.0 - 1e-6))
    nu_hi, k_hi = point(54.0 * (1.0 + 1e-6))
    fd = (nu_hi - nu_lo) / (k_hi - k_lo)
    vg = modified_group_velocity(p.group_velocity, v_p)
    assert abs(vg - fd) / fd < 1e-6, f"group velocity vs slope: {vg} vs {fd}"
    # Classifier agrees with the sign of k_l - k on random samples.
    rng = np.random.default_rng(123)
    for _ in range(10_000):
        nu = float(rng.uniform(1e-3, 1e3))
        k = float(rng.uniform(1e-3, 1e3))
        alpha = float(rng.uniform(0.0, math.pi))
        vp = float(rng.uniform(1e-3, 1e3))
        d = WavePhaseDecomposition(nu, k, alpha, vp)
        regime = wavelength_regime(d)
        rel = (modified_wavenumber_general(d) - k) / k
        if regime is WavelengthRegime.SHORTER:
            assert rel > -1e-9
        elif regime is WavelengthRegime.LONGER:
            assert rel < 1e-9
        else:
            assert abs(rel) < 1e-6


@criterion(7, "front-speed fit: recovery, noise robustness, optimality")
def test_criterion_7_fit():
    v_p_true = 1.3e8
    result = fit_vp(synthesize_records(20, v_p_true, seed=3))
    rel = abs(result.v_p_fitted - v_p_true) / v_p_true
    assert rel < 1e-6, f"noiseless recovery off by {rel:.2e}"
    # 1% relative wavenumber noise, 100 independent datasets.
    errors = []
    for seed in range(100):
        r = fit_vp(synthesize_records(16, v_p_true, noise_relative=0.01, seed=seed))
        if not r.clamped_to_classical:
            errors.append(abs(r.v_p_fitted - v_p_true) / v_p_true)
    assert len(errors) >= 95
    median = float(np.median(errors))
    assert median < 0.10, f"median noisy-recovery error {median:.3f} >= 10%"
    # The closed form beats a millionth-resolution grid scan.
    records = synthesize_records(16, v_p_true, noise_relative=0.04, seed=866)
    result = fit_vp(records)
    h, m = CODATA2018.h, CODATA2018.m_e
    v = np.array([derive_kinematics(r)[0] for r in records])
    k_exp = np.array([1.0 / r.wavelength_exp for r in records])
    a = m * v**2 / (2.0 * h)
    r = k_exp - m * v / h
    betas = np.linspace(0.0, 2.0 / result.v_p_fitted, 1_000_001)
    variances = np.mean((r[None, :] - betas[:, None] * a[None, :]) ** 2, axis=1)
    assert variances.min() >= result.variance_modified - 1e-12 * result.variance_classical


@criterion(8, "bundled dataset refit")
def test_criterion_8_bundled_dataset():
    from importlib import resources

    path = resources.files("qfront.data") / "davisson_germer.csv"
    with resources.as_file(path) as concrete:
        records = read_records_csv(str(concrete))
    result = fit_vp(records)
    assert 1.0e8 <= result.v_p_fitted <= 1.6e8, (
        f"bundled-fit v_P = {result.v_p_fitted:.4e} outside [1.0e8, 1.6e8]"
    )
    ratio = result.variance_classical / result.variance_modified
    assert 1.8 <= ratio <= 2.8, f"variance ratio {ratio:.3f} outside [1.8, 2.8]"


@criterion(9, "causal support: zero beyond the front, monotone fronts")
def test_criterion_9_causality():
    # Values beyond the front are exactly zero, not merely small.
    n = 64
    grid = Grid((n,), (1.0 / (n - 1),))
    problem = QuantumProblem(grid, ScalarField(grid, np.zeros(n)), 1.0, 1e-4, NAT)
    psi0 = gaussian_packet(grid, (0.5,), 0.08)
    solution = propagate_classical(psi0, problem, 8)
    t_p = np.where(np.arange(n) < n // 2, 0.0, 100.0)
    tt = TraveltimeField(grid, t_p, 1.0)
    modified = evaluate_modified(solution, tt, 8e-4)
    assert np.all(modified.values[n // 2:] == 0.0)
    assert np.any(modified.values[: n // 2] != 0.0)
    # Front masks grow monotonically with time on a solved cone.
    cone_grid = Grid((101, 101), (1.0, 1.0))
    tt2 = solve_traveltime(cone_grid, SourceSpec([(50, 50)]), 1.0)
    rng = np.random.default_rng(7)
    top = tt2.max_traveltime()
    for _ in range(100):
        t1, t2 = np.sort(rng.uniform(0.0, top, size=2))
        m1, m2 = front_mask(tt2, float(t1)), front_mask(tt2, float(t2))
        assert not np.any(m1 & ~m2), f"front shrank between t={t1} and t={t2}"
