"""Every rejected input of the public API is one row of BOUNDARY_ERRORS: a
callable, its arguments, the exception it must raise and a fragment of its
message.  Every public callable has a row or an EXEMPT reason."""
import enum
import io
import math
import re
from functools import partial
from typing import NamedTuple

import numpy as np
import pytest

import qfront
from qfront.constants import CODATA2018, PhysicalConstants, natural_units
from qfront.dispersion import (FreeParticle, WavePhaseDecomposition, modified_group_velocity,
                               modified_phase_velocity, modified_wavenumber_free,
                               wavelength_regime)
from qfront.eikonal import (SourceSpec, TraveltimeField, cone_error, front_mask,
                            solve_traveltime)
from qfront.fields import ComplexField, Grid, ScalarField, read_field_csv
from qfront.fit import (DiffractionRecord, FitResult, fit_vp, model_curves, read_records_csv,
                        synthesize_records)
from qfront.localtime import LocalTimeField, local_time
from qfront.schrodinger import (ClassicalSolution, HistoryWindowError, QuantumProblem,
                                box_eigenmode, difference_estimate, evaluate_modified,
                                gaussian_packet, make_plane_wave, propagate_classical)

nan, inf = math.nan, math.inf
NAT = natural_units()
V_P = 1.3e8  # m/s


class Row(NamedTuple):
    call: object  # a public callable, a method, or a functools.partial of one
    args: tuple
    match: str    # a fragment of the message, as pytest.raises(match=) reads it
    error: type = ValueError


def with_value(n, index, value):
    values = np.ones(n)
    values[index] = value
    return values


def problem_args(grid, mass=1.0, dt=1e-4, potential=0.0):
    """QuantumProblem's arguments: a uniform potential, in natural units."""
    return grid, ScalarField(grid, np.full(grid.shape, potential)), mass, dt, NAT


def overflowing_operator(dt=4.0, mass=1.0, spacing=0.1, potential=0.0):
    return problem_args(Grid((8,), (spacing,)), mass, dt, potential)


def non_finite_state(shape, bad):
    g = Grid(shape, tuple(1.0 / (n - 1) for n in shape))
    values = gaussian_packet(g, tuple(0.5 for _ in shape), 0.2).values.copy()
    values[(3,) * len(shape)] = bad
    return ComplexField(g, values), QuantumProblem(*problem_args(g))


G3, G4, G8 = (Grid((n,), (1.0,)) for n in (3, 4, 8))
G16 = Grid((16,), (1.0 / 15,))
G17 = Grid((17,), (1.0 / 16,))
G32 = Grid((32,), (1.0 / 31,))
G12 = Grid((12, 12), (1.0, 1.0))
PROB = QuantumProblem(*problem_args(G16))
DT = PROB.dt
PACKET = gaussian_packet(G16, (0.5,), 0.1)
SOL = propagate_classical(PACKET, PROB, 4)
TT16 = TraveltimeField(G16, np.zeros(16), 1.0)
CONE = solve_traveltime(Grid((9,), (1.0,)), SourceSpec([(4,)]), 1.0)
RAMP = TraveltimeField(G4, np.array([0.0, 1.0, 2.0, 3.0]), v_P=1.0)
ONE_AXIS = "index_axis0,value_re\n"
TWO_AXES = "index_axis0,index_axis1,value_re\n"

BOUNDARY_ERRORS = [
    # --- constants
    *[Row(partial(PhysicalConstants, **{**dict(h=1.0, m_e=1.0, e_charge=1.0, c_light=1.0),
                                        name: -1.0}), (), name)
      for name in ["h", "m_e", "e_charge", "c_light"]],

    # --- fields: grids
    Row(Grid, ((2, 2, 2, 2), (1, 1, 1, 1)), "grid must be 1-D, 2-D or 3-D"),  # 4-D
    Row(Grid, ((1,), (1.0,)), "need >= 2 cells per axis"),  # too few cells
    Row(Grid, ((4,), (0.0,)), "spacing must be positive"),  # zero spacing
    Row(Grid, ((4,), (-1.0,)), "spacing must be positive"),  # negative spacing
    # length mismatch
    Row(Grid, ((4, 4), (1.0,)), "shape, spacing and origin must have equal length"),
    # int() used to truncate (10.7,) to 10 cells.
    *[Row(Grid, (shape, (1.0,) * len(shape)), "shape must hold integers")
      for shape in [(10.7,), (10.0,), (4, 4.5), ("10",)]],
    *[Row(Grid, ((4, 4), (1.0, 1.0), origin), "origin must be finite")
      for origin in [(nan, 0.0), (0.0, inf), (-inf, 1.0)]],
    # coordinate_arrays would overflow to inf; warnings are errors under pytest.
    *[Row(Grid, args, "last cell's coordinate .* overflows") for args in [
        ((64,), (1.7e308,), (0.0,)), ((4, 3), (1.0, 1e308), (0.0, 0.0)),
        ((2,), (1e308,), (1e308,))]],

    # --- fields: values
    Row(ScalarField, (G3, np.zeros(4)), "values size 4 does not match grid cells 3"),
    *[Row(ScalarField, (G3, values), "complex values for a real-valued field") for values in [
        np.array([1.0 + 2.0j, 0.0, 3.0]),
        np.zeros(3, dtype=np.complex128),  # a complex dtype, even with zero imaginary parts
        [1.0, 2.0j, 3.0]]],
    *[Row(ComplexField, (G3, np.zeros(3), t), "time_stamp must be finite")
      for t in [nan, inf, -inf]],

    # --- fields: CSV
    *[Row(read_field_csv, (io.StringIO(text),), match) for text, match in [
        ("idx,val\n0,1\n", "header"),
        ("index_axis0,value_re\n0,1.0,9.0\n", "line 2"),
        (ONE_AXIS + "0,1.0\n0,2.0\n2,3.0\n", "line 3: .*duplicate"),  # cell 1 never written
        (ONE_AXIS + "1,1.0\n0,2.0\n-1,3.0\n", "line 4: .*outside"),  # -1 would wrap to cell 2
        (ONE_AXIS + "0,1.0\n1,2.0\n7,3.0\n", "line 4: .*outside"),  # 3 rows hold at most 3 cells
        (TWO_AXES + "0,0,1.0\n1,0,2.0\n0,0,3.0\n1,1,4.0\n", "line 4: .*duplicate"),
        ("", "empty field CSV"),
        (ONE_AXIS, "field CSV holds no cells"),
        (ONE_AXIS + "\n\n", "field CSV holds no cells"),
        (TWO_AXES + "0,0,1.0\n1,1,2.0\n",
         re.escape("field CSV holds 2 cells, expected 4 for shape (2, 2)")),
        (ONE_AXIS + "0,1.0\n1.0,2.0\n", "^line 3: .*'1.0'"),
        (ONE_AXIS + "0,abc\n1,2.0\n", "^line 2: .*'abc'"),
        ("index_axis0,value_re,value_im\n0,1.0,2.0\n1,3.0,4.0j\n", "^line 3: .*'4.0j'")]],

    # --- eikonal: sources
    Row(SourceSpec, ([],), "source must contain at least one cell"),
    Row(SourceSpec.validate_against, (SourceSpec([(4, 0)]), Grid((4, 4), (1.0, 1.0))), "outside"),
    Row(SourceSpec.validate_against, (SourceSpec([(1,)]), Grid((4, 4), (1.0, 1.0))),
        "dimensionality"),
    # int() used to truncate (1.7, 2.2) to the cell (1, 2).
    *[Row(SourceSpec, ([cell],), "source cell must hold integers")
      for cell in [(1.7, 2.2), (1, 2.0), ("1", 2)]],

    # --- eikonal: speeds and spacings
    *[Row(solve_traveltime, (G8, SourceSpec([(0,)]), speed),
          "speed must be positive and finite everywhere")
      for speed in [0.0, -1.0, nan, inf, ScalarField(G8, with_value(8, 3, 0.0))]],
    # Finite and positive, but 1/v is inf, or finite with a square that the
    # march's float ** 2 cannot form; warnings are errors under pytest, so
    # an overflow warning would fail this too.
    *[Row(solve_traveltime, (G8, SourceSpec([(0,)]), speed),
          rf"speed {v_min!r} is so small that {overflows} overflows")
      for v_min, overflows in [(1e-320, "1/speed"), (1e-300, r"\(1/speed\)\*\*2")]
      for speed in [v_min, ScalarField(G8, with_value(8, 3, v_min))]],
    *[Row(solve_traveltime, (Grid(shape, spacing), SourceSpec([(0,) * len(shape)]), 1.0), match)
      for shape, spacing, match in [
          ((16,), (5e-324,), "1/spacing\\*\\*2 overflows"),
          ((16,), (1e-160,), "1/spacing\\*\\*2 overflows"),  # spacing**2 is subnormal
          ((4, 4), (1.0, 1e-300), "1/spacing\\*\\*2 overflows"),  # spacing**2 underflows to 0
          ((16,), (1e300,), "squared grid extent overflows"),
          ((1000,), (1e153,), "squared grid extent overflows"),  # beyond the seed ball
          ((2, 2), (1e154, 1e154), "squared grid extent overflows")]],  # the sum over the axes
    # Beyond the seed ball the march squares t_P ~ 1e251, which overflows
    # and leaves those cells at inf.
    Row(solve_traveltime, (Grid((16,), (1e150,)), SourceSpec([(3,)]), 1e-100),
        r"squared traveltimes overflow in the upwind update at spacing \(1e\+150,\) and "
        r"slowest speed 1e-100 m/s"),
    *[Row(partial(solve_traveltime, source_ball_radius=radius), (G8, SourceSpec([(0,)]), 1.0),
          match) for radius, match in [(-1.0, "source_ball_radius must be finite and >= 0"),
                                       (inf, "source_ball_radius must be finite"),
                                       (nan, "source_ball_radius must be finite")]],
    Row(solve_traveltime, (Grid((4, 4), (1.0, 1.0)), SourceSpec([(0, 0)]),
                           ScalarField(Grid((4, 5), (1.0, 1.0)), np.ones((4, 5)))),
        r"speed field shape \(4, 5\) does not match grid shape \(4, 4\)"),

    # --- eikonal: traveltime fields
    Row(TraveltimeField, (G4, np.array([0.0, 1.0, -0.5, 2.0]), 1.0),
        "t_P must be non-negative and finite"),
    *[Row(TraveltimeField, (G4, np.array([0.0, 1.0, bad, 2.0]), 1.0),
          "t_P must be non-negative and finite") for bad in [nan, inf]],
    Row(TraveltimeField, (G4, np.array([0.0, 1.0 + 1.0j, 0.5, 2.0]), 1.0),
        "complex values for a real-valued field"),
    *[Row(TraveltimeField, (G4, np.zeros(4), v_p), r"v_P must be > 0 \(inf allowed\), got")
      for v_p in [0.0, -1.0, nan, -inf]],
    *[Row(TraveltimeField, (G4, np.zeros(4), ScalarField(G4, [1.0, bad, 2.0, inf])),
          "v_P must be > 0") for bad in [0.0, -2.0, nan]],
    Row(TraveltimeField, (G4, np.zeros(4), ScalarField(Grid((5,), (1.0,)), np.ones(5))),
        r"^v_P shape \(5,\) does not match grid shape \(4,\)$"),

    # --- eikonal: lookups
    # A negative radius took the sources in, where the relative error is 0/0.
    *[Row(partial(cone_error, exclude_cells=exclude), (CONE, SourceSpec([(4,)])),
          "exclude_cells must be finite and >= 0") for exclude in [-1.0, -0.5, nan, inf]],
    Row(cone_error, (solve_traveltime(G12, SourceSpec([(6, 6)]), ScalarField(G12, np.ones(144))),
                     SourceSpec([(6, 6)])), "uniform speed"),
    Row(front_mask, (solve_traveltime(G4, SourceSpec([(0,)]), 1.0), nan),
        "front time must not be NaN"),

    # --- localtime
    Row(local_time, (TraveltimeField(G4, np.zeros(4), v_P=None), 1.0), "v_P is None"),
    # The front moves infinitely fast: t_P = 0 everywhere.
    *[Row(local_time, (TraveltimeField(G3, np.zeros(3), inf), t), "finite") for t in [nan, inf]],
    Row(local_time, (RAMP, inf), "global time must be finite"),
    *[Row(LocalTimeField, (G4, np.zeros(4), 1.0, tol), "front_tol") for tol in [-0.1, nan]],

    # --- schrodinger: problems
    Row(QuantumProblem, (G8, ScalarField(G8, np.zeros(8)), 0.0, 1.0), "mass"),
    Row(QuantumProblem, (G8, ScalarField(G8, np.zeros(8)), 1.0, -1.0), "dt"),
    Row(QuantumProblem, (G8, ScalarField(Grid((9,), (1.0,)), np.zeros(9)), 1.0, 1.0), "match"),
    *[Row(QuantumProblem, (g, ScalarField(g, np.zeros(shape)), 1.0, 1.0),
          rf"grid shape {re.escape(str(shape))} .* fewer than 3")
      for shape in [(2,), (2, 5), (5, 2), (4, 4, 2)] for g in [Grid(shape, (1.0,) * len(shape))]],
    # In natural units the entries of c*H = i*dt*H/2 are at most
    # dt/2 * (2/(2*mass*spacing**2) + max|U|) = 200 at the base values, which
    # build (test_problem_ignores_a_potential_on_the_walls_only); each value
    # alone overflows one, so the stepper would write NaN.
    *[Row(QuantumProblem, overflowing_operator(**{name: value}), "overflows") for name, value in [
        ("dt", 1e308), ("mass", 1e-308), ("spacing", 1e-160), ("potential", 1e308)]],
    # The volume overflows, underflows to 0, or is a subnormal whose
    # reciprocal overflows: no state of unit norm is finite on that grid.
    *[row for spacing in [(1e160, 1e160), (1e-110, 1e-110, 1e-110), (1e-155, 1e-155)]
      for grid, match in [(Grid((5,) * len(spacing), spacing),
                           r"cell volume .* of spacing .* not positive and finite")]
      for row in [Row(QuantumProblem, problem_args(grid, dt=1e-300), match),
                  Row(box_eigenmode, (grid, (1,) * len(spacing)), match)]],

    # --- schrodinger: initial states
    Row(propagate_classical, (ComplexField(G16, np.ones(16)), PROB, 1), "boundary"),
    Row(propagate_classical, (ComplexField(G16, np.zeros(16)), PROB, 1), "zero norm"),
    Row(propagate_classical, (ComplexField(G17, np.zeros(17)), PROB, 1), "grid"),
    Row(propagate_classical, (ComplexField(G16, np.zeros(16)), PROB, 1), "norm"),
    *[Row(propagate_classical, (*non_finite_state(shape, bad), n_steps), "non-finite")
      for shape in [(16,), (9, 8)] for bad in [nan, inf, complex(0.0, nan)] for n_steps in [1, 3]],
    *[Row(call, args, rf"^{name} shape \(17,\) does not match grid shape \(16,\)$")
      for name, call, args in [
          ("potential", QuantumProblem, (G16, ScalarField(G17, np.zeros(17)), 1.0, 1.0)),
          ("state", propagate_classical, (ComplexField(G17, np.zeros(17)), PROB, 1)),
          ("traveltime", evaluate_modified, (SOL, TraveltimeField(G17, np.zeros(17)), 0.0))]],
    *[Row(gaussian_packet, (G32, center, width, wavenumber), "center|width|wavenumber")
      for center, width, wavenumber in [
          ((0.5,), nan, 0.0),
          ((0.5,), inf, 0.0),
          ((0.5,), 0.0, 0.0),
          ((0.5,), -0.1, 0.0),
          ((nan,), 0.1, 0.0),
          ((inf,), 0.1, 0.0),
          ((0.5,), 0.1, nan),
          ((0.5,), 0.1, inf),
          ((0.5,), 0.1, -1.7e308),  # the carrier phase overflows to -inf
          ((0.5,), 0.1, 1.7e308),  # the carrier phase 2*pi*wavenumber*x overflows
          ((0.5, 0.5), 0.1, 0.0)]],  # a 2-D center on a 1-D grid
    Row(gaussian_packet, (Grid((16,), (1.0,)), (-1e3,), 1.0), "vanishes"),
    *[Row(box_eigenmode, (Grid((8, 8), (1.0, 1.0)), modes), re.escape(match))
      for modes, match in [
          ((1,), "1 mode numbers for a 2-d grid"),
          ((1, 2, 3), "3 mode numbers for a 2-d grid"),
          ((1, 0), "mode numbers must be >= 1"),
          ((2.7, 1), "mode numbers must hold integers, got (2.7, 1)"),
          ((2, 1.0), "mode numbers must hold integers, got (2, 1.0)")]],
    # exp(2 pi i (k x - nu t)) is NaN where an argument or the phase is not finite.
    *[Row(make_plane_wave, (G16, *args), match) for args, match in [
        ((nan, 1.0, 0.0), "nu must be finite"),
        ((1.0, inf, 0.0), "wavenumber must be finite"),
        ((1.0, 1.0, inf), "t must be finite"),
        ((1.0, 1.7e308, 0.0), r"phase 2\*pi\*\(wavenumber\*x - nu\*t\) overflows"),
        ((1e200, 1.0, 1e200), r"phase 2\*pi\*\(wavenumber\*x - nu\*t\) overflows")]],
    Row(make_plane_wave, (Grid((4,), (1e300,)), 1.0, 1e10, 0.0),
        r"phase 2\*pi\*\(wavenumber\*x - nu\*t\) overflows"),  # k*x alone overflows

    # --- schrodinger: runs and solutions
    *[Row(partial(propagate_classical, history_window=window), (PACKET, PROB, n_steps),
          re.escape(match)) for n_steps, window, match in [
        (-1, None, "n_steps must be non-negative"),
        (3, 1, "history_window must be at least 2"),
        (2.5, None, "n_steps must be an integer, got 2.5"),
        (np.float64(3.0), None, "n_steps must be an integer, got np.float64(3.0)"),
        (3, 2.5, "history_window must be an integer, got 2.5")]],
    *[Row(ClassicalSolution, (PROB, np.zeros(shape, dtype=complex), 1.0), "history shape")
      for shape in [(2, 17), (16,)]],
    *[Row(partial(ClassicalSolution, **{"initial_norm": 1.0, **changes}),
          (PROB, np.zeros((2, 16), dtype=complex)), match) for changes, match in [
        ({"initial_norm": 0.0}, "initial_norm must be positive and finite"),
        ({"initial_norm": inf}, "initial_norm must be positive and finite"),
        ({"first_step": -1}, "first_step must be >= 0"),
        ({"start_time": nan}, "start_time finite"),
        ({"first_step": 1.5}, "first_step must be an integer, got 1.5"),
        ({"first_step": np.float64(2.0)}, "first_step must be an integer, got np.float64")]],

    # --- schrodinger: retarded lookups
    Row(evaluate_modified, (propagate_classical(PACKET, PROB, 10, history_window=3),
                            TraveltimeField(G16, np.full(16, 5 * DT), 1.0), 10 * DT),
        "history_window", HistoryWindowError),
    Row(SOL.snapshot_at, (2.5 * DT,), "is not a retained snapshot time", HistoryWindowError),
    # (t - start_time) / dt overflows; warnings are errors under pytest.
    *[Row(call, (*args, 1.7e308), "retained window", HistoryWindowError)
      for call, args in [(SOL.snapshot_at, ()), (evaluate_modified, (SOL, TT16)),
                         (difference_estimate, (SOL, TT16))]],
    *[Row(call, (*args, t), "finite")
      for t in [nan, inf, -inf]
      for call, args in [(SOL.snapshot_at, ()), (evaluate_modified, (SOL, TT16)),
                         (difference_estimate, (SOL, TT16))]],
    Row(difference_estimate, (SOL, TT16, 4 * DT), "endpoint", HistoryWindowError),
    Row(difference_estimate, (SOL, TT16, 2.4 * DT), "snapshot", HistoryWindowError),

    # --- dispersion
    Row(FreeParticle, (0.0, 1.0), "mass"),
    Row(FreeParticle, (1.0, -1.0), "speed"),
    Row(FreeParticle.electron_from_voltage, (-5.0,), "voltage"),
    # nu overflows; so does k at 1.7e308
    *[Row(FreeParticle, (CODATA2018.m_e, speed),
          re.escape(f"overflows at speed {speed!r} m/s")) for speed in [1e295, 1.7e308]],
    *[Row(FreeParticle.electron_from_voltage, (voltage,), "voltage must be positive and finite")
      for voltage in [nan, inf, 0.0, -1.0]],
    # synthesize_records passes numpy scalars, whose arithmetic warns on
    # overflow; warnings are errors under pytest.  At 1e295 V the speed is
    # finite but nu = m v^2 / 2h is not.
    *[Row(FreeParticle.electron_from_voltage, (voltage,),
          re.escape(f"overflows at voltage {float(voltage)!r} V") + "$")
      for voltage in [1e300, np.float64(1e300), 1e295]],
    *[Row(WavePhaseDecomposition, args, match) for args, match in [
        ((1.0, 1.0, -0.1, V_P), "alpha"),
        ((1.0, 1.0, 3.5, V_P), "alpha"),
        ((1.0, 1.0, 0.0, 0.0), "v_P"),
        ((1.0, 1.0, 0.0, -2.0), "v_P"),
        ((-1.0, 1.0, 0.0, V_P), "nu"),
        ((1.0, -1.0, 0.0, V_P), "k_classical")]],
    Row(wavelength_regime, (WavePhaseDecomposition(5.0, 0.0, 1.0, V_P),), "k_classical"),
    Row(modified_wavenumber_free, (FreeParticle.electron_from_voltage(54.0), 1e-300),
        "k_l overflows at speed .* and v_P = 1e-300 m/s"),
    Row(modified_phase_velocity, (0.0, V_P), "v_ph"),
    Row(modified_group_velocity, (-1.0, V_P), "v_gr"),
    Row(modified_phase_velocity, (1.0, 0.0), "v_P"),

    # --- fit
    Row(DiffractionRecord, (0.0, 1e-10), "voltage"),
    Row(DiffractionRecord, (54.0, -1e-10), "wavelength"),
    Row(fit_vp, ([DiffractionRecord(54.0, 1.67e-10)],), "at least 2"),
    *[Row(fit_vp, (synthesize_records(0, v_p, voltages=voltages),), match)
      for v_p, voltages, match in [
          # sum(nu**2) underflows to 0, or sum(nu * r) overflows in fsum.
          (V_P, (1e-200, 2e-200), "sums over the records overflow or underflow"),
          (V_P, (1e139, 1e140), "sums over the records overflow or underflow"),
          # The classical residuals, about 1e160, square past the float range.
          (1e-150, (30.0, 600.0), "mean squared wavenumber residual overflows")]],
    Row(FitResult, (1e8, 2.0, 1.0, (0.0,)), "nests"),
    *[Row(partial(FitResult, **{"v_p_fitted": 1e8, "variance_modified": 1.0,
                                "variance_classical": 2.0, "residuals": (0.0,), name: value}),
          (), match) for name, value, match in [
        ("v_p_fitted", nan, "v_p_fitted must be positive"),
        ("v_p_fitted", 0.0, "v_p_fitted must be positive"),
        ("variance_modified", nan, "variance_modified must be finite"),
        ("variance_classical", inf, "variance_classical must be finite")]],
    Row(model_curves, ([], V_P), "non-empty"),
    Row(model_curves, ([1.0], 0.0), "v_P"),
    Row(model_curves, ([-1.0], V_P), "non-negative"),
    Row(synthesize_records, (1, V_P), "at least 2"),
    Row(partial(synthesize_records, voltage_range=(10.0, 5.0)), (5, V_P), "voltage_range"),
    Row(synthesize_records, (5, -1.0), "v_p_true"),
    *[Row(partial(synthesize_records, noise_relative=noise), (5, V_P), match)
      for noise, match in [(-0.1, "noise_relative"), (nan, "noise_relative must be non-negative"),
                           (inf, "noise_relative must be non-negative")]],
    Row(partial(synthesize_records, voltages=[54.0]), (0, V_P), "at least 2 voltages, got 1"),
    # 1 + 10 z <= 0 for a standard normal z <= -0.1, which seed 0 draws.
    Row(partial(synthesize_records, noise_relative=10.0, seed=0), (5, V_P),
        "noise drove a wavenumber non-positive"),
    Row(read_records_csv, (io.StringIO("# only comments\n"),), "no header"),
]

EXEMPT = {
    "natural_units": "takes no argument",
    "l2_norm_squared": "takes a field, which its constructor checked",
    "derive_kinematics": "takes a DiffractionRecord, which its constructor checked",
    "modified_wavenumber_general": "takes a WavePhaseDecomposition, which its constructor checked",
    "write_field_csv": "writes a checked field; tests/test_file_boundary.py covers its target",
    "write_localtime_csv": "writes a checked field; tests/test_file_boundary.py covers its target",
    "write_fit_json": "writes a checked FitResult; tests/test_file_boundary.py covers its target",
}


def row_ids():
    seen = {}
    for row in BOUNDARY_ERRORS:
        name = getattr(row.call, "func", row.call).__qualname__
        seen[name] = seen.get(name, -1) + 1
        yield f"{name}-{seen[name]}"


@pytest.mark.parametrize("row", BOUNDARY_ERRORS, ids=list(row_ids()))
def test_boundary_rejects_its_input(row):
    assert row.match, "every row names a fragment of its message"
    with pytest.raises(row.error, match=row.match):
        row.call(*row.args)


def test_every_public_callable_has_a_row():
    called = {getattr(row.call, "func", row.call) for row in BOUNDARY_ERRORS}
    public = {name: getattr(qfront, name) for name in qfront.__all__}
    public = {name: obj for name, obj in public.items() if callable(obj) and not (
        isinstance(obj, type) and issubclass(obj, (Exception, enum.Enum)))}
    assert len(public) == 38
    assert EXEMPT.keys() <= public.keys()
    assert [name for name, obj in public.items() if obj not in called and name not in EXEMPT] == []
