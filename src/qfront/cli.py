"""Command-line front end: solve, propagate, tabulate, fit, compare.

All quantities cross this boundary in SI units (meters, seconds, kg, Hz,
volts); the dispersion table adds a wavelength display column in angstrom.
Exit codes: 0 success, 1 runtime failure, 2 usage error.  argparse checks
each flag value by its type and the either/or flags by required groups,
and prints "argument --flag: ...".  A value found bad later raises
ValueError, which _flag prefixes with the flags at fault (a rule that
spans flags names them itself) and main prints as "error: ...".  Every
output file goes through the package writers, which write a temporary
sibling and rename it into place, so failures leave no partial files
behind.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
from importlib import resources
from typing import TYPE_CHECKING, Callable, Sequence

from .constants import CODATA2018
from .dispersion import (
    FreeParticle,
    modified_group_velocity,
    modified_phase_velocity,
    modified_wavenumber_free,
)
from .fit import (
    _design_arrays,
    _mean_square,
    _residuals,
    derive_kinematics,
    fit_vp,
    model_curves,
    read_records_csv,
    synthesize_records,
    write_fit_json,
    RECORDS_CSV_HEADER,
)
from .textfile import _text_file, _write_json

# The grid commands import numpy, scipy and the modules built on them when
# they run, so dispersion, fit and compare load the stdlib alone.
if TYPE_CHECKING:
    from .fields import ComplexField, Grid

__all__ = ["main"]


def _numbers(kind: type) -> Callable[[str], tuple]:
    """argparse type: comma-separated kind (int or float) values, e.g. 201,201."""
    def parse(text: str) -> tuple:
        return tuple(kind(p) for p in text.split(","))

    # argparse reports a ValueError as "invalid <__name__> value: '<text>'".
    parse.__name__ = f"comma-separated {kind.__name__}"
    return parse


def _number(kind: type, rule: str, ok: Callable[[float], bool]) -> Callable[[str], float]:
    """argparse type: text as kind (int or float) where ok(value) holds;
    otherwise, and for text that is no kind, "must be {rule}"."""
    def parse(text: str) -> float:
        try:
            value = kind(text)
        except ValueError:
            value = math.nan  # ok() fails on NaN
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got '{text}'")
        return value

    return parse


# --vp in m/s: 0, negatives and NaN fail and inf is the classical limit.
_FRONT_SPEED = _number(float, "a number > 0", lambda v: v > 0.0)
_POSITIVE_FINITE = _number(float, "positive and finite", lambda v: 0.0 < v < math.inf)
_FINITE = _number(float, "finite", math.isfinite)
_COUNT = _number(int, "an integer >= 0", lambda v: v >= 0)


@contextlib.contextmanager
def _flag(names: str):
    """Prefix a ValueError raised in the block with names, the flags at fault."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{names}: {exc}") from None


def _build_grid(args: argparse.Namespace) -> Grid:
    from .fields import Grid

    with _flag("--shape/--spacing/--origin"):
        return Grid(args.shape, args.spacing, args.origin)


def _require_input_path(path: str) -> None:
    if not os.path.exists(path):
        raise ValueError(f"no such file: {path}")


def _read_grid_field(path: str, grid: Grid, build: Callable):
    """build(grid, values), e.g. ScalarField, on the values of the field CSV
    at path, which must have the shape of grid."""
    from .fields import read_field_csv

    _require_input_path(path)
    raw = read_field_csv(path)
    if raw.grid.shape != grid.shape:
        raise ValueError(f"file shape {raw.grid.shape} does not match --shape {grid.shape}")
    return build(grid, raw.values)


# --- eikonal ----------------------------------------------------------------

def cmd_eikonal(args: argparse.Namespace) -> int:
    from .eikonal import SourceSpec, _require_spacing_in_range, cone_error, solve_traveltime
    from .fields import ScalarField, write_field_csv

    grid = _build_grid(args)
    with _flag("--shape/--spacing/--origin"):
        _require_spacing_in_range(grid)
    with _flag("--source"):
        source = SourceSpec(args.source)
        source.validate_against(grid)

    # Grid, source and the radius are checked, so only the speed is left to fail.
    with _flag("--speed" if args.speed_csv is None else "--speed-csv"):
        speed = args.speed
        if args.speed_csv is not None:
            speed = _read_grid_field(args.speed_csv, grid, ScalarField)
        tt = solve_traveltime(
            grid, source, speed, source_ball_radius=args.source_ball_radius
        )
    # The check runs before the write, so that its usage error writes nothing.
    with _flag("--verify-analytic"):
        err = args.verify_analytic and cone_error(tt, source, exclude_cells=5.0)
    write_field_csv(ScalarField(grid, tt.t_P), args.out)
    print(f"wrote {args.out}")
    print(f"t_P range: [{tt.t_P.min():.6e}, {tt.max_traveltime():.6e}] s")
    if args.verify_analytic:
        print(f"max relative error vs analytic cone (beyond 5 cells): {err:.4%}")
    return 0


# --- propagate --------------------------------------------------------------

def _initial_state(args: argparse.Namespace, grid: Grid) -> ComplexField:
    from .fields import ComplexField
    from .schrodinger import _initial_norm, gaussian_packet

    if args.initial is not None:
        with _flag("--initial"):
            state = _read_grid_field(args.initial, grid, ComplexField)
            _initial_norm(state, grid)
        return state
    carrier = 0.0 if args.gaussian_carrier is None else args.gaussian_carrier
    with _flag("--gaussian-center/--gaussian-width/--gaussian-carrier"):
        return gaussian_packet(grid, args.gaussian_center, args.gaussian_width, carrier)


def cmd_propagate(args: argparse.Namespace) -> int:
    import numpy as np

    from .eikonal import TraveltimeField
    from .fields import ComplexField, ScalarField, l2_norm_squared, write_field_csv
    from .localtime import local_time, write_localtime_csv
    from .schrodinger import (QuantumProblem, _difference, _require_finite, _retarded,
                              _step_weights, propagate_classical)

    a8 = args.mode == "compare-a8"
    if args.n_steps < 2 * a8:
        raise ValueError(f"--n-steps: must be >= {2 * a8} in mode {args.mode}, got {args.n_steps}")
    grid = _build_grid(args)
    if args.mode == "classical":
        if args.traveltime is not None:
            raise ValueError("--traveltime is not used in mode classical")
    elif args.traveltime is None:
        raise ValueError(f"--traveltime is required for mode {args.mode}")
    if args.localtime_out is not None:
        if args.mode != "modified":
            raise ValueError(f"--localtime-out needs mode modified, not {args.mode}")
        if args.vp is None:
            raise ValueError("--localtime-out needs the front speed --vp METERS_PER_SECOND")
    if args.initial is None and args.gaussian_width is None:
        raise ValueError("--gaussian-center: needs --gaussian-width")
    for flag, value in (("--gaussian-width", args.gaussian_width),
                        ("--gaussian-carrier", args.gaussian_carrier)):
        if args.initial is not None and value is not None:
            raise ValueError(f"{flag}: not allowed with --initial")
    if args.vp is not None and args.traveltime is None:
        raise ValueError("--vp: not allowed without --traveltime")

    if args.potential is not None:
        with _flag("--potential"):
            potential = _read_grid_field(args.potential, grid, ScalarField)
            _require_finite("potential", potential.values)
    else:
        potential = ScalarField(grid, np.zeros(grid.shape))

    # QuantumProblem checks shape and potential, and that its CN operator is finite.
    with _flag("--shape/--spacing/--potential/--mass/--dt"):
        problem = QuantumProblem(grid, potential, args.mass, args.dt)
    initial = _initial_state(args, grid)

    tt = None
    if args.traveltime is not None:
        with _flag("--traveltime"):
            tt = _read_grid_field(args.traveltime, grid,
                                  lambda g, t_P: TraveltimeField(g, t_P, args.vp))

    # compare-a8 differentiates across the evaluation step, so it evaluates
    # at a step with a predecessor and, by default, at the last with a successor.
    last_step = args.n_steps - a8
    eval_time = last_step * args.dt if args.eval_time is None else args.eval_time
    step, weight = _step_weights(eval_time, 0.0, args.dt)
    exact = args.mode != "modified"
    if not (a8 <= step and step + (weight > 0) <= last_step and not (exact and weight)):
        # %.15g, so that a bound passed back as --eval-time snaps to its step.
        raise ValueError(
            f"--eval-time: must be a {'step ' * exact}time in [{a8 * args.dt:.15g}, "
            f"{last_step * args.dt:.15g}] s in mode {args.mode}, got {eval_time}"
        )
    step = int(step)

    # The outputs read whole states around the evaluation step (states) and,
    # per cell, the two states around its local time (reads), blended by
    # _retarded.  The step hook copies them as the run makes them, so the run
    # keeps the minimal window of two states.  The manifest describes the
    # states from the first one an output reads, that of eval_time or of
    # eval_time - max t_P (one less in compare-a8), through the last step,
    # and at least the two the run keeps.
    states = dict.fromkeys(range(step - a8, step + a8 + 1) if exact else ())
    first, reads = step, []
    if tt is not None:
        first = int(_step_weights(max(eval_time - tt.max_traveltime(), 0.0), 0.0, args.dt)[0]) - a8
        # compare-a8 evaluates at its step's own time, as difference_estimate
        # does.  Unreached cells read step 0, and _retarded zeroes them.
        theta = ((step * args.dt if a8 else eval_time) - tt.t_P).reshape(-1)
        reached = theta >= 0.0
        lower, w = _step_weights(np.where(reached, theta, 0.0), 0.0, args.dt)
        # Each read's cells sorted by step: those of step k are
        # cells[bounds[k]:bounds[k + 1]].
        for steps in (lower, lower + (w > 0.0)):
            cells = np.argsort(steps)
            reads.append((np.zeros(grid.n_cells, dtype=np.complex128), cells,
                          np.searchsorted(steps[cells], np.arange(args.n_steps + 2))))
    first = max(min(first, args.n_steps - 1), 0)
    norms: list[float] = []
    outputs: list[str] = []

    def emit(field, suffix: str) -> None:
        path = f"{args.out_prefix}_{suffix}.csv"
        write_field_csv(field, path)
        outputs.append(path)

    def on_step(k: int, values) -> None:
        state = ComplexField(grid, values)
        if args.save_every and k % args.save_every == 0:
            emit(state, f"step{k:06d}")
        if k in states:
            states[k] = state.values
        for read, cells, bounds in reads:
            at_k = cells[bounds[k]:bounds[k + 1]]
            read[at_k] = state.values.reshape(-1)[at_k]
        if k >= first:
            norms.append(l2_norm_squared(state))

    initial_norm = propagate_classical(initial, problem, args.n_steps, history_window=2,
                                       on_step=on_step).initial_norm
    if args.mode == "classical":
        emit(ComplexField(grid, states[step]), "state")
    else:
        modified = _retarded(*(read for read, *_ in reads), w, reached).reshape(grid.shape)
        if args.mode == "modified":
            emit(ComplexField(grid, modified), "state")
            if args.localtime_out is not None:
                write_localtime_csv(local_time(tt, eval_time), args.localtime_out)
                outputs.append(args.localtime_out)
        else:
            actual, predicted = _difference(*states.values(), modified, tt.t_P, args.dt)
            emit(ScalarField(grid, actual), "actual")
            emit(ScalarField(grid, predicted), "predicted")

    manifest_path = f"{args.out_prefix}_manifest.json"
    manifest = {
        "mode": args.mode,
        "dt": args.dt,
        "n_steps": args.n_steps,
        "grid": {
            "shape": list(grid.shape),
            "spacing": list(grid.spacing),
            "origin": list(grid.origin),
        },
        "mass": args.mass,
        "eval_time": eval_time,
        "initial_norm": initial_norm,
        "final_norm": norms[-1],
        "max_norm_drift": max(abs(n - initial_norm) for n in norms) / initial_norm,
        "retained_snapshots": args.n_steps + 1 - first,
        "retained_time_range": [k * args.dt for k in (first, args.n_steps)],
        "outputs": outputs,
    }
    _write_json(manifest, manifest_path)
    print(f"wrote {manifest_path}")
    for path in outputs:
        print(f"wrote {path}")
    print(f"norm drift over retained states: {manifest['max_norm_drift']:.3e}")
    return 0


# --- dispersion -------------------------------------------------------------

_DISPERSION_COLUMNS = (
    "V_volts",
    "v_m_per_s",
    "nu_Hz",
    "k_inv_m",
    "k_l_inv_m",
    "lambda_m",
    "lambda_l_m",
    "lambda_l_angstrom",
    "v_ph_m_per_s",
    "v_ph_l_m_per_s",
    "v_gr_m_per_s",
    "v_gr_l_m_per_s",
)


def _has_wavelength(particle: FreeParticle) -> FreeParticle:
    """particle, whose wavenumber must not underflow to 0 (the table lists 1/k)."""
    if particle.k == 0.0:
        raise ValueError(f"the wavenumber underflows to 0 at speed {particle.speed!r} m/s")
    return particle


def _fixed(value: float, decimals: int) -> str:
    """value to the given decimals, or as %.6e where that would not fit 14
    characters, the width of a dispersion table column."""
    text = f"{value:.{decimals}f}"
    return text if len(text) <= 14 else f"{value:.6e}"


def cmd_dispersion(args: argparse.Namespace) -> int:
    v_p = math.inf if args.classical else args.vp
    if not args.voltage and not args.speed:
        raise ValueError("--voltage/--speed: provide at least one --voltage or --speed")

    with _flag("--voltage"):
        particles = [(f"{v:g}", _has_wavelength(FreeParticle.electron_from_voltage(v)))
                     for v in args.voltage or ()]
    with _flag("--speed"):
        particles += [("-", _has_wavelength(FreeParticle(CODATA2018.m_e, v)))
                      for v in args.speed or ()]

    with _flag("--vp"):
        k_ls = [modified_wavenumber_free(p, v_p) for _, p in particles]
    print(" ".join(f"{c:>14s}" for c in _DISPERSION_COLUMNS))
    for (label, p), k_l in zip(particles, k_ls):
        row = (
            label,
            f"{p.speed:.6e}",
            f"{p.nu:.6e}",
            f"{p.k:.6e}",
            f"{k_l:.6e}",
            f"{1.0 / p.k:.6e}",
            f"{1.0 / k_l:.6e}",
            _fixed(1e10 / k_l, 4),
            f"{p.phase_velocity:.6e}",
            f"{modified_phase_velocity(p.phase_velocity, v_p):.6e}",
            f"{p.group_velocity:.6e}",
            f"{modified_group_velocity(p.group_velocity, v_p):.6e}",
        )
        print(" ".join(f"{c:>14s}" for c in row))
    return 0


# --- fit and compare --------------------------------------------------------

_GENERATE_KEYS = ("vP", "n", "seed", "noise", "vmin", "vmax")


def _generated_records(pairs: Sequence[str]):
    params = {"vP": 1.3e8, "n": 20, "seed": 0, "noise": 0.0,
              "vmin": 30.0, "vmax": 600.0}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or key not in _GENERATE_KEYS:
            raise ValueError(
                f"expected key=value with key in "
                f"{'/'.join(_GENERATE_KEYS)}, got '{pair}'"
            )
        params[key] = float(value) if key != "seed" and key != "n" else int(value)
    return synthesize_records(
        params["n"],
        params["vP"],
        voltage_range=(params["vmin"], params["vmax"]),
        noise_relative=params["noise"],
        seed=params["seed"],
    )


def _fit_records(args: argparse.Namespace):
    """The records of the given flag and their fit_vp, errors named by it."""
    with _flag("--generate" if args.generate else
               "--use-bundled" if args.use_bundled else "--data"):
        if args.generate:
            records = _generated_records(args.generate)
        elif args.use_bundled:
            path = resources.files("qfront.data") / "davisson_germer.csv"
            with resources.as_file(path) as concrete:
                records = read_records_csv(concrete)
        else:
            _require_input_path(args.data)
            records = read_records_csv(args.data)
        return records, fit_vp(records)


def _write_layers(path: str, records, v_P: float, curve_points: int) -> None:
    """Layered CSV at path: the records as points, then curves A and B, the
    latter at v_P."""
    rows = ["layer,v_m_per_s,k_inv_m"]
    vs = []
    for rec in records:
        v, k_exp = derive_kinematics(rec)
        vs.append(v)
        rows.append(f"points,{v:.17g},{k_exp:.17g}")
    stop = 1.05 * max(vs)
    step = stop / (curve_points - 1)  # the points of np.linspace(0, stop, curve_points)
    curves = model_curves([i * step for i in range(curve_points - 1)] + [stop], v_P)
    rows.extend(f"curveA,{v:.17g},{k_cl:.17g}" for v, k_cl, _ in curves)
    rows.extend(f"curveB,{v:.17g},{k_mod:.17g}" for v, _, k_mod in curves)
    with _text_file(path, "w") as fh:
        fh.write("\n".join(rows) + "\n")


def cmd_fit(args: argparse.Namespace) -> int:
    if args.data_out and not args.generate:
        raise ValueError("--data-out needs --generate")
    records, result = _fit_records(args)
    if args.curves and result.clamped_to_classical:
        raise ValueError(
            "--curves: fit clamped to the classical limit, curve B "
            "coincides with curve A; nothing informative to write"
        )
    if args.data_out:
        with _text_file(args.data_out, "w") as fh:
            fh.write(RECORDS_CSV_HEADER + "\n")
            for rec in records:
                fh.write(f"{rec.voltage:.17g},{rec.wavelength_exp:.17g}\n")
        print(f"wrote {args.data_out}", file=sys.stderr)
    write_fit_json(result, sys.stdout)
    if args.out:
        write_fit_json(result, args.out)
        print(f"wrote {args.out}", file=sys.stderr)
    if args.curves:
        _write_layers(args.curves, records, result.v_p_fitted, args.curve_points)
        print(f"wrote {args.curves}", file=sys.stderr)
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    records, result = _fit_records(args)
    if args.vp is None and result.clamped_to_classical:
        raise ValueError(
            "--vp: fit clamped to the classical limit; pass a finite --vp to "
            "draw curve B anyway"
        )
    # The curves cannot overflow where the fit's variances and this one are finite.
    v_p, variance = result.v_p_fitted, result.variance_modified
    if args.vp is not None:
        v_p = args.vp
        with _flag("--vp"):
            variance = _mean_square(_residuals(*_design_arrays(records), 1.0 / v_p))
    _write_layers(args.out, records, v_p, args.curve_points)
    print(f"wrote {args.out}")
    # A model that fits exactly, or nearly, has no finite ratio to print.
    ratio = result.variance_classical / variance if variance else math.inf
    ratio_text = _fixed(ratio, 3) if ratio < math.inf else f"> {sys.float_info.max:.5e}"
    print(
        f"v_P = {v_p:.5e} m/s; variance modified = "
        f"{variance:.5e} 1/m^2, classical = "
        f"{result.variance_classical:.5e} 1/m^2 (ratio {ratio_text})"
    )
    return 0


# --- parser -----------------------------------------------------------------

def _add_grid_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--shape", type=_numbers(int), required=True,
                   help="comma-separated cells per axis, e.g. 201,201")
    p.add_argument("--spacing", type=_numbers(float), required=True,
                   help="comma-separated cell spacing per axis in meters")
    p.add_argument("--origin", type=_numbers(float), default=None,
                   help="comma-separated axis origins in meters (default zeros)")


def _add_records_flags(p: argparse.ArgumentParser) -> None:
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--data", default=None,
                        help="records CSV: voltage_volts,wavelength_meters")
    source.add_argument("--use-bundled", action="store_true",
                        help="use the bundled synthetic Davisson-Germer dataset")
    source.add_argument("--generate", nargs="+", metavar="KEY=VALUE", default=None,
                        help="use synthetic records; keys: vP (m/s), n, seed, "
                             "noise (relative, in k), vmin/vmax (volts)")
    # A curve needs two ends.
    p.add_argument("--curve-points", default=200,
                   type=_number(int, "an integer >= 2", lambda v: v >= 2),
                   help="samples per model curve")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfront",
        description=(
            "Perturbation-front toolkit: traveltime solving, retarded "
            "quantum propagation, modified dispersion tables, and "
            "front-speed fits. All inputs and outputs are SI."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser(
        "eikonal", help="solve |grad t_P| = 1/v_P by fast marching"
    )
    _add_grid_flags(p)
    p.add_argument("--source", type=_numbers(int), action="append", required=True,
                   help="source cell indices, e.g. 100,100 (repeatable)")
    speed = p.add_mutually_exclusive_group(required=True)
    speed.add_argument("--speed", type=_POSITIVE_FINITE, default=None,
                       help="uniform front speed v_P in m/s")
    speed.add_argument("--speed-csv", default=None,
                       help="CSV field of per-cell front speeds in m/s")
    p.add_argument("--source-ball-radius", default=None,
                   type=_number(float, "finite and >= 0", lambda v: 0.0 <= v < math.inf),
                   help="physical radius (m) of the exact-distance seed ball; "
                        "default 8*max(spacing) for uniform speed, 0 otherwise")
    p.add_argument("--out", required=True, help="output traveltime CSV path")
    p.add_argument("--verify-analytic", action="store_true",
                   help="report max relative error against the analytic cone "
                        "r/v_P, r the distance to the nearest source "
                        "(uniform speed)")
    p.set_defaults(func=cmd_eikonal)

    p = sub.add_parser(
        "propagate", help="Crank-Nicolson propagation, optionally retarded"
    )
    _add_grid_flags(p)
    p.add_argument("--mode", choices=("classical", "modified", "compare-a8"),
                   default="classical",
                   help="classical snapshot, retarded evaluation, or "
                        "actual-vs-first-order retardation difference")
    initial = p.add_mutually_exclusive_group(required=True)
    initial.add_argument("--initial", default=None,
                         help="initial state CSV (complex field)")
    initial.add_argument("--gaussian-center", type=_numbers(float), default=None,
                         help="comma-separated packet center in meters "
                              "(needs --gaussian-width)")
    p.add_argument("--gaussian-width", type=_POSITIVE_FINITE, default=None,
                   help="packet standard deviation in meters")
    p.add_argument("--gaussian-carrier", type=_FINITE, default=None,
                   help="carrier wavenumber along axis 0 in cycles/m (default 0)")
    p.add_argument("--potential", default=None,
                   help="potential CSV in joules (default: zero)")
    p.add_argument("--mass", type=_POSITIVE_FINITE, default=CODATA2018.m_e,
                   help="particle mass in kg (default: electron)")
    p.add_argument("--dt", type=_POSITIVE_FINITE, required=True, help="time step in s")
    p.add_argument("--n-steps", type=_COUNT, required=True,
                   help="number of CN steps")
    p.add_argument("--traveltime", default=None,
                   help="traveltime CSV t_P (required for modified/compare-a8)")
    p.add_argument("--vp", type=_FRONT_SPEED, default=None,
                   help="front speed in m/s recorded with the traveltime field "
                        "(needs --traveltime; required with --localtime-out)")
    p.add_argument("--eval-time", type=_FINITE, default=None,
                   help="evaluation time in s (default: final time; in mode "
                        "compare-a8, one step earlier, the last step with a "
                        "successor)")
    p.add_argument("--save-every", type=_COUNT, default=0,
                   help="also write every k-th step as it is made (0 = none)")
    p.add_argument("--localtime-out", default=None,
                   help="also write theta/class CSV at the evaluation time "
                        "(mode modified)")
    p.add_argument("--out-prefix", required=True,
                   help="prefix for output CSVs and the JSON manifest")
    p.set_defaults(func=cmd_propagate)

    p = sub.add_parser(
        "dispersion", help="modified de Broglie table for free electrons"
    )
    p.add_argument("--voltage", type=_POSITIVE_FINITE, action="append",
                   help="accelerating voltage in volts (repeatable)")
    p.add_argument("--speed", type=_POSITIVE_FINITE, action="append",
                   help="electron speed in m/s (repeatable)")
    speed_choice = p.add_mutually_exclusive_group(required=True)
    speed_choice.add_argument("--vp", type=_FRONT_SPEED, default=None,
                              help="front speed v_P in m/s")
    speed_choice.add_argument("--classical", action="store_true",
                              help="classical limit 1/v_P = 0")
    p.set_defaults(func=cmd_dispersion)

    p = sub.add_parser(
        "fit", help="least-squares fit of v_P to diffraction records"
    )
    _add_records_flags(p)
    p.add_argument("--data-out", default=None,
                   help="with --generate: also write the records CSV here")
    p.add_argument("--out", default=None, help="write the result JSON here")
    p.add_argument("--curves", default=None,
                   help="write layered points/curveA/curveB CSV here")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser(
        "compare", help="one CSV with data points and both model curves"
    )
    _add_records_flags(p)
    p.add_argument("--vp", type=_POSITIVE_FINITE, default=None,
                   help="draw curve B at this v_P (m/s) instead of the fitted one")
    p.add_argument("--out", required=True, help="output layered CSV path")
    p.set_defaults(func=cmd_compare)

    return parser


def _stepper_errors() -> tuple:
    """ConvergenceError once a command has imported the stepper; before that
    nothing can have raised it."""
    stepper = sys.modules.get(f"{__package__}.schrodinger")
    return (stepper.ConvergenceError,) if stepper else ()


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _stepper_errors() as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
