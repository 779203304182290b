"""Command-line front end: solve, propagate, tabulate, fit, compare.

All quantities cross this boundary in SI units (meters, seconds, kg, Hz,
volts); the dispersion table adds a wavelength display column in angstrom.
Exit codes: 0 success, 1 runtime failure, 2 usage error.  Output files are
written to a temporary sibling and renamed into place, so failures leave
no partial files behind.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import tempfile
from importlib import resources
from typing import Callable, Sequence

import numpy as np

from .constants import CODATA2018
from .dispersion import (
    FreeParticle,
    modified_group_velocity,
    modified_phase_velocity,
    modified_wavenumber_free,
)
from .eikonal import SourceSpec, TraveltimeField, cone_error, solve_traveltime
from .fields import (
    ComplexField,
    Grid,
    ScalarField,
    l2_norm_squared,
    read_field_csv,
    write_field_csv,
)
from .fit import (
    derive_kinematics,
    fit_result_to_dict,
    fit_vp,
    model_curves,
    read_records_csv,
    synthesize_records,
    write_fit_json,
    RECORDS_CSV_HEADER,
)
from .localtime import local_time, write_localtime_csv
from .schrodinger import (
    ConvergenceError,
    HistoryWindowError,
    QuantumProblem,
    difference_estimate,
    evaluate_modified,
    gaussian_packet,
    propagate_classical,
)

__all__ = ["main"]


class UsageError(Exception):
    """Bad arguments or malformed input; maps to exit code 2."""


def _parse_floats(text: str, flag: str) -> tuple[float, ...]:
    try:
        return tuple(float(p) for p in text.split(","))
    except ValueError:
        raise UsageError(f"{flag}: expected comma-separated numbers, got '{text}'")


def _parse_ints(text: str, flag: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise UsageError(f"{flag}: expected comma-separated integers, got '{text}'")


def _front_speed(text: str) -> float:
    """--vp in m/s: a number > 0, so 0, negatives and NaN fail and inf passes."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not value > 0.0:
        raise argparse.ArgumentTypeError(f"must be a number > 0, got '{text}'")
    return value


def _build_grid(args: argparse.Namespace) -> Grid:
    shape = _parse_ints(args.shape, "--shape")
    spacing = _parse_floats(args.spacing, "--spacing")
    origin = _parse_floats(args.origin, "--origin") if args.origin else None
    try:
        return Grid(shape, spacing, origin)
    except ValueError as exc:
        raise UsageError(f"--shape/--spacing/--origin: {exc}")


def _require_input_path(path: str, flag: str) -> str:
    if not os.path.exists(path):
        raise UsageError(f"{flag}: no such file: {path}")
    return path


@contextlib.contextmanager
def _atomic_write(path: str):
    """Open a temp file beside path; rename over path only on success."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _write_field(field, path: str) -> None:
    with _atomic_write(path) as fh:
        write_field_csv(field, fh)


def _read_grid_field(path: str, flag: str, grid: Grid) -> np.ndarray:
    """Values of the field CSV at path, read on the grid of --shape."""
    _require_input_path(path, flag)
    raw = read_field_csv(path, spacing=grid.spacing, origin=grid.origin)
    if raw.grid.shape != grid.shape:
        raise UsageError(
            f"{flag}: file shape {raw.grid.shape} does not match "
            f"--shape {grid.shape}"
        )
    return raw.values


# --- eikonal ----------------------------------------------------------------

def cmd_eikonal(args: argparse.Namespace) -> int:
    grid = _build_grid(args)
    sources = [_parse_ints(s, "--source") for s in args.source]
    try:
        source = SourceSpec(sources)
        source.validate_against(grid)
    except ValueError as exc:
        raise UsageError(f"--source: {exc}")

    if args.speed_csv is not None:
        values = _read_grid_field(args.speed_csv, "--speed-csv", grid)
        speed: float | ScalarField = ScalarField(grid, values)
        if np.any(values <= 0.0):
            raise UsageError("--speed-csv: speeds must be positive everywhere")
    else:
        if args.speed is None:
            raise UsageError("provide --speed METERS_PER_SECOND or --speed-csv FILE")
        if not args.speed > 0.0:
            raise UsageError(f"--speed must be positive, got {args.speed}")
        speed = args.speed

    tt = solve_traveltime(
        grid, source, speed, source_ball_radius=args.source_ball_radius
    )
    _write_field(ScalarField(grid, tt.t_P), args.out)
    print(f"wrote {args.out}")
    print(f"t_P range: [{tt.t_P.min():.6e}, {tt.max_traveltime():.6e}] s")

    if args.verify_analytic:
        try:
            err = cone_error(tt, source, exclude_cells=5.0)
        except ValueError as exc:
            raise UsageError(f"--verify-analytic: {exc}")
        print(f"max relative error vs analytic cone (beyond 5 cells): {err:.4%}")
    return 0


# --- propagate --------------------------------------------------------------

def _initial_state(args: argparse.Namespace, grid: Grid) -> ComplexField:
    if args.initial is not None:
        values = _read_grid_field(args.initial, "--initial", grid)
        return ComplexField(grid, np.asarray(values, dtype=np.complex128))
    if args.gaussian_center is None or args.gaussian_width is None:
        raise UsageError(
            "provide an initial state: --initial FILE, or --gaussian-center "
            "and --gaussian-width"
        )
    center = _parse_floats(args.gaussian_center, "--gaussian-center")
    try:
        return gaussian_packet(
            grid, center, args.gaussian_width, args.gaussian_carrier
        )
    except ValueError as exc:
        raise UsageError(f"--gaussian-*: {exc}")


def cmd_propagate(args: argparse.Namespace) -> int:
    grid = _build_grid(args)
    if args.mode == "classical":
        if args.traveltime is not None:
            raise UsageError("--traveltime is not used in mode classical")
    elif args.traveltime is None:
        raise UsageError(f"--traveltime is required for mode {args.mode}")
    if args.localtime_out is not None:
        if args.mode != "modified":
            raise UsageError(f"--localtime-out needs mode modified, not {args.mode}")
        if args.vp is None:
            raise UsageError("--localtime-out needs the front speed --vp METERS_PER_SECOND")

    if args.potential is not None:
        potential = ScalarField(
            grid, _read_grid_field(args.potential, "--potential", grid)
        )
    else:
        potential = ScalarField(grid, np.zeros(grid.shape))

    try:
        problem = QuantumProblem(grid, potential, args.mass, args.dt)
    except ValueError as exc:
        raise UsageError(f"--mass/--dt: {exc}")
    initial = _initial_state(args, grid)

    tt = None
    if args.traveltime is not None:
        values = _read_grid_field(args.traveltime, "--traveltime", grid)
        if np.iscomplexobj(values):
            raise UsageError(f"--traveltime: {args.traveltime} holds complex values")
        tt = TraveltimeField(grid, values, args.vp)

    solution = propagate_classical(
        initial, problem, args.n_steps, history_window=args.history_window
    )
    times = solution.times
    # compare-a8 differentiates across the evaluation step, so by default it
    # evaluates at the last step that has a successor.
    last_step = args.n_steps - 1 if args.mode == "compare-a8" else args.n_steps
    eval_time = last_step * args.dt if args.eval_time is None else args.eval_time

    outputs: list[str] = []

    def emit(field, suffix: str) -> None:
        path = f"{args.out_prefix}_{suffix}.csv"
        _write_field(field, path)
        outputs.append(path)

    if args.save_every > 0:
        for j, snap in enumerate(solution.snapshots):
            step = solution.first_step + j
            if step % args.save_every == 0:
                emit(snap, f"step{step:06d}")

    if args.mode == "classical":
        emit(solution.snapshot_at(eval_time), "state")
    elif args.mode == "modified":
        emit(evaluate_modified(solution, tt, eval_time), "state")
        if args.localtime_out is not None:
            with _atomic_write(args.localtime_out) as fh:
                write_localtime_csv(local_time(tt, eval_time), fh)
            outputs.append(args.localtime_out)
    else:
        actual, predicted = difference_estimate(solution, tt, eval_time)
        emit(actual, "actual")
        emit(predicted, "predicted")

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
        "initial_norm": solution.initial_norm,
        "final_norm": l2_norm_squared(solution.snapshots[-1]),
        "max_norm_drift": solution.norm_drift(),
        "retained_snapshots": len(solution.snapshots),
        "retained_time_range": [float(times[0]), float(times[-1])],
        "outputs": outputs,
    }
    with _atomic_write(manifest_path) as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    print(f"wrote {manifest_path}")
    for path in outputs:
        print(f"wrote {path}")
    print(f"norm drift over run: {manifest['max_norm_drift']:.3e}")
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


def cmd_dispersion(args: argparse.Namespace) -> int:
    if args.classical:
        v_p = math.inf
    elif args.vp is not None:
        v_p = args.vp
    else:
        raise UsageError("provide --vp METERS_PER_SECOND or --classical")
    if not args.voltage and not args.speed:
        raise UsageError("provide at least one --voltage or --speed")

    particles: list[tuple[str, FreeParticle]] = []
    for voltage in args.voltage or ():
        if voltage <= 0.0:
            raise UsageError(f"--voltage must be positive, got {voltage}")
        particles.append(
            (f"{voltage:g}", FreeParticle.electron_from_voltage(voltage))
        )
    for speed in args.speed or ():
        if speed <= 0.0:
            raise UsageError(f"--speed must be positive, got {speed}")
        particles.append(("-", FreeParticle(CODATA2018.m_e, speed)))

    print(" ".join(f"{c:>14s}" for c in _DISPERSION_COLUMNS))
    for label, p in particles:
        k_l = modified_wavenumber_free(p, v_p)
        row = (
            label,
            f"{p.speed:.6e}",
            f"{p.nu:.6e}",
            f"{p.k:.6e}",
            f"{k_l:.6e}",
            f"{1.0 / p.k:.6e}",
            f"{1.0 / k_l:.6e}",
            f"{1e10 / k_l:.4f}",
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
            raise UsageError(
                f"--generate: expected key=value with key in "
                f"{'/'.join(_GENERATE_KEYS)}, got '{pair}'"
            )
        try:
            params[key] = float(value) if key != "seed" and key != "n" else int(value)
        except ValueError:
            raise UsageError(f"--generate: bad number in '{pair}'")
    try:
        return synthesize_records(
            params["n"],
            params["vP"],
            voltage_range=(params["vmin"], params["vmax"]),
            noise_relative=params["noise"],
            seed=params["seed"],
        )
    except ValueError as exc:
        raise UsageError(f"--generate: {exc}")


def _load_records(args: argparse.Namespace):
    given = sum(
        1 for x in (args.data, args.generate, args.use_bundled) if x
    )
    if given != 1:
        raise UsageError("provide exactly one of --data, --generate, --use-bundled")
    if args.generate:
        return _generated_records(args.generate)
    if args.use_bundled:
        path = resources.files("qfront.data") / "davisson_germer.csv"
        with resources.as_file(path) as concrete:
            return read_records_csv(str(concrete))
    _require_input_path(args.data, "--data")
    try:
        return read_records_csv(args.data)
    except ValueError as exc:
        raise UsageError(str(exc))


def _layered_rows(records, result, curve_points: int) -> list[str]:
    rows = ["layer,v_m_per_s,k_inv_m"]
    vs = []
    for rec in records:
        v, k_exp = derive_kinematics(rec)
        vs.append(v)
        rows.append(f"points,{v:.17g},{k_exp:.17g}")
    curves = model_curves(np.linspace(0.0, 1.05 * max(vs), curve_points),
                          result.v_p_fitted)
    rows.extend(f"curveA,{v:.17g},{k_cl:.17g}" for v, k_cl, _ in curves)
    rows.extend(f"curveB,{v:.17g},{k_mod:.17g}" for v, _, k_mod in curves)
    return rows


def cmd_fit(args: argparse.Namespace) -> int:
    records = _load_records(args)
    if args.generate and args.data_out:
        with _atomic_write(args.data_out) as fh:
            fh.write(RECORDS_CSV_HEADER + "\n")
            for rec in records:
                fh.write(f"{rec.voltage:.17g},{rec.wavelength_exp:.17g}\n")
        print(f"wrote {args.data_out}", file=sys.stderr)
    try:
        result = fit_vp(records)
    except ValueError as exc:
        raise UsageError(str(exc))
    print(json.dumps(fit_result_to_dict(result), indent=2))
    if args.out:
        with _atomic_write(args.out) as fh:
            write_fit_json(result, fh)
        print(f"wrote {args.out}", file=sys.stderr)
    if args.curves:
        if result.clamped_to_classical:
            raise UsageError(
                "--curves: fit clamped to the classical limit, curve B "
                "coincides with curve A; nothing informative to write"
            )
        rows = _layered_rows(records, result, args.curve_points)
        with _atomic_write(args.curves) as fh:
            fh.write("\n".join(rows) + "\n")
        print(f"wrote {args.curves}", file=sys.stderr)
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    records = _load_records(args)
    try:
        result = fit_vp(records)
    except ValueError as exc:
        raise UsageError(str(exc))
    if args.vp is not None:
        from dataclasses import replace

        result = replace(
            result, v_p_fitted=args.vp, clamped_to_classical=math.isinf(args.vp)
        )
    if math.isinf(result.v_p_fitted):
        raise UsageError(
            "fit clamped to the classical limit; pass a finite --vp to "
            "draw curve B anyway"
        )
    rows = _layered_rows(records, result, args.curve_points)
    with _atomic_write(args.out) as fh:
        fh.write("\n".join(rows) + "\n")
    print(f"wrote {args.out}")
    ratio = result.variance_classical / result.variance_modified
    print(
        f"v_P = {result.v_p_fitted:.5e} m/s; variance modified = "
        f"{result.variance_modified:.5e} 1/m^2, classical = "
        f"{result.variance_classical:.5e} 1/m^2 (ratio {ratio:.3f})"
    )
    return 0


# --- parser -----------------------------------------------------------------

def _add_grid_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--shape", required=True,
                   help="comma-separated cells per axis, e.g. 201,201")
    p.add_argument("--spacing", required=True,
                   help="comma-separated cell spacing per axis in meters")
    p.add_argument("--origin", default=None,
                   help="comma-separated axis origins in meters (default zeros)")


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
    p.add_argument("--source", action="append", required=True,
                   help="source cell indices, e.g. 100,100 (repeatable)")
    p.add_argument("--speed", type=float, default=None,
                   help="uniform front speed v_P in m/s")
    p.add_argument("--speed-csv", default=None,
                   help="CSV field of per-cell front speeds in m/s")
    p.add_argument("--source-ball-radius", type=float, default=None,
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
    p.add_argument("--initial", default=None,
                   help="initial state CSV (complex field)")
    p.add_argument("--gaussian-center", default=None,
                   help="comma-separated packet center in meters")
    p.add_argument("--gaussian-width", type=float, default=None,
                   help="packet standard deviation in meters")
    p.add_argument("--gaussian-carrier", type=float, default=0.0,
                   help="carrier wavenumber along axis 0 in cycles/m")
    p.add_argument("--potential", default=None,
                   help="potential CSV in joules (default: zero)")
    p.add_argument("--mass", type=float, default=CODATA2018.m_e,
                   help="particle mass in kg (default: electron)")
    p.add_argument("--dt", type=float, required=True, help="time step in s")
    p.add_argument("--n-steps", type=int, required=True,
                   help="number of CN steps")
    p.add_argument("--history-window", type=int, default=None,
                   help="retain only this many trailing snapshots")
    p.add_argument("--traveltime", default=None,
                   help="traveltime CSV t_P (required for modified/compare-a8)")
    p.add_argument("--vp", type=_front_speed, default=None,
                   help="front speed in m/s recorded with the traveltime field "
                        "(required with --localtime-out)")
    p.add_argument("--eval-time", type=float, default=None,
                   help="evaluation time in s (default: final time; in mode "
                        "compare-a8, one step earlier, the last step with a "
                        "successor)")
    p.add_argument("--save-every", type=int, default=0,
                   help="also dump every k-th retained snapshot (0 = none)")
    p.add_argument("--localtime-out", default=None,
                   help="also write theta/class CSV at the evaluation time "
                        "(mode modified)")
    p.add_argument("--out-prefix", required=True,
                   help="prefix for output CSVs and the JSON manifest")
    p.set_defaults(func=cmd_propagate)

    p = sub.add_parser(
        "dispersion", help="modified de Broglie table for free electrons"
    )
    p.add_argument("--voltage", type=float, action="append",
                   help="accelerating voltage in volts (repeatable)")
    p.add_argument("--speed", type=float, action="append",
                   help="electron speed in m/s (repeatable)")
    p.add_argument("--vp", type=_front_speed, default=None,
                   help="front speed v_P in m/s")
    p.add_argument("--classical", action="store_true",
                   help="classical limit 1/v_P = 0")
    p.set_defaults(func=cmd_dispersion)

    p = sub.add_parser(
        "fit", help="least-squares fit of v_P to diffraction records"
    )
    p.add_argument("--data", default=None,
                   help="records CSV: voltage_volts,wavelength_meters")
    p.add_argument("--use-bundled", action="store_true",
                   help="fit the bundled synthetic Davisson-Germer dataset")
    p.add_argument("--generate", nargs="+", metavar="KEY=VALUE", default=None,
                   help="fit synthetic records instead; keys: vP (m/s), n, "
                        "seed, noise (relative, in k), vmin/vmax (volts)")
    p.add_argument("--data-out", default=None,
                   help="with --generate: also write the records CSV here")
    p.add_argument("--out", default=None, help="write the result JSON here")
    p.add_argument("--curves", default=None,
                   help="write layered points/curveA/curveB CSV here")
    p.add_argument("--curve-points", type=int, default=200,
                   help="samples per model curve")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser(
        "compare", help="one CSV with data points and both model curves"
    )
    p.add_argument("--data", default=None,
                   help="records CSV: voltage_volts,wavelength_meters")
    p.add_argument("--use-bundled", action="store_true",
                   help="use the bundled synthetic Davisson-Germer dataset")
    p.add_argument("--generate", nargs="+", metavar="KEY=VALUE", default=None,
                   help="use synthetic records; same keys as fit --generate")
    p.add_argument("--vp", type=_front_speed, default=None,
                   help="draw curve B at this v_P instead of the fitted one")
    p.add_argument("--curve-points", type=int, default=200,
                   help="samples per model curve")
    p.add_argument("--out", required=True, help="output layered CSV path")
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (HistoryWindowError, ConvergenceError) as exc:
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
