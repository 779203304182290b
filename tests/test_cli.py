import contextlib
import hashlib
import io
import json
import math
import os
import re
import shlex
import stat
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy._core import _multiarray_umath

import qfront
import qfront.schrodinger
from qfront.cli import build_parser, main
from qfront.constants import CODATA2018
from qfront.dispersion import FreeParticle
from qfront.eikonal import TraveltimeField
from qfront.fields import ComplexField, Grid, ScalarField, read_field_csv, write_field_csv
from qfront.fit import RECORDS_CSV_HEADER, read_records_csv, synthesize_records
from qfront.schrodinger import (
    ConvergenceError,
    HistoryWindowError,
    QuantumProblem,
    difference_estimate,
    evaluate_modified,
    gaussian_packet,
    propagate_classical,
)
from test_schrodinger import PINNED_HISTORIES_1D, PINNED_HISTORIES_ND

GRID_1D = ["--shape", "64", "--spacing", str(1.0 / 63)]


def write_zero_traveltime(path, n=64):
    g = Grid((n,), (1.0 / (n - 1),))
    write_field_csv(ScalarField(g, np.zeros(n)), str(path))


def write_constant_traveltime(path, value, n=64):
    g = Grid((n,), (1.0 / (n - 1),))
    write_field_csv(ScalarField(g, np.full(n, value)), str(path))


# --- eikonal -----------------------------------------------------------------------

def test_eikonal_writes_field_and_summary(tmp_path, capsys):
    out = tmp_path / "tt.csv"
    code = main(
        ["eikonal", "--shape", "51,51", "--spacing", "1,1",
         "--source", "25,25", "--speed", "2.0", "--out", str(out)]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert f"wrote {out}" in captured.out
    assert "t_P range" in captured.out
    field = read_field_csv(str(out))
    assert field.grid.shape == (51, 51)
    assert field.values[25, 25] == 0.0
    assert np.all(np.isfinite(field.values))


def test_eikonal_speed_scales_traveltimes(tmp_path):
    out1, out2 = tmp_path / "tt1.csv", tmp_path / "tt2.csv"
    base = ["eikonal", "--shape", "31,31", "--spacing", "1,1",
            "--source", "15,15"]
    assert main(base + ["--speed", "1.0", "--out", str(out1)]) == 0
    assert main(base + ["--speed", "2.0", "--out", str(out2)]) == 0
    t1 = read_field_csv(str(out1)).values
    t2 = read_field_csv(str(out2)).values
    np.testing.assert_array_equal(t2, t1 / 2.0)


def test_eikonal_verify_analytic_under_two_percent(tmp_path, capsys):
    out = tmp_path / "tt.csv"
    code = main(
        ["eikonal", "--shape", "101,101", "--spacing", "1,1",
         "--source", "50,50", "--speed", "1.0", "--out", str(out),
         "--verify-analytic"]
    )
    assert code == 0
    line = [
        ln for ln in capsys.readouterr().out.splitlines()
        if "max relative error" in ln
    ][0]
    err = float(line.rsplit(" ", 1)[1].rstrip("%")) / 100.0
    assert err < 0.02


def test_eikonal_verify_analytic_with_two_sources(tmp_path, capsys):
    code = main(
        ["eikonal", "--shape", "61,41", "--spacing", "1,1.5",
         "--source", "10,10", "--source", "50,30", "--speed", "3.0",
         "--out", str(tmp_path / "tt.csv"), "--verify-analytic"]
    )
    assert code == 0
    assert ("max relative error vs analytic cone (beyond 5 cells): "
            in capsys.readouterr().out)


def test_eikonal_verify_analytic_rejects_speed_field(tmp_path, capsys):
    speed = tmp_path / "v.csv"
    write_field_csv(ScalarField(Grid((16,), (1.0,)), np.ones(16)), str(speed))
    code = main(
        ["eikonal", "--shape", "16", "--spacing", "1", "--source", "3",
         "--speed-csv", str(speed), "--out", str(tmp_path / "tt.csv"),
         "--verify-analytic"]
    )
    assert code == 2
    assert "--verify-analytic" in capsys.readouterr().err


def test_eikonal_requires_speed(tmp_path, capsys):
    code = main(
        ["eikonal", "--shape", "8", "--spacing", "1",
         "--source", "4", "--out", str(tmp_path / "t.csv")]
    )
    assert code == 2
    assert "--speed" in capsys.readouterr().err


def test_eikonal_rejects_out_of_range_source(tmp_path, capsys):
    code = main(
        ["eikonal", "--shape", "8", "--spacing", "1", "--source", "9",
         "--speed", "1", "--out", str(tmp_path / "t.csv")]
    )
    assert code == 2
    assert "--source" in capsys.readouterr().err


def test_eikonal_leaves_no_partial_file(tmp_path, capsys):
    missing_dir = tmp_path / "no_such_dir" / "tt.csv"
    code = main(
        ["eikonal", "--shape", "8", "--spacing", "1", "--source", "4",
         "--speed", "1", "--out", str(missing_dir)]
    )
    assert code == 1
    assert not missing_dir.exists()
    assert "i/o error" in capsys.readouterr().err


# --- propagate ---------------------------------------------------------------------

def test_propagate_zero_steps_reproduces_initial(tmp_path, capsys):
    g = Grid((64,), (1.0 / 63,))
    initial = tmp_path / "initial.csv"
    write_field_csv(gaussian_packet(g, (0.5,), 0.08), str(initial))
    prefix = tmp_path / "run"
    code = main(
        ["propagate", *GRID_1D, "--mode", "classical", "--initial", str(initial),
         "--mass", "1", "--dt", "1e-4", "--n-steps", "0",
         "--out-prefix", str(prefix)]
    )
    assert code == 0
    assert (tmp_path / "run_state.csv").read_bytes() == initial.read_bytes()


def test_propagate_zero_traveltime_is_byte_identical(tmp_path):
    tt = tmp_path / "tt.csv"
    write_zero_traveltime(tt)
    common = ["propagate", *GRID_1D, "--gaussian-center", "0.5",
              "--gaussian-width", "0.08", "--mass", "1",
              "--dt", "1e-4", "--n-steps", "25"]
    assert main(common + ["--mode", "classical",
                          "--out-prefix", str(tmp_path / "cl")]) == 0
    assert main(common + ["--mode", "modified", "--traveltime", str(tt),
                          "--out-prefix", str(tmp_path / "mod")]) == 0
    classical = (tmp_path / "cl_state.csv").read_bytes()
    modified = (tmp_path / "mod_state.csv").read_bytes()
    assert classical == modified


def test_propagate_manifest_contents(tmp_path):
    prefix = tmp_path / "run"
    code = main(
        ["propagate", *GRID_1D, "--gaussian-center", "0.5",
         "--gaussian-width", "0.08", "--mass", "1", "--dt", "1e-4",
         "--n-steps", "10", "--out-prefix", str(prefix)]
    )
    assert code == 0
    manifest = json.loads((tmp_path / "run_manifest.json").read_text())
    assert manifest["mode"] == "classical"
    assert manifest["n_steps"] == 10
    assert manifest["grid"]["shape"] == [64]
    # Mode classical reads only the final state; the window keeps two.
    assert manifest["retained_snapshots"] == 2
    assert manifest["max_norm_drift"] < 1e-10
    assert manifest["outputs"] == [str(tmp_path / "run_state.csv")]
    assert manifest["retained_time_range"][0] == pytest.approx(9e-4)
    assert manifest["retained_time_range"][1] == pytest.approx(1e-3)


def csv_bytes(field, path) -> bytes:
    write_field_csv(field, str(path))
    return Path(path).read_bytes()


def electron_run(n_cells, dt, n_steps, center=5e-11, carrier=2e10):
    """An electron packet on a 1e-10 m box, as CLI flags and as the API's
    full-history run of the same bits; at these scales every CN step moves it."""
    spacing = 1e-10 / (n_cells - 1)
    argv = ["propagate", "--shape", str(n_cells), "--spacing", repr(spacing),
            "--gaussian-center", repr(center), "--gaussian-width", "1e-11",
            "--gaussian-carrier", repr(carrier), "--dt", repr(dt),
            "--n-steps", str(n_steps)]
    grid = Grid((n_cells,), (spacing,))
    problem = QuantumProblem(grid, ScalarField(grid, np.zeros(n_cells)), CODATA2018.m_e, dt)
    initial = gaussian_packet(grid, (center,), 1e-11, carrier)
    return argv, initial, propagate_classical(initial, problem, n_steps, history_window=None)


def test_propagate_electron_state_moves_and_matches_the_api(tmp_path):
    argv, initial, full = electron_run(64, 1e-19, 20)
    assert main(argv + ["--out-prefix", str(tmp_path / "run")]) == 0
    state = (tmp_path / "run_state.csv").read_bytes()
    assert state == csv_bytes(full.snapshots[-1], tmp_path / "api.csv")
    assert state != csv_bytes(initial, tmp_path / "initial.csv")
    moved = np.abs(full.snapshots[-1].values - initial.values).max()
    assert moved > 0.1 * np.abs(initial.values).max()


def snapped_step(t, dt):
    """The step of time t, snapping to a whole step within 1e-9 * dt."""
    pos = t / dt
    return round(pos) if abs(pos - round(pos)) <= 1e-9 else math.floor(pos)


@settings(max_examples=25)
@given(
    n_cells=st.integers(64, 97),
    dt=st.floats(1e-19, 1e-18),
    n_steps=st.integers(2, 24),
    mode=st.sampled_from(["classical", "modified", "compare-a8"]),
    save_every=st.sampled_from([0, 0, 0, 3]),
    step_fraction=st.floats(0.0, 1.0),
    between=st.floats(0.0, 0.999),
    tp_fraction=st.floats(0.0, 2.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_propagate_derived_window_matches_full_history(
        n_cells, dt, n_steps, mode, save_every, step_fraction, between, tp_fraction, seed):
    # Every output equals, byte for byte, the same evaluation on the full
    # history, and the run keeps the states from the first one an output
    # reads: the step of eval_time (classical), of eval_time - max t_P
    # (modified) or one before that (compare-a8), with --save-every as without.
    a8 = mode == "compare-a8"
    k = a8 + round(step_fraction * (n_steps - 2 * a8))
    eval_time = (k + between * (mode == "modified" and k < n_steps)) * dt
    argv, _, full = electron_run(n_cells, dt, n_steps)
    grid = full.problem.grid
    tt = TraveltimeField(grid, np.random.default_rng(seed).uniform(
        0.0, tp_fraction * n_steps * dt, n_cells))  # max t_P may exceed eval_time
    first = snapped_step(eval_time, dt)
    if mode != "classical":
        first = max(snapped_step(max(eval_time - tt.max_traveltime(), 0.0), dt) - a8, 0)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        write_field_csv(ScalarField(grid, tt.t_P), str(out / "tt.csv"))
        argv += ["--mode", mode, "--eval-time", repr(eval_time), "--save-every",
                 str(save_every), "--out-prefix", str(out / "run")]
        if mode != "classical":
            argv += ["--traveltime", str(out / "tt.csv")]
        assert main(argv) == 0
        expected = ({f"step{j:06d}": full.snapshots[j] for j in range(0, n_steps + 1, save_every)}
                    if save_every else {})
        if mode == "classical":
            expected["state"] = full.snapshot_at(eval_time)
        elif mode == "modified":
            expected["state"] = evaluate_modified(full, tt, eval_time)
        else:
            expected["actual"], expected["predicted"] = difference_estimate(full, tt, eval_time)
        for suffix, field in expected.items():
            got = (out / f"run_{suffix}.csv").read_bytes()
            assert got == csv_bytes(field, out / "expected.csv"), suffix
        manifest = json.loads((out / "run_manifest.json").read_text())
    assert sorted(Path(p).name for p in manifest["outputs"]) == sorted(
        f"run_{suffix}.csv" for suffix in expected)
    assert manifest["retained_snapshots"] == min(max(n_steps + 1 - first, 2), n_steps + 1)


def test_propagate_save_every_dumps_snapshots(tmp_path):
    prefix = tmp_path / "run"
    code = main(
        ["propagate", *GRID_1D, "--gaussian-center", "0.5",
         "--gaussian-width", "0.08", "--mass", "1", "--dt", "1e-4",
         "--n-steps", "4", "--save-every", "2", "--out-prefix", str(prefix)]
    )
    assert code == 0
    for step in (0, 2, 4):
        assert (tmp_path / f"run_step{step:06d}.csv").exists()
    assert not (tmp_path / "run_step000001.csv").exists()


def test_propagate_save_every_keeps_only_the_derived_window(tmp_path, capsys):
    # The whole run is 1001 states of 16 KiB (15.6 MiB); the classical
    # evaluation at the last step keeps two of them.
    electron_run(64, 1e-19, 2)  # builds a stepper first, so scipy's import is not traced
    argv = ["propagate", "--shape", "1024", "--spacing", repr(1e-10 / 1023),
            "--gaussian-center", "5e-11", "--gaussian-width", "1e-11",
            "--gaussian-carrier", "2e10", "--dt", "1e-19", "--n-steps", "1000",
            "--save-every", "500", "--out-prefix", str(tmp_path / "run")]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
    for step in (0, 500, 1000):
        assert (tmp_path / f"run_step{step:06d}.csv").exists()
    manifest = json.loads((tmp_path / "run_manifest.json").read_text())
    assert manifest["retained_snapshots"] == 2


def test_propagate_failure_keeps_the_step_files_already_written(tmp_path, monkeypatch,
                                                                 capsys):
    argv, _, _ = electron_run(64, 1e-19, 6)
    step = qfront.schrodinger._Stepper.step
    calls = []

    def fail_on_step_3(self, values, out):
        calls.append(len(calls) + 1)
        if calls[-1] == 3:
            raise ConvergenceError("injected")
        step(self, values, out)

    monkeypatch.setattr(qfront.schrodinger._Stepper, "step", fail_on_step_3)
    assert main(argv + ["--save-every", "2", "--out-prefix", str(tmp_path / "run")]) == 1
    assert capsys.readouterr().err == "runtime error: injected\n"
    assert calls == [1, 2, 3]
    assert sorted(os.listdir(tmp_path)) == ["run_step000000.csv", "run_step000002.csv"]


def test_propagate_compare_a8_outputs(tmp_path):
    tt = tmp_path / "tt.csv"
    write_constant_traveltime(tt, 4e-4)
    prefix = tmp_path / "a8"
    code = main(
        ["propagate", *GRID_1D, "--mode", "compare-a8",
         "--gaussian-center", "0.5", "--gaussian-width", "0.08",
         "--mass", "1", "--dt", "1e-4", "--n-steps", "12",
         "--traveltime", str(tt), "--eval-time", "8e-4",
         "--out-prefix", str(prefix)]
    )
    assert code == 0
    for suffix in ("actual", "predicted"):
        field = read_field_csv(str(tmp_path / f"a8_{suffix}.csv"))
        assert not np.iscomplexobj(field.values)
        assert np.all(field.values >= 0.0)


def test_propagate_compare_a8_defaults_to_last_step_with_successor(tmp_path):
    # The centred time derivative needs a step after the evaluation time,
    # so the default is (n_steps - 1) * dt, not the final time.
    tt = tmp_path / "tt.csv"
    write_constant_traveltime(tt, 4e-4)
    prefix = tmp_path / "a8"
    code = main(
        ["propagate", *GRID_1D, "--mode", "compare-a8",
         "--gaussian-center", "0.5", "--gaussian-width", "0.08",
         "--mass", "1", "--dt", "1e-4", "--n-steps", "20",
         "--traveltime", str(tt), "--out-prefix", str(prefix)]
    )
    assert code == 0
    manifest = json.loads((tmp_path / "a8_manifest.json").read_text())
    assert manifest["eval_time"] == 19 * 1e-4
    assert (tmp_path / "a8_actual.csv").exists()
    assert (tmp_path / "a8_predicted.csv").exists()


def test_propagate_localtime_requires_vp(tmp_path, capsys):
    tt = tmp_path / "tt.csv"
    write_constant_traveltime(tt, 4e-4)
    lt = tmp_path / "lt.csv"
    code = main(
        ["propagate", *GRID_1D, "--mode", "modified",
         "--gaussian-center", "0.5", "--gaussian-width", "0.08",
         "--mass", "1", "--dt", "1e-4", "--n-steps", "10",
         "--traveltime", str(tt), "--localtime-out", str(lt),
         "--out-prefix", str(tmp_path / "run")]
    )
    assert code == 2
    assert "--vp" in capsys.readouterr().err
    assert not lt.exists()


@pytest.mark.parametrize("flag", ["--initial", "--potential", "--traveltime"])
def test_propagate_field_inputs_check_shape_and_path(tmp_path, capsys, flag):
    wrong = tmp_path / "wrong.csv"
    write_zero_traveltime(wrong, n=32)
    base = ["propagate", *GRID_1D, "--mode", "modified",
            "--mass", "1", "--dt", "1e-4", "--n-steps", "2",
            "--out-prefix", str(tmp_path / "run")]
    if flag != "--initial":
        base += ["--gaussian-center", "0.5", "--gaussian-width", "0.08"]
    if flag != "--traveltime":
        zero = tmp_path / "zero.csv"
        write_zero_traveltime(zero)
        base += ["--traveltime", str(zero)]
    assert main(base + [flag, str(wrong)]) == 2
    assert (f"{flag}: file shape (32,) does not match --shape (64,)"
            in capsys.readouterr().err)
    missing = tmp_path / "missing.csv"
    assert main(base + [flag, str(missing)]) == 2
    assert f"{flag}: no such file: {missing}" in capsys.readouterr().err


@pytest.mark.parametrize("spacing, file_shape", [
    ("1", (4, 4)),  # a 2-D file for a 1-D grid
    ("1e307", (20,)),  # 20 cells at this spacing would overflow the last coordinate
])
def test_a_field_input_of_another_shape_reports_the_shape_mismatch(tmp_path, capsys,
                                                                    spacing, file_shape):
    potential = tmp_path / "u.csv"
    write_field_csv(ScalarField(Grid(file_shape, (1.0,) * len(file_shape)),
                                np.zeros(file_shape)), potential)
    assert main(["propagate", "--shape", "16", "--spacing", spacing, "--potential",
                 str(potential), "--gaussian-center", "8", "--gaussian-width", "2",
                 "--dt", "1e-4", "--n-steps", "2", "--out-prefix", str(tmp_path / "r")]) == 2
    assert capsys.readouterr().err == (
        f"error: --potential: file shape {file_shape} does not match --shape (16,)\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["u.csv"]


def test_eikonal_speed_csv_checks_shape(tmp_path, capsys):
    speed = tmp_path / "v.csv"
    write_field_csv(ScalarField(Grid((8,), (1.0,)), np.ones(8)), str(speed))
    code = main(
        ["eikonal", "--shape", "16", "--spacing", "1", "--source", "3",
         "--speed-csv", str(speed), "--out", str(tmp_path / "tt.csv")]
    )
    assert code == 2
    assert ("--speed-csv: file shape (8,) does not match --shape (16,)"
            in capsys.readouterr().err)


@pytest.mark.parametrize("flag", ["--potential", "--traveltime", "--speed-csv"])
def test_real_field_inputs_reject_complex_csv(tmp_path, capsys, flag):
    g = Grid((64,), (1.0 / 63,))
    complex_csv = tmp_path / "complex.csv"
    write_field_csv(ComplexField(g, np.full(64, 1.0 + 0.5j)), str(complex_csv))
    if flag == "--speed-csv":
        argv = ["eikonal", *GRID_1D, "--source", "3", "--out", str(tmp_path / "tt.csv")]
    else:
        zero = tmp_path / "zero.csv"
        write_zero_traveltime(zero)
        argv = ["propagate", *GRID_1D, "--mode", "modified",
                "--gaussian-center", "0.5", "--gaussian-width", "0.08",
                "--mass", "1", "--dt", "1e-4", "--n-steps", "2",
                "--out-prefix", str(tmp_path / "run")]
        if flag == "--potential":
            argv += ["--traveltime", str(zero)]
    assert main(argv + [flag, str(complex_csv)]) == 2
    assert f"{flag}: complex values for a real-valued field" in capsys.readouterr().err
    assert {p.name for p in tmp_path.iterdir()} <= {"complex.csv", "zero.csv"}


@pytest.mark.parametrize("flag, value", [
    ("--origin", "nan"),
    ("--origin", "inf"),
    ("--gaussian-width", "nan"),
    ("--gaussian-width", "inf"),
    ("--gaussian-center", "nan"),
    ("--gaussian-carrier", "nan"),
])
def test_propagate_rejects_non_finite_geometry_and_packet(tmp_path, capsys, flag, value):
    args = {"--gaussian-center": "0.5", "--gaussian-width": "0.08", flag: value}
    argv = ["propagate", *GRID_1D, "--mass", "1", "--dt", "1e-4", "--n-steps", "2",
            "--out-prefix", str(tmp_path / "run")]
    for name, text in args.items():
        argv += [name, text]
    assert main(argv) == 2  # warnings are errors here, so none may come first
    assert flag in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("radius", ["inf", "nan"])
def test_eikonal_rejects_non_finite_ball_radius(tmp_path, capsys, radius):
    out = tmp_path / "tt.csv"
    code = main(
        ["eikonal", "--shape", "16", "--spacing", "1", "--source", "3",
         "--speed", "1", "--source-ball-radius", radius, "--out", str(out)]
    )
    assert code == 2
    assert "--source-ball-radius: must be finite and >= 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["inf", "nan", "0", "-1"])
def test_eikonal_rejects_non_positive_or_non_finite_speed(tmp_path, capsys, value):
    out = tmp_path / "tt.csv"
    code = main(
        ["eikonal", "--shape", "16", "--spacing", "1", "--source", "3",
         "--speed", value, "--out", str(out)]
    )
    assert code == 2
    assert "--speed: must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", [math.nan, math.inf, 0.0])
def test_eikonal_rejects_non_positive_or_non_finite_speed_csv(tmp_path, capsys, value):
    speed = tmp_path / "v.csv"
    speeds = np.ones(16)
    speeds[7] = value
    write_field_csv(ScalarField(Grid((16,), (1.0,)), speeds), str(speed))
    code = main(
        ["eikonal", "--shape", "16", "--spacing", "1", "--source", "3",
         "--speed-csv", str(speed), "--out", str(tmp_path / "tt.csv")]
    )
    assert code == 2
    assert "--speed-csv: speed must be positive and finite" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["v.csv"]


@pytest.mark.parametrize("cell, value, message", [
    pytest.param(3, math.nan, "state contains non-finite values", id="nan"),
    pytest.param(3, math.inf, "state contains non-finite values", id="inf"),
    pytest.param(0, 1.0, "state does not vanish on the boundary cell layer", id="boundary"),
    pytest.param(None, 0.0, "initial state has zero norm", id="zero"),
])
@pytest.mark.parametrize("shape", [(64,), (12, 10)])
def test_propagate_rejects_non_finite_initial_state(tmp_path, capsys, shape, cell, value,
                                                    message):
    # A state propagate_classical would reject is blamed on --initial before any step.
    g = Grid(shape, tuple(1.0 / (n - 1) for n in shape))
    values = gaussian_packet(g, tuple(0.5 for _ in shape), 0.2).values.copy()
    values[... if cell is None else (cell,) * len(shape)] = value
    initial = tmp_path / "initial.csv"
    write_field_csv(ComplexField(g, values), str(initial))
    code = main(
        ["propagate", "--shape", ",".join(map(str, shape)),
         "--spacing", ",".join(str(s) for s in g.spacing),
         "--initial", str(initial), "--mass", "1", "--dt", "1e-4",
         "--n-steps", "5", "--out-prefix", str(tmp_path / "run")]
    )
    assert code == 2
    assert f"error: --initial: {message}" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["initial.csv"]


def test_propagate_localtime_output(tmp_path):
    tt = tmp_path / "tt.csv"
    write_constant_traveltime(tt, 4e-4)
    lt = tmp_path / "lt.csv"
    code = main(
        ["propagate", *GRID_1D, "--mode", "modified",
         "--gaussian-center", "0.5", "--gaussian-width", "0.08",
         "--mass", "1", "--dt", "1e-4", "--n-steps", "10",
         "--traveltime", str(tt), "--vp", "100.0",
         "--localtime-out", str(lt),
         "--out-prefix", str(tmp_path / "run")]
    )
    assert code == 0
    text = lt.read_text()
    assert "theta" in text.splitlines()[0]
    # The front tolerance spacing/(2 v_P) is well below theta = 6e-4 at
    # v_P = 100, so every cell classifies as propagating.
    assert ",P" in text
    assert ",F" not in text


MODIFIED_WITH_LOCALTIME = [
    "propagate", *GRID_1D, "--mode", "modified",
    "--gaussian-center", "0.5", "--gaussian-width", "0.08",
    "--mass", "1", "--dt", "1e-4", "--n-steps", "10",
    "--traveltime", "tt.csv", "--localtime-out", "lt.csv", "--out-prefix", "run",
]


@pytest.mark.parametrize("vp", ["0", "-100", "nan"])
@pytest.mark.parametrize("argv", [
    MODIFIED_WITH_LOCALTIME,
    ["dispersion", "--voltage", "54"],
    ["compare", "--use-bundled", "--out", "layers.csv"],
], ids=["propagate", "dispersion", "compare"])
def test_vp_must_be_positive(tmp_path, monkeypatch, capsys, argv, vp):
    monkeypatch.chdir(tmp_path)
    write_constant_traveltime(tmp_path / "tt.csv", 4e-4)
    assert main(argv + ["--vp", vp]) == 2
    assert "--vp" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["tt.csv"]


def test_infinite_vp_is_the_classical_limit(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_constant_traveltime(tmp_path / "tt.csv", 0.0)
    assert main(MODIFIED_WITH_LOCALTIME + ["--vp", "inf"]) == 0
    # front_tol = spacing / (2 v_P) = 0 and theta = t > 0 everywhere.
    rows = (tmp_path / "lt.csv").read_text().splitlines()[1:]
    assert {row.split(",")[-1] for row in rows} == {"P"}
    assert main(["dispersion", "--voltage", "54", "--vp", "inf"]) == 0


@pytest.mark.parametrize("mode, flag", [
    ("classical", "--traveltime"),
    ("classical", "--localtime-out"),
    ("compare-a8", "--localtime-out"),
])
def test_propagate_rejects_flags_the_mode_ignores(tmp_path, monkeypatch, capsys, mode, flag):
    monkeypatch.chdir(tmp_path)
    write_constant_traveltime(tmp_path / "tt.csv", 4e-4)
    argv = ["propagate", *GRID_1D, "--mode", mode,
            "--gaussian-center", "0.5", "--gaussian-width", "0.08",
            "--mass", "1", "--dt", "1e-4", "--n-steps", "10", "--vp", "100",
            "--out-prefix", "run", flag, "tt.csv" if flag == "--traveltime" else "lt.csv"]
    if mode != "classical":
        argv += ["--traveltime", "tt.csv"]
    assert main(argv) == 2
    assert flag in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["tt.csv"]


def test_propagate_modified_requires_traveltime(tmp_path, capsys):
    code = main(
        ["propagate", *GRID_1D, "--mode", "modified",
         "--gaussian-center", "0.5", "--gaussian-width", "0.08",
         "--mass", "1", "--dt", "1e-4", "--n-steps", "5",
         "--out-prefix", str(tmp_path / "run")]
    )
    assert code == 2
    assert "--traveltime" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["classical", "modified", "compare-a8"])
@pytest.mark.parametrize("eval_time", ["nan", "inf", "-0.0001", "1.1e-3"])
def test_propagate_rejects_eval_time_outside_the_run(tmp_path, monkeypatch, capsys,
                                                     mode, eval_time):
    # The run spans [0, 10 * 1e-4] s; the check comes before any step.
    monkeypatch.chdir(tmp_path)
    write_constant_traveltime(tmp_path / "tt.csv", 4e-4)
    argv = ["propagate", *GRID_1D, "--mode", mode,
            "--gaussian-center", "0.5", "--gaussian-width", "0.08",
            "--mass", "1", "--dt", "1e-4", "--n-steps", "10",
            "--eval-time", eval_time, "--out-prefix", "run"]
    if mode != "classical":
        argv += ["--traveltime", "tt.csv"]
    assert main(argv) == 2
    assert "--eval-time" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["tt.csv"]


@pytest.mark.parametrize("mode, flag, value", [
    # Only mode modified interpolates between steps; compare-a8 also needs a
    # step on each side of the evaluation step.
    ("classical", "--eval-time", "1.5e-4"),
    ("compare-a8", "--eval-time", "1.5e-4"),
    ("compare-a8", "--eval-time", "0"),
    ("compare-a8", "--eval-time", "1e-3"),
    ("compare-a8", "--n-steps", "1"),
])
def test_propagate_rejects_what_the_mode_cannot_run_before_any_step(
        tmp_path, monkeypatch, capsys, mode, flag, value):
    monkeypatch.chdir(tmp_path)
    write_constant_traveltime(tmp_path / "tt.csv", 4e-4)
    argv = ["propagate", *GRID_1D, "--mode", mode,
            "--gaussian-center", "0.5", "--gaussian-width", "0.08",
            "--mass", "1", "--dt", "1e-4", "--n-steps", "10",
            "--out-prefix", "run", flag, value]
    if mode != "classical":
        argv += ["--traveltime", "tt.csv"]
    assert main(argv) == 2
    assert f"error: {flag}: must be " in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["tt.csv"]


def test_propagate_history_window_flag_is_gone(tmp_path, capsys):
    argv = ["propagate", *GRID_1D, "--gaussian-center", "0.5", "--gaussian-width", "0.08",
            "--dt", "1e-4", "--n-steps", "5", "--history-window", "4",
            "--out-prefix", str(tmp_path / "run")]
    assert main(argv) == 2
    assert "unrecognized arguments: --history-window 4" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_propagate_eval_time_matches_the_last_step_to_round_off(tmp_path):
    # 3 * 0.3 = 0.8999999999999999 < 0.9, yet 0.9 s is the last snapshot time.
    code = main(
        ["propagate", "--shape", "16", "--spacing", "1", "--gaussian-center", "8",
         "--gaussian-width", "2", "--mass", "1", "--dt", "0.3", "--n-steps", "3",
         "--eval-time", "0.9", "--out-prefix", str(tmp_path / "run")]
    )
    assert code == 0
    assert (tmp_path / "run_state.csv").exists()


@pytest.mark.parametrize("shape, spacing, centre", [
    ("2", "1", "0.5"),
    ("2,5", "1,1", "0.5,2"),
    ("5,2", "1,1", "2,0.5"),
])
def test_propagate_needs_an_interior_cell_on_every_axis(tmp_path, capsys, shape, spacing,
                                                        centre):
    code = main(
        ["propagate", "--shape", shape, "--spacing", spacing,
         "--gaussian-center", centre, "--gaussian-width", "0.5",
         "--mass", "1", "--dt", "1e-4", "--n-steps", "2",
         "--out-prefix", str(tmp_path / "run")]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "--shape" in err and "fewer than 3 cells" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("error, code", [(ConvergenceError, 1), (HistoryWindowError, 1),
                                         (RuntimeError, None)],
                         ids=["ConvergenceError", "HistoryWindowError", "RuntimeError"])
def test_stepper_failures_exit_1_and_nothing_wider_is_caught(tmp_path, monkeypatch, capsys,
                                                              error, code):
    def fail(*args, **kwargs):
        raise error("injected")

    monkeypatch.setattr(qfront.schrodinger, "propagate_classical", fail)
    argv = ["propagate", *GRID_1D, "--gaussian-center", "0.5", "--gaussian-width", "0.05",
            "--mass", "1", "--dt", "1e-4", "--n-steps", "2", "--out-prefix", str(tmp_path / "p")]
    if code is None:
        with pytest.raises(RuntimeError, match="injected"):
            main(argv)
    else:
        assert main(argv) == code
        assert capsys.readouterr().err == "runtime error: injected\n"


@pytest.mark.parametrize("dims", [2, 3])
def test_propagate_whose_product_overflows_exits_1_naming_the_overflow(tmp_path, capsys, dims):
    # A is finite at this mass, but A x overflows: COCG stops in its first
    # iteration, with no RuntimeWarning and not after 500 on inf and NaN.
    def axes(value):
        return ",".join([value] * dims)

    argv = ["propagate", "--shape", axes("8"), "--spacing", axes("1e-11"),
            "--gaussian-center", axes("4e-11"), "--gaussian-width", "2e-11", "--dt", "1e-19",
            "--mass", "1e-300", "--n-steps", "2", "--out-prefix", str(tmp_path / "f")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 1
    assert capsys.readouterr().err == (
        "runtime error: COCG failed to converge to rtol=1e-13 within 500 iterations "
        "(info=1); p^T A p overflows; lower dt or the potential, or raise mass or spacing\n")
    assert list(tmp_path.iterdir()) == []


# --- dispersion --------------------------------------------------------------------

def test_dispersion_table_54v(capsys):
    code = main(["dispersion", "--vp", "1.3e8", "--voltage", "54"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    header = lines[0].split()
    row = dict(zip(header, lines[1].split()))
    assert row["V_volts"] == "54"
    assert float(row["k_inv_m"]) == pytest.approx(5.991776e9, rel=1e-6)
    assert float(row["k_l_inv_m"]) == pytest.approx(6.092215e9, rel=1e-6)
    assert float(row["v_ph_l_m_per_s"]) == pytest.approx(2.143250e6, rel=1e-6)
    assert float(row["v_gr_l_m_per_s"]) == pytest.approx(4.216977e6, rel=1e-6)
    assert float(row["lambda_l_angstrom"]) == pytest.approx(1.6414, abs=2e-4)


def test_dispersion_cells_fit_their_columns(capsys):
    # A tiny wavenumber makes lambda_l_angstrom huge; printed to 4 decimals
    # it would run to 150 digits, so it switches to %.6e like its neighbours.
    assert main(["dispersion", "--vp", "1.3e8", "--voltage", "54", "--voltage", "1e-300",
                 "--speed", "1e-3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = [dict(zip(lines[0].split(), line.split())) for line in lines[1:]]
    assert [row["lambda_l_angstrom"] for row in rows] == [
        "1.6414", "1.226424e+151", "7.273895e+09"]
    for line in lines[1:]:
        assert len(line) == 12 * 14 + 11, line  # 12 cells, 11 separators
    assert lines[1] == (
        "            54   4.358355e+06   1.305714e+16   5.991776e+09   6.092215e+09"
        "   1.668954e-10   1.641439e-10         1.6414   2.179177e+06   2.143250e+06"
        "   4.358355e+06   4.216977e+06")


def test_dispersion_classical_limit(capsys):
    code = main(["dispersion", "--classical", "--voltage", "54"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    header = lines[0].split()
    row = dict(zip(header, lines[1].split()))
    assert row["k_l_inv_m"] == row["k_inv_m"]
    assert row["v_gr_l_m_per_s"] == row["v_gr_m_per_s"]


def test_dispersion_requires_speed_choice(capsys):
    assert main(["dispersion", "--voltage", "54"]) == 2
    assert "--vp" in capsys.readouterr().err


def test_dispersion_rejects_vp_with_classical(capsys):
    assert main(["dispersion", "--vp", "1e8", "--classical", "--voltage", "54"]) == 2
    captured = capsys.readouterr()
    assert "--classical" in captured.err and "--vp" in captured.err
    assert captured.out == ""


def test_dispersion_requires_particles(capsys):
    assert main(["dispersion", "--vp", "1.3e8"]) == 2
    assert "--voltage" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--voltage", "--speed"])
@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
def test_dispersion_rejects_non_positive_or_non_finite_particles(capsys, flag, value):
    assert main(["dispersion", "--vp", "1.3e8", flag, value]) == 2
    captured = capsys.readouterr()
    assert f"{flag}" in captured.err and "positive and finite" in captured.err
    assert captured.out == ""


# --- fit ---------------------------------------------------------------------------

def test_fit_generate_noiseless_recovers_speed(tmp_path, capsys):
    out = tmp_path / "fit.json"
    code = main(
        ["fit", "--generate", "vP=1.3e8", "n=20", "seed=7", "noise=0",
         "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["v_p_fitted_m_per_s"] == pytest.approx(1.3e8, rel=1e-6)
    assert doc["clamped_to_classical"] is False
    assert json.loads(out.read_text()) == doc


def test_fit_data_roundtrip(tmp_path, capsys):
    data = tmp_path / "records.csv"
    code = main(
        ["fit", "--generate", "vP=1.1e8", "n=12", "noise=0",
         "--data-out", str(data)]
    )
    assert code == 0
    capsys.readouterr()
    code = main(["fit", "--data", str(data)])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["v_p_fitted_m_per_s"] == pytest.approx(1.1e8, rel=1e-6)


def test_fit_data_out_needs_generate(tmp_path, capsys):
    out = tmp_path / "rec.csv"
    assert main(["fit", "--use-bundled", "--data-out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "--data-out" in captured.err and captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_fit_prints_the_bytes_it_writes(tmp_path, capsys):
    out = tmp_path / "fit.json"
    assert main(["fit", "--use-bundled", "--out", str(out)]) == 0
    assert capsys.readouterr().out == out.read_text()


def test_fit_malformed_csv_names_line(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text(f"{RECORDS_CSV_HEADER}\n54.0,1.67e-10\nbogus\n")
    assert main(["fit", "--data", str(bad)]) == 2
    assert "bad.csv:3" in capsys.readouterr().err


def test_fit_clamped_reports_null(tmp_path, capsys):
    data = tmp_path / "classical.csv"
    records = synthesize_records(10, math.inf, seed=4)
    with open(data, "w") as fh:
        fh.write(RECORDS_CSV_HEADER + "\n")
        for rec in records:
            fh.write(f"{rec.voltage:.17g},{rec.wavelength_exp * 1.001:.17g}\n")
    assert main(["fit", "--data", str(data)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["v_p_fitted_m_per_s"] is None
    assert doc["clamped_to_classical"] is True
    capsys.readouterr()
    assert main(
        ["fit", "--data", str(data), "--curves", str(tmp_path / "c.csv")]
    ) == 2


def test_fit_clamped_with_curves_writes_nothing(tmp_path, capsys):
    data = tmp_path / "classical.csv"
    records = synthesize_records(10, math.inf, seed=4)
    with open(data, "w") as fh:
        fh.write(RECORDS_CSV_HEADER + "\n")
        for rec in records:
            fh.write(f"{rec.voltage:.17g},{rec.wavelength_exp * 1.001:.17g}\n")
    out = tmp_path / "f.json"
    assert main(["fit", "--data", str(data), "--out", str(out),
                 "--curves", str(tmp_path / "c.csv")]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--curves: fit clamped" in captured.err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["classical.csv"]


@pytest.mark.parametrize("noise", ["nan", "inf", "-0.1"])
def test_fit_generate_rejects_bad_noise(capsys, noise):
    assert main(["fit", "--generate", "n=5", f"noise={noise}"]) == 2
    captured = capsys.readouterr()
    assert "--generate: noise_relative must be non-negative" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("pair", ["vP", "foo=1"])
def test_fit_generate_rejects_a_pair_that_is_not_a_key_value(capsys, pair):
    assert main(["fit", "--generate", "n=5", pair]) == 2
    captured = capsys.readouterr()
    assert captured.err == ("error: --generate: expected key=value with key in "
                            f"vP/n/seed/noise/vmin/vmax, got '{pair}'\n")
    assert captured.out == ""


def test_fit_curves_writes_the_layers_compare_writes(tmp_path, capsys):
    generate = ["--generate", "vP=1.3e8", "n=12", "noise=0.01", "seed=3"]
    assert main(["fit", *generate, "--curves", str(tmp_path / "curves.csv")]) == 0
    assert capsys.readouterr().err == f"wrote {tmp_path / 'curves.csv'}\n"
    assert main(["compare", *generate, "--out", str(tmp_path / "layers.csv")]) == 0
    assert (tmp_path / "curves.csv").read_bytes() == (tmp_path / "layers.csv").read_bytes()


@pytest.mark.parametrize("subcommand", ["fit", "compare"])
@pytest.mark.parametrize("points", ["0", "1", "-3", "2.5"])
def test_curve_points_must_be_a_positive_integer(tmp_path, capsys, subcommand, points):
    # A curve needs two ends: one point would draw curveA,0,0 and curveB,0,0.
    out = tmp_path / "layers.csv"
    flag = "--curves" if subcommand == "fit" else "--out"
    assert main([subcommand, "--use-bundled", "--curve-points", points, flag, str(out)]) == 2
    assert "--curve-points: must be an integer >= 2" in capsys.readouterr().err
    assert not out.exists()


def test_fit_requires_exactly_one_source(tmp_path, capsys):
    assert main(["fit"]) == 2
    assert main(
        ["fit", "--data", str(tmp_path / "x.csv"), "--generate", "n=5"]
    ) == 2


def test_fit_bundled_dataset(capsys):
    assert main(["fit", "--use-bundled"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert 1.0e8 <= doc["v_p_fitted_m_per_s"] <= 1.6e8
    assert doc["n_records"] == 16


# --- compare -----------------------------------------------------------------------

def test_compare_output_mode_follows_the_umask(tmp_path, capsys):
    out = tmp_path / "layers.csv"
    old = os.umask(0o022)
    try:
        assert main(["compare", "--use-bundled", "--out", str(out)]) == 0
    finally:
        os.umask(old)
    assert stat.S_IMODE(out.stat().st_mode) == 0o644
    assert list(tmp_path.iterdir()) == [out]


def test_compare_layers_and_summary(tmp_path, capsys):
    out = tmp_path / "layers.csv"
    code = main(
        ["compare", "--generate", "vP=1.3e8", "n=12", "noise=0.01", "seed=3",
         "--curve-points", "50", "--out", str(out)]
    )
    assert code == 0
    assert "ratio" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert lines[0] == "layer,v_m_per_s,k_inv_m"
    layers = [ln.split(",")[0] for ln in lines[1:]]
    assert layers.count("points") == 12
    assert layers.count("curveA") == 50
    assert layers.count("curveB") == 50
    curve_a = [ln.split(",") for ln in lines[1:] if ln.startswith("curveA")]
    curve_b = [ln.split(",") for ln in lines[1:] if ln.startswith("curveB")]
    for (_, va, ka), (_, vb, kb) in zip(curve_a, curve_b):
        assert va == vb
        assert float(kb) >= float(ka)


BUNDLED_SUMMARY = ("v_P = 1.30042e+08 m/s; variance modified = 1.68486e+17 1/m^2, "
                   "classical = 3.82261e+17 1/m^2 (ratio 2.269)")


def _model_variance(records, v_p):
    """Mean squared wavenumber residual of the model at v_p, by numpy."""
    electrons = [FreeParticle.electron_from_voltage(rec.voltage) for rec in records]
    k_exp = np.array([1.0 / rec.wavelength_exp for rec in records])
    k_model = np.array([e.k + e.nu / v_p for e in electrons])
    return float(np.mean((k_exp - k_model) ** 2))


@pytest.mark.parametrize("vp", ["1e7", "5e8"])
def test_compare_vp_reports_the_model_it_draws(tmp_path, capsys, vp):
    # The summary gives the variance of curve B's model at --vp, not the fit's.
    bundled = read_records_csv(Path(qfront.__file__).parent / "data" / "davisson_germer.csv")
    variance, classical = _model_variance(bundled, float(vp)), _model_variance(bundled, math.inf)
    assert main(["compare", "--use-bundled", "--vp", vp,
                 "--out", str(tmp_path / "layers.csv")]) == 0
    summary = capsys.readouterr().out.splitlines()[-1]
    assert summary.startswith(f"v_P = {float(vp):.5e} m/s; variance modified = "
                              f"{variance:.5e} 1/m^2, classical = {classical:.5e} 1/m^2")
    assert float(summary.split("ratio ")[1][:-1]) == pytest.approx(classical / variance,
                                                                   abs=6e-4)
    # Without --vp the line is the fit's, as it always was.
    assert main(["compare", "--use-bundled", "--out", str(tmp_path / "layers.csv")]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == BUNDLED_SUMMARY


def test_compare_exact_fit_prints_no_infinite_ratio(tmp_path, capsys):
    # Two noiseless records at 1e8 m/s leave every residual exactly 0.
    assert main(["compare", "--generate", "vP=1e8", "n=2",
                 "--out", str(tmp_path / "layers.csv")]) == 0
    assert capsys.readouterr().out.splitlines()[-1].endswith(
        "variance modified = 0.00000e+00 1/m^2, classical = 1.05503e+18 1/m^2 "
        "(ratio > 1.79769e+308)")


def test_compare_ratio_too_wide_for_three_decimals_is_exponential(tmp_path, capsys):
    # Two noiseless records at 1.3e8 m/s fit all but exactly, so the classical
    # variance is about 3e31 times the modified one: 36 characters at %.3f.
    assert main(["compare", "--generate", "vP=1.3e8", "n=2",
                 "--out", str(tmp_path / "layers.csv")]) == 0
    assert capsys.readouterr().out.splitlines()[-1].endswith("(ratio 3.327224e+31)")


def test_compare_clamped_needs_explicit_vp(tmp_path, capsys):
    data = tmp_path / "classical.csv"
    records = synthesize_records(10, math.inf, seed=4)
    with open(data, "w") as fh:
        fh.write(RECORDS_CSV_HEADER + "\n")
        for rec in records:
            fh.write(f"{rec.voltage:.17g},{rec.wavelength_exp * 1.001:.17g}\n")
    out = tmp_path / "layers.csv"
    assert main(["compare", "--data", str(data), "--out", str(out)]) == 2
    assert "clamped" in capsys.readouterr().err
    assert not out.exists()
    assert main(
        ["compare", "--data", str(data), "--vp", "1.3e8", "--out", str(out)]
    ) == 0
    assert out.exists()
    # The modified model at --vp, not the clamped fit's classical variance.
    summary = capsys.readouterr().out.splitlines()[-1]
    variance = _model_variance(read_records_csv(data), 1.3e8)
    assert f"variance modified = {variance:.5e} 1/m^2" in summary
    assert summary.count(f"{variance:.5e}") == 1


# --- help and usage ----------------------------------------------------------------

@pytest.mark.parametrize(
    "subcommand", ["eikonal", "propagate", "dispersion", "fit", "compare"]
)
def test_subcommand_help_mentions_units(subcommand, capsys):
    assert main([subcommand, "--help"]) == 0
    text = capsys.readouterr().out
    assert "m/s" in text or "meters" in text


def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == 2


def test_unknown_flag_is_usage_error(capsys):
    assert main(["dispersion", "--nope"]) == 2


EIKONAL = ["eikonal", "--shape", "16", "--spacing", "1", "--source", "3", "--speed", "1",
           "--out", "tt.csv"]
PROPAGATE = ["propagate", "--shape", "16", "--spacing", "1", "--gaussian-center", "8",
             "--gaussian-width", "2", "--mass", "1", "--dt", "1e-4", "--n-steps", "2",
             "--out-prefix", "run"]
PROPAGATE_INITIAL = ["propagate", "--shape", "16", "--spacing", "1", "--initial", "init.csv",
                     "--mass", "1", "--dt", "1e-4", "--n-steps", "2", "--out-prefix", "run"]
# An electron packet, for rows with a dt or spacing at which c*H = i*dt*H/(2*hbar)
# overflows.
ELECTRON_1D = ["propagate", "--shape", "64", "--spacing", "1e-11", "--gaussian-center",
               "3e-10", "--gaussian-width", "4e-11", "--n-steps", "3", "--out-prefix", "big"]
ELECTRON_2D = ["propagate", "--shape", "64,64", "--spacing", "1e-11,1e-11",
               "--gaussian-center", "3e-10,3e-10", "--gaussian-width", "4e-11",
               "--n-steps", "3", "--out-prefix", "big"]

GRID = "--shape/--spacing/--origin"
PACKET = "--gaussian-center/--gaussian-width/--gaussian-carrier"

# Usage errors: argv, and the flags the last line of stderr must name (the
# usage text argparse prints above it names every flag).  A repeated flag
# takes its last value; --source appends a cell.  Rows read the files that
# write_usage_error_inputs writes.
USAGE_ERRORS = [
    (EIKONAL + ["--shape", "10.5"], "--shape"),
    (EIKONAL + ["--spacing", "1,a"], "--spacing"),
    (PROPAGATE + ["--origin", "x"], "--origin"),
    (EIKONAL + ["--source", "1.5"], "--source"),
    (PROPAGATE + ["--gaussian-center", "a"], "--gaussian-center"),
    (EIKONAL + ["--speed", "0"], "--speed"),
    (EIKONAL + ["--speed-csv", "v.csv"], "--speed-csv"),  # as well as --speed
    (EIKONAL + ["--speed", "1e-320"], "--speed"),  # 1/speed overflows
    (EIKONAL + ["--speed", "1e-300"], "--speed"),  # (1/speed)**2 overflows
    (EIKONAL + ["--source-ball-radius", "nan"], "--source-ball-radius"),
    (EIKONAL + ["--spacing", "5e-324"], GRID),  # 1/spacing**2 overflows
    (EIKONAL + ["--spacing", "1e-320"], GRID),
    (EIKONAL + ["--spacing", "1e-300"], GRID),  # spacing**2 underflows to 0
    (EIKONAL + ["--spacing", "1e300"], GRID),  # the squared extent overflows
    (["eikonal", "--shape", "16,16", "--spacing", "1e300,1e300", "--source", "3,3",
      "--speed", "1", "--out", "tt.csv"], GRID),
    (EIKONAL + ["--spacing", "1.7e308"], GRID),  # the extent overflows
    # t_P squared overflows in the march beyond the seed ball, leaving t_P inf.
    (EIKONAL + ["--spacing", "1e150", "--speed", "1e-100"], "--speed"),
    (EIKONAL + ["--shape", "4", "--verify-analytic"], "--verify-analytic"),  # no cell 5 away
    (["eikonal", "--shape", "16", "--spacing", "1", "--source", "3", "--out", "tt.csv",
      "--speed-csv", "ones.csv", "--verify-analytic"], "--verify-analytic"),
    (PROPAGATE + ["--potential", "nan_potential.csv"], "--potential"),
    # Each number flag is typed, so argparse names it alone.
    (PROPAGATE + ["--dt", "-1"], "--dt"),
    (PROPAGATE + ["--mass", "0"], "--mass"),
    (PROPAGATE + ["--gaussian-width", "0"], "--gaussian-width"),
    (PROPAGATE + ["--gaussian-carrier", "inf"], "--gaussian-carrier"),
    # The carrier phase 2*pi*wavenumber*x overflows.
    (["propagate", "--shape", "64", "--gaussian-center", "3e301", "--gaussian-width", "1e150",
      "--gaussian-carrier", "1e10", "--dt", "1e-5", "--n-steps", "2", "--out-prefix", "r",
      "--spacing", "1e300"], PACKET),
    (PROPAGATE + ["--gaussian-center", "1e300", "--gaussian-carrier", "1e10",
                  "--origin", "1e300"], PACKET),
    (PROPAGATE + ["--gaussian-center", "1.7e308", "--gaussian-carrier", "1",
                  "--origin", "1.7e308"], PACKET),
    (PROPAGATE + ["--gaussian-carrier", "1.7e308"], PACKET),
    (PROPAGATE + ["--spacing", "1.7e308"], GRID),  # the cell coordinates overflow
    (PROPAGATE + ["--n-steps", "-3"], "--n-steps"),
    (PROPAGATE + ["--save-every", "-2"], "--save-every"),
    (PROPAGATE + ["--eval-time", "inf"], "--eval-time"),
    (ELECTRON_1D + ["--dt", "2e-19", "--eval-time", "1e300"], "--eval-time"),  # its step overflows
    (PROPAGATE + ["--mode", "compare-a8", "--traveltime", "inf_tt.csv"], "--traveltime"),
    # Flags the run would ignore.
    (PROPAGATE + ["--initial", "init.csv"], "--initial"),  # with --gaussian-center
    (PROPAGATE_INITIAL + ["--gaussian-width", "2"], "--gaussian-width"),
    (PROPAGATE_INITIAL + ["--gaussian-carrier", "0.1"], "--gaussian-carrier"),
    (PROPAGATE + ["--vp", "5"], "--vp"),  # without --traveltime
    (["propagate", "--shape", "16", "--spacing", "1", "--gaussian-center", "8", "--mass", "1",
      "--dt", "1e-4", "--n-steps", "2", "--out-prefix", "run"], "--gaussian-center"),
    (ELECTRON_1D + ["--dt", "1e300"], "--shape/--spacing/--potential/--mass/--dt"),
    (ELECTRON_2D + ["--dt", "1e300"], "--shape/--spacing/--potential/--mass/--dt"),
    (ELECTRON_1D + ["--dt", "2e-19", "--spacing", "1e-200"],  # 1/spacing^2 overflows
     "--shape/--spacing/--potential/--mass/--dt"),
    (["dispersion", "--vp", "1.3e8", "--voltage", "nan"], "--voltage"),
    # The wavenumber underflows to 0, so the table would divide by it.
    (["dispersion", "--vp", "1.3e8", "--voltage", "1e-320"], "--voltage"),
    (["dispersion", "--vp", "1.3e8", "--speed", "1e-320"], "--speed"),
    (["fit", "--data", "missing.csv"], "--data"),
    (["fit", "--data", "one_record.csv"], "--data"),
    (["compare", "--out", "layers.csv", "--data", "one_record.csv"], "--data"),
    (["fit", "--generate", "n=x"], "--generate"),
    (["fit", "--generate", "vP=1.3e8", "n=8", "vmax=1e300"], "--generate"),  # speed overflows
    # nu = eV/h overflows from about 7.4e293 V, before the speed does.
    (["dispersion", "--vp", "1.3e8", "--voltage", "1e295"], "--voltage"),
    (["dispersion", "--vp", "1.3e8", "--speed", "1e295"], "--speed"),
    (["fit", "--generate", "vP=1.3e8", "n=8", "vmax=1e295"], "--generate"),
    # np.linspace overflows in (n - 1) * step before it sets the last point.
    (["fit", "--generate", "vP=1.3e8", "n=8", "vmax=1.7976931348623157e+308"], "--generate"),
    (["fit", "--generate", "vP=1.3e8", "n=8", "vmax=1e295", "--curves", "c.csv"], "--generate"),
    (["fit", "--data", "big_voltage.csv"], "--data"),
    (["fit", "--generate", "vP=1e-150", "n=8"], "--generate"),  # the squared residuals overflow
    # The sum of nu**2 underflows to 0, or the sums overflow.
    (["fit", "--generate", "vP=1.3e8", "n=8", "vmin=1e-200", "vmax=1e-199"], "--generate"),
    (["fit", "--generate", "vP=1.3e8", "n=8", "vmin=1e139", "vmax=1e140"], "--generate"),
    (["dispersion", "--vp", "1e-300", "--voltage", "54"], "--vp"),  # k_l overflows
    (["compare", "--use-bundled", "--out", "layers.csv", "--vp", "1e-300"], "--vp"),
    (["compare", "--use-bundled", "--out", "layers.csv", "--vp", "inf"], "--vp"),
    # The cell volume overflows, or underflows to 0.
    (["propagate", "--shape", "16,16", "--gaussian-center", "7e160,7e160", "--gaussian-width",
      "1e150", "--dt", "1e-19", "--n-steps", "2", "--out-prefix", "r",
      "--spacing", "1e160,1e160"], "--shape/--spacing/--potential/--mass/--dt"),
    (["propagate", "--shape", "16,16,16", "--gaussian-center", "8e-110,8e-110,8e-110",
      "--gaussian-width", "2e-110", "--dt", "1e-300", "--n-steps", "2", "--out-prefix", "r",
      "--spacing", "1e-110,1e-110,1e-110"], "--shape/--spacing/--potential/--mass/--dt"),
    # 2/spacing**2 overflows in the stepper, though hbar**2/(2m)/spacing**2 does not.
    (PROPAGATE + ["--spacing", "1e-155"], "--shape/--spacing/--potential/--mass/--dt"),
    (["compare", "--use-bundled", "--out", "layers.csv", "--curve-points", "1"],
     "--curve-points"),
]


def write_usage_error_inputs(directory: Path) -> None:
    """The input files the USAGE_ERRORS rows read, written into directory."""
    potential = np.zeros(16)
    potential[5] = math.nan
    write_field_csv(ScalarField(Grid((16,), (1.0,)), potential),
                    directory / "nan_potential.csv")
    write_field_csv(ScalarField(Grid((16,), (1.0,)), np.ones(16)), directory / "ones.csv")
    write_field_csv(gaussian_packet(Grid((16,), (1.0,)), (8.0,), 2.0), directory / "init.csv")
    unreached = np.where(np.arange(16) < 10, 0.0, math.inf)  # t_P inf on cells 10-15
    write_field_csv(ScalarField(Grid((16,), (1.0,)), unreached), directory / "inf_tt.csv")
    (directory / "one_record.csv").write_text(f"{RECORDS_CSV_HEADER}\n54,1.66e-10\n")
    (directory / "big_voltage.csv").write_text(
        f"{RECORDS_CSV_HEADER}\n54,1.66e-10\n1e295,1e-300\n")


@pytest.mark.parametrize("argv, flag", USAGE_ERRORS,
                         ids=[" ".join(argv[:1] + argv[-2:]) for argv, _ in USAGE_ERRORS])
def test_usage_error_names_its_flag_and_writes_nothing(tmp_path, monkeypatch, capsys,
                                                       argv, flag):
    monkeypatch.chdir(tmp_path)
    write_usage_error_inputs(tmp_path)
    inputs = sorted(os.listdir(tmp_path))
    assert main(argv) == 2
    assert f" {flag}: " in capsys.readouterr().err.splitlines()[-1]
    assert sorted(os.listdir(tmp_path)) == inputs


# Each numeric flag, or --generate key, on a base command of 16 cells and 2
# steps, at extreme finite values: the baseline probe's six, three more, and
# any finite float.
FLAG_BASES = [
    (EIKONAL, ["--spacing", "--origin", "--speed", "--source-ball-radius"]),
    (PROPAGATE, ["--spacing", "--origin", "--gaussian-center", "--gaussian-width",
                 "--gaussian-carrier", "--mass", "--dt", "--eval-time"]),
    (PROPAGATE + ["--mode", "modified", "--traveltime", "ramp_tt.csv", "--vp", "1",
                  "--localtime-out", "lt.csv"],
     ["--spacing", "--origin", "--gaussian-center", "--gaussian-width", "--gaussian-carrier",
      "--mass", "--dt", "--eval-time", "--vp"]),
    (["dispersion", "--vp", "1.3e8", "--voltage", "54", "--speed", "4e6"],
     ["--voltage", "--speed", "--vp"]),
    (["compare", "--use-bundled", "--out", "layers.csv"], ["--vp"]),
    (["fit", "--out", "fit.json", "--curves", "curves.csv", "--generate", "vP=1.3e8", "n=8"],
     ["vP=", "n=", "seed=", "noise=", "vmin=", "vmax="]),
]
FLAG_CASES = [(base, flag) for base, flags in FLAG_BASES for flag in flags]
EXTREMES = [5e-324, 1e-320, 1e-300, -0.0, 1e300, 1.7e308, 1e-150, 1e150, 1e295]
NON_FINITE_TEXT = re.compile(r"(?i)\b(inf|infinity|nan)\b")


@settings(max_examples=150)
@given(case=st.sampled_from(FLAG_CASES),
       value=st.sampled_from(EXTREMES) | st.floats(allow_nan=False, allow_infinity=False))
def test_every_finite_flag_value_exits_0_or_2_and_writes_only_finite_numbers(case, value):
    # A repeated flag takes its last value, and --voltage/--speed add a row.
    base, flag = case
    argv = [*base, f"{flag}{value!r}"] if flag.endswith("=") else [*base, flag, repr(value)]
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as directory:
        os.chdir(directory)
        try:
            ramp = ScalarField(Grid((16,), (1.0,)), np.arange(16) * 1e-5)
            write_field_csv(ramp, "ramp_tt.csv")
            with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                warnings.simplefilter("error")
                code = main(argv)
            written = sorted(set(os.listdir()) - {"ramp_tt.csv"})
            texts = [Path(name).read_text() for name in written]
        finally:
            os.chdir(cwd)
    if code == 2:
        assert re.search(r"(error: |argument )--[a-z]", err.getvalue().splitlines()[-1]), argv
        assert written == [], argv
    else:
        assert code == 0, (argv, err.getvalue())
        for name, text in zip(["stdout", *written], [out.getvalue(), *texts]):
            assert not NON_FINITE_TEXT.search(text), (argv, name)


def readme_commands() -> list[list[str]]:
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = text.replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines
            if line.startswith("qfront ")]


# sha256 prefixes of every file the README commands write, run in order in an
# empty directory, and of their joined stdout.  The t_P march, the packet's
# libm factors and the 1-D Crank-Nicolson solve (LAPACK zgttrf/zgttrs) feed
# these bytes, which do not move with numpy's AVX-512 loops disabled; they
# were computed with numpy 2.4.6 and scipy 1.17.1, the versions CI pins.
README_DIGESTS = {
    "fit.json": "f5397c8fdd454f07",
    "layers.csv": "a703fef4af6222f5",
    "lt.csv": "36ac6584ee315658",
    "records.csv": "a02b223edd383432",
    "run_manifest.json": "f3a4065073a872a0",
    "run_state.csv": "367922f64cce9a78",
    "runmod_manifest.json": "567581180b0b10a5",
    "runmod_state.csv": "10cd2e4be91519a3",
    "tt.csv": "e8c55b6f04484b53",
    "tt1d.csv": "abf8439e36d486f5",
    "stdout": "e5ad956b7f3dd2ee",
}


def readme_digests(directory: Path, stdout: str) -> dict[str, str]:
    """A table like README_DIGESTS for the files now in directory and for stdout."""
    def digest(data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()[:16]

    digests = {path.name: digest(path.read_bytes()) for path in directory.iterdir()}
    return {**digests, "stdout": digest(stdout.encode())}


def test_readme_has_commands_of_every_subcommand():
    assert {argv[0] for argv in readme_commands()} == {
        "eikonal", "propagate", "dispersion", "fit", "compare"}


@pytest.mark.parametrize("argv", readme_commands(),
                         ids=lambda argv: argv[0])
def test_readme_command_parses(argv):
    # A flag deleted or renamed in the parser must not linger in the README.
    try:
        build_parser().parse_args(argv)
    except SystemExit:
        pytest.fail(f"README command does not parse: qfront {' '.join(argv)}")


def test_readme_commands_run_in_order(tmp_path, monkeypatch, capsys):
    # Each command may read what an earlier one wrote, as a reader would run
    # them, and every byte they write or print is pinned.
    monkeypatch.chdir(tmp_path)
    stdout = []
    for argv in readme_commands():
        assert main(argv) == 0, f"README command failed: qfront {' '.join(argv)}"
        stdout.append(capsys.readouterr().out)
    assert readme_digests(tmp_path, "".join(stdout)) == README_DIGESTS


# --- imports -----------------------------------------------------------------------

@pytest.mark.parametrize("statement", [
    "import qfront",
    "from qfront.cli import main; assert main(['fit', '--use-bundled']) == 0",
    "from qfront.cli import main; assert main(['fit', '--data', 'records.csv']) == 0",
    "from qfront.cli import main; assert main(['dispersion', '--vp', '1.3e8', "
    "'--voltage', '54']) == 0",
    "from qfront.cli import main; assert main(['compare', '--use-bundled', "
    "'--out', 'layers.csv']) == 0",
    "from qfront.cli import main; assert main(['dispersion', '--vp', '1.3e8', "
    "'--voltage', 'nan']) == 2",
    "from qfront.cli import main; assert main(['fit', '--data', 'missing.csv']) == 2",
])
def test_fresh_process_without_stepper_leaves_scipy_sparse_unloaded(tmp_path, statement):
    # Only the grid commands need numpy, and only the 1-D Crank-Nicolson
    # stepper scipy; importing qfront, tabulating dispersion or fitting
    # records pays for neither, which pytest, having numpy loaded, would not
    # show.
    bundled = Path(qfront.__file__).parent / "data" / "davisson_germer.csv"
    (tmp_path / "records.csv").write_bytes(bundled.read_bytes())
    run = _fresh_python(tmp_path, f"import sys; {statement}; "
                        "print('scipy.sparse' in sys.modules, 'numpy' in sys.modules)")
    assert run.stdout.splitlines()[-1] == "False False"


@pytest.mark.parametrize("argv", [
    ["propagate", *GRID_1D, "--gaussian-center", "0.5", "--gaussian-width", "0.08",
     "--mass", "1", "--dt", "1e-4", "--n-steps", "10", "--out-prefix", "run"],
    [*MODIFIED_WITH_LOCALTIME, "--vp", "5"],
    ["propagate", "--shape", "16,12", "--spacing", f"{1 / 15},{1 / 11}",
     "--gaussian-center", "0.5,0.5", "--gaussian-width", "0.15", "--mass", "1",
     "--dt", "1e-4", "--n-steps", "2", "--out-prefix", "run"],
    ["propagate", "--shape", "9,8,7", "--spacing", f"{1 / 8},{1 / 7},{1 / 6}",
     "--gaussian-center", "0.5,0.5,0.5", "--gaussian-width", "0.15", "--mass", "1",
     "--dt", "1e-4", "--n-steps", "2", "--out-prefix", "run"],
], ids=["1-D", "1-D modified", "2-D", "3-D"])
def test_fresh_propagate_leaves_scipy_sparse_and_linalg_unloaded(tmp_path, argv):
    # The 1-D stepper loads scipy's LAPACK binding alone, not the scipy.linalg
    # package, and the 2-D and 3-D one runs its COCG in numpy.
    write_constant_traveltime(tmp_path / "tt.csv", 4e-4)
    run = _fresh_python(tmp_path, "import sys; from qfront.cli import main; "
                        f"assert main({argv!r}) == 0; "
                        "print('scipy.sparse' in sys.modules, 'scipy.linalg' in sys.modules)")
    assert run.stdout.splitlines()[-1] == "False False"


def test_fresh_2d_history_is_the_same_at_1_and_2_blas_threads(tmp_path):
    # At 128^2 a BLAS level-1 reduction splits its sum between threads, so a
    # solve that called BLAS would give other bits at 2 threads than at 1.
    code = f"""if True:
        import sys
        sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})
        from test_schrodinger import nd_digest
        print(nd_digest((128, 128), 7, n_steps=10))"""
    digests = [_fresh_python(tmp_path, code, OPENBLAS_NUM_THREADS=str(n)).stdout.split()[-1]
               for n in (1, 2)]
    assert digests[0] == digests[1]


def test_fresh_pinned_histories_are_the_same_without_numpy_avx512_loops(tmp_path):
    # numpy's AVX-512 np.exp gives other bits than its AVX2 one, so packets
    # are built from libm factors, and the N-D solve's einsum reductions do
    # not move: a CPU without AVX-512 gets the pinned 1-D and 2-D bits.
    avx512 = ("X86_V4", "AVX512_ICL", "AVX512_SPR")
    present = [f for f in avx512 if _multiarray_umath.__cpu_features__[f]]
    code = f"""if True:
        import sys
        sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})
        from numpy._core._multiarray_umath import __cpu_features__
        from test_schrodinger import pinned_1d_digest, pinned_nd_digest
        print(pinned_1d_digest("potential"), pinned_nd_digest("2-D potential"),
              *(f for f in {avx512!r} if __cpu_features__[f]))"""
    default = _fresh_python(tmp_path, code).stdout.split()
    off = " ".join([os.environ.get("NPY_DISABLE_CPU_FEATURES", ""), *present])
    disabled = _fresh_python(tmp_path, code, NPY_DISABLE_CPU_FEATURES=off).stdout.split()
    assert default[2:] == present
    assert disabled == default[:2]


def test_fresh_1d_history_is_pinned_before_and_after_scipy_linalg(tmp_path):
    # The 1-D stepper loads scipy's LAPACK binding from its file while
    # scipy.linalg is not imported, and takes scipy.linalg's once it is; both
    # give the pinned bits, and a 2-D run between them is unaffected.
    run = _fresh_python(tmp_path, f"""if True:
        import sys, warnings
        warnings.simplefilter("error")
        sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})
        from test_schrodinger import pinned_1d_digest, pinned_nd_digest
        print(pinned_1d_digest("potential"), "scipy.linalg" in sys.modules)
        import scipy.linalg
        print(pinned_nd_digest("2-D potential"))
        print(pinned_1d_digest("potential"), scipy.linalg._flapack.__name__)""")
    assert run.stdout.splitlines() == [
        f"{PINNED_HISTORIES_1D['potential'][2]} False",
        PINNED_HISTORIES_ND["2-D potential"][2],
        f"{PINNED_HISTORIES_1D['potential'][2]} scipy.linalg._flapack",
    ]


def test_fresh_process_resolves_every_public_name(tmp_path):
    # The parameter count covers every exported function, constructor and
    # public method, self and cls excluded, so a new name or option changes it.
    run = _fresh_python(tmp_path, """if True:
        import enum, inspect
        import qfront
        names = {}
        exec("from qfront import *", names)

        def count(fn):
            return sum(p not in ("self", "cls") for p in inspect.signature(fn).parameters)

        params = 0
        for name in qfront.__all__:
            obj = names[name]
            assert obj is getattr(qfront, name), name
            if not inspect.isclass(obj):
                params += count(obj) if callable(obj) else 0
                continue
            if not issubclass(obj, (enum.Enum, BaseException)):
                params += count(obj)
            for attr, member in vars(obj).items():
                member = getattr(member, "__func__", member)  # classmethod, staticmethod
                if not attr.startswith("_") and inspect.isfunction(member):
                    params += count(member)
        assert not hasattr(qfront, "no_such_name")
        print(len(qfront.__all__), params, qfront.solve_traveltime.__module__)""")
    assert run.stdout.split() == ["43", "102", "qfront.eikonal"]


def _fresh_python(cwd: Path, code: str, **env: str) -> subprocess.CompletedProcess:
    """code run by a new interpreter in cwd, importing qfront from this tree,
    with env added to the environment."""
    src = str(Path(qfront.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code], cwd=cwd,
                          env={**os.environ, "PYTHONPATH": path, **env},
                          capture_output=True, text=True, check=True)
