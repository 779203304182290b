import contextlib
import io
import json
import math
import os
import re
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

import qfront
import qfront.schrodinger
from qfront.cli import build_parser, main
from qfront.constants import CODATA2018
from qfront.dispersion import FreeParticle
from qfront.eikonal import TraveltimeField
from qfront.fields import (ComplexField, Grid, ScalarField, l2_norm_squared, read_field_csv,
                           write_field_csv)
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
from measured import environ
from test_bits import PINS, digest, readme, readme_commands

GRID_1D = ["--shape", "64", "--spacing", str(1.0 / 63)]
# A packet on GRID_1D for 10 steps of 1e-4 s: the run spans [0, 1e-3] s.
PROPAGATE_64 = ["propagate", *GRID_1D, "--gaussian-center", "0.5", "--gaussian-width", "0.08",
                "--mass", "1", "--dt", "1e-4", "--n-steps", "10", "--out-prefix", "run"]


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
    write_constant_traveltime(tt, 0.0)
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
    assert manifest["max_norm_drift"] < 1e-10
    assert manifest["outputs"] == [str(tmp_path / "run_state.csv")]


def csv_bytes(field, path) -> bytes:
    write_field_csv(field, str(path))
    return Path(path).read_bytes()


def electron_run(shape, dt, n_steps, center=5e-11, carrier=2e10):
    """An electron packet on a 1e-10 m box of shape (cells, or cells per
    axis), as CLI flags and as the API's full-history run of the same bits;
    at these scales every CN step moves it."""
    shape = tuple(np.atleast_1d(shape).tolist())
    spacing = tuple(1e-10 / (n - 1) for n in shape)
    centers = (center,) * len(shape)
    argv = ["propagate", "--shape", ",".join(map(str, shape)),
            "--spacing", ",".join(map(repr, spacing)),
            "--gaussian-center", ",".join(map(repr, centers)), "--gaussian-width", "1e-11",
            "--gaussian-carrier", repr(carrier), "--dt", repr(dt),
            "--n-steps", str(n_steps)]
    grid = Grid(shape, spacing)
    problem = QuantumProblem(grid, ScalarField(grid, np.zeros(shape)), CODATA2018.m_e, dt)
    initial = gaussian_packet(grid, centers, 1e-11, carrier)
    return argv, initial, propagate_classical(initial, problem, n_steps, history_window=None)


def test_propagate_electron_state_moves_and_matches_the_api(tmp_path):
    argv, initial, full = electron_run(64, 1e-19, 20)
    assert main(argv + ["--out-prefix", str(tmp_path / "run")]) == 0
    state = (tmp_path / "run_state.csv").read_bytes()
    assert state == csv_bytes(full.snapshots[-1], tmp_path / "api.csv")
    assert state != csv_bytes(initial, tmp_path / "initial.csv")
    moved = np.abs(full.snapshots[-1].values - initial.values).max()
    assert moved > 0.1 * np.abs(initial.values).max()


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
def test_propagate_outputs_and_norms_match_the_whole_run(
        n_cells, dt, n_steps, mode, save_every, step_fraction, between, tp_fraction, seed):
    # Every output equals, byte for byte, the same evaluation on the full
    # history, and the manifest's norms are those of the whole run, with
    # --save-every as without.
    a8 = mode == "compare-a8"
    k = a8 + round(step_fraction * (n_steps - 2 * a8))
    eval_time = (k + between * (mode == "modified" and k < n_steps)) * dt
    argv, _, full = electron_run(n_cells, dt, n_steps)
    grid = full.problem.grid
    tt = TraveltimeField(grid, np.random.default_rng(seed).uniform(
        0.0, tp_fraction * n_steps * dt, n_cells))  # max t_P may exceed eval_time
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
    assert manifest["initial_norm"] == full.initial_norm
    assert manifest["max_norm_drift"] == full.norm_drift()
    assert manifest["final_norm"] == l2_norm_squared(full.snapshots[-1])


# (mode, --eval-time in steps of 1e-19 s; None: the default).
STREAMED_CASES = [("classical", None), ("classical", 5), ("modified", None), ("modified", 5),
                  ("modified", 6.25), ("compare-a8", None), ("compare-a8", 5)]


@pytest.mark.parametrize("shape", [64, (24, 20)], ids=["64", "24x20"])
@pytest.mark.parametrize("mode, steps", STREAMED_CASES,
                         ids=[f"{mode}-{steps}" for mode, steps in STREAMED_CASES])
def test_streamed_propagate_writes_the_full_history_evaluations(tmp_path, shape, mode, steps):
    # The CLI copies what its outputs read from the step loop; the API reads a
    # full history.  t_P has whole steps, times between them and cells the
    # front reaches after the evaluation time.
    dt, n_steps = 1e-19, 12
    argv, _, full = electron_run(shape, dt, n_steps)
    grid = full.problem.grid
    rng = np.random.default_rng(5)
    delays = rng.uniform(0.0, 1.5 * n_steps, grid.shape)
    tt = TraveltimeField(grid, np.where(rng.random(grid.shape) < 0.5, np.round(delays), delays)
                         * dt)
    write_field_csv(ScalarField(grid, tt.t_P), tmp_path / "tt.csv")
    argv += ["--mode", mode, "--out-prefix", str(tmp_path / "run")]
    if mode != "classical":
        argv += ["--traveltime", str(tmp_path / "tt.csv")]
    eval_time = (n_steps - (mode == "compare-a8")) * dt
    if steps is not None:
        eval_time = steps * dt
        argv += ["--eval-time", repr(eval_time)]
    assert mode == "classical" or np.any(tt.t_P > eval_time)
    assert main(argv) == 0
    if mode == "classical":
        expected = {"state": full.snapshot_at(eval_time)}
    elif mode == "modified":
        expected = {"state": evaluate_modified(full, tt, eval_time)}
    else:
        expected = dict(zip(["actual", "predicted"], difference_estimate(full, tt, eval_time)))
    for suffix, field in expected.items():
        got = (tmp_path / f"run_{suffix}.csv").read_bytes()
        assert got == csv_bytes(field, tmp_path / "expected.csv"), suffix


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


def test_propagate_save_every_keeps_two_states(tmp_path, capsys):
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


MODIFIED_WITH_LOCALTIME = [*PROPAGATE_64, "--mode", "modified", "--traveltime", "tt64.csv",
                           "--localtime-out", "lt.csv"]


def test_infinite_vp_is_the_classical_limit(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_constant_traveltime(tmp_path / "tt64.csv", 0.0)
    assert main(MODIFIED_WITH_LOCALTIME + ["--vp", "inf"]) == 0
    # front_tol = spacing / (2 v_P) = 0 and theta = t > 0 everywhere.
    rows = (tmp_path / "lt.csv").read_text().splitlines()[1:]
    assert {row.split(",")[-1] for row in rows} == {"P"}
    assert main(["dispersion", "--voltage", "54", "--vp", "inf"]) == 0


def test_propagate_eval_time_matches_the_last_step_to_round_off(tmp_path):
    # 3 * 0.3 = 0.8999999999999999 < 0.9, yet 0.9 s is the last snapshot time.
    code = main(
        ["propagate", "--shape", "16", "--spacing", "1", "--gaussian-center", "8",
         "--gaussian-width", "2", "--mass", "1", "--dt", "0.3", "--n-steps", "3",
         "--eval-time", "0.9", "--out-prefix", str(tmp_path / "run")]
    )
    assert code == 0
    assert (tmp_path / "run_state.csv").exists()


# propagate reads no history window, so it cannot raise HistoryWindowError: the
# CLI no longer catches it.
@pytest.mark.parametrize("error, code", [(ConvergenceError, 1), (HistoryWindowError, None),
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


def test_fit_prints_the_bytes_it_writes(tmp_path, capsys):
    out = tmp_path / "fit.json"
    assert main(["fit", "--use-bundled", "--out", str(out)]) == 0
    assert capsys.readouterr().out == out.read_text()


def write_clamped_records(path) -> None:
    """Ten records 0.1% longer than the classical wavelengths, so the fit
    clamps to the classical limit."""
    with open(path, "w") as fh:
        fh.write(RECORDS_CSV_HEADER + "\n")
        for rec in synthesize_records(10, math.inf, seed=4):
            fh.write(f"{rec.voltage:.17g},{rec.wavelength_exp * 1.001:.17g}\n")


def test_fit_clamped_reports_null(tmp_path, capsys):
    write_clamped_records(tmp_path / "classical.csv")
    assert main(["fit", "--data", str(tmp_path / "classical.csv")]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["v_p_fitted_m_per_s"] is None
    assert doc["clamped_to_classical"] is True


def test_fit_curves_writes_the_layers_compare_writes(tmp_path, capsys):
    generate = ["--generate", "vP=1.3e8", "n=12", "noise=0.01", "seed=3"]
    assert main(["fit", *generate, "--curves", str(tmp_path / "curves.csv")]) == 0
    assert capsys.readouterr().err == f"wrote {tmp_path / 'curves.csv'}\n"
    assert main(["compare", *generate, "--out", str(tmp_path / "layers.csv")]) == 0
    assert (tmp_path / "curves.csv").read_bytes() == (tmp_path / "layers.csv").read_bytes()


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
    # Without --vp, a clamped fit is a usage error (USAGE_ERRORS).
    data = tmp_path / "classical.csv"
    write_clamped_records(data)
    out = tmp_path / "layers.csv"
    assert main(["compare", "--data", str(data), "--vp", "1.3e8", "--out", str(out)]) == 0
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


EIKONAL = ["eikonal", "--shape", "16", "--spacing", "1", "--source", "3", "--speed", "1",
           "--out", "tt.csv"]
# EIKONAL without a speed, for rows that give --speed-csv or none.
EIKONAL_CSV = ["eikonal", "--shape", "16", "--spacing", "1", "--out", "tt.csv", "--source", "3"]
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
TRAVELTIME_64 = [*PROPAGATE_64, "--traveltime", "tt64.csv"]
# Each --initial base reads a file of its shape, e.g. nan_init12x10.csv.
INITIAL_BASES = {
    "64": ["propagate", *GRID_1D, "--mass", "1", "--dt", "1e-4", "--n-steps", "5",
           "--out-prefix", "run"],
    "12x10": ["propagate", "--shape", "12,10", "--spacing", f"{1 / 11},{1 / 9}", "--mass", "1",
              "--dt", "1e-4", "--n-steps", "5", "--out-prefix", "run"],
}
# name -> (cell, value, message): a packet with cell (on every axis; None: every
# interior cell) set to value, which propagate_classical would reject, as
# --initial rejects it.
BAD_INITIAL = {
    "nan": (3, math.nan, "state contains non-finite values"),
    "inf": (3, math.inf, "state contains non-finite values"),
    "edge": (0, 1.0, "state does not vanish on the boundary cell layer"),
    "zero": (None, 0.0, "initial state has zero norm"),
    "big": (3, 1e200, "the initial state's squared norm overflows"),
    "tiny": (None, 1e-200, "the initial state's squared norm underflows to 0"),
}
# flag -> a run on GRID_1D that reads that field input once the flag is added.
FIELD_INPUT_BASES = {
    "--initial": [*INITIAL_BASES["64"], "--mode", "modified", "--traveltime", "tt64.csv"],
    "--potential": [*TRAVELTIME_64, "--mode", "modified"],
    "--traveltime": [*PROPAGATE_64, "--mode", "modified"],
}
# mode -> (the window its --eval-time error states, times outside it).  The
# run of PROPAGATE_64 spans [0, 1e-3] s; only mode modified interpolates
# between steps, and compare-a8 needs a step on each side of the evaluation.
EVAL_WINDOWS = {
    "classical": ("a step time in [0, 0.001] s", ["-0.0001", "1.1e-3", "1.5e-4"]),
    "modified": ("a time in [0, 0.001] s", ["-0.0001", "1.1e-3"]),
    "compare-a8": ("a step time in [0.0001, 0.0009] s",
                   ["-0.0001", "1.1e-3", "1.5e-4", "0", "1e-3"]),
}

GRID = "--shape/--spacing/--origin"
PACKET = "--gaussian-center/--gaussian-width/--gaussian-carrier"
STEP = "--shape/--spacing/--potential/--mass/--dt"

# Usage errors: argv, and the flag and message that the last line of stderr
# must contain (the usage text argparse prints above it names every flag).  A
# repeated flag takes its last value; --source appends a cell.  A row that
# varies two flags gives them as --flag=value, so its id names both.  Rows
# read the files that write_usage_error_inputs writes.
USAGE_ERRORS = [
    ([], "the following arguments are required: subcommand"),
    (["dispersion", "--voltage", "54", "--vp", "1.3e8", "--nope"],
     "unrecognized arguments: --nope"),
    (EIKONAL + ["--shape", "10.5"], "--shape: invalid comma-separated int value: '10.5'"),
    (EIKONAL + ["--spacing", "1,a"], "--spacing: invalid comma-separated float value: '1,a'"),
    (PROPAGATE + ["--origin", "x"], "--origin: invalid comma-separated float value: 'x'"),
    (EIKONAL + ["--source", "1.5"], "--source: invalid comma-separated int value: '1.5'"),
    (EIKONAL + ["--source", "16"], "--source: source cell (16,) outside grid (16,)"),
    (PROPAGATE + ["--gaussian-center", "a"],
     "--gaussian-center: invalid comma-separated float value: 'a'"),
    *[(EIKONAL + ["--speed", speed], "--speed: must be positive and finite")
      for speed in ["0", "inf", "nan", "-1"]],
    (EIKONAL_CSV, "one of the arguments --speed --speed-csv is required"),
    (EIKONAL + ["--speed-csv", "v.csv"], "--speed-csv: not allowed with argument --speed"),
    (EIKONAL + ["--speed", "1e-320"], "--speed: speed 1e-320 is so small that 1/speed overflows"),
    (EIKONAL + ["--speed", "1e-300"],
     "--speed: speed 1e-300 is so small that (1/speed)**2 overflows"),
    *[(EIKONAL_CSV + ["--speed-csv", f"{name}_speed.csv"],
       "--speed-csv: speed must be positive and finite") for name in ["nan", "inf", "zero"]],
    (EIKONAL_CSV + ["--speed-csv", "cells32.csv"],
     "--speed-csv: file shape (32,) does not match --shape (16,)"),
    (["eikonal", *GRID_1D, "--source", "3", "--out", "tt.csv", "--speed-csv", "complex.csv"],
     "--speed-csv: complex values for a real-valued field"),
    *[(EIKONAL + ["--source-ball-radius", radius], "--source-ball-radius: must be finite and >= 0")
      for radius in ["nan", "inf"]],
    # 1/spacing**2 overflows, or spacing**2 underflows to 0.
    *[(EIKONAL + ["--spacing", spacing],
       f"{GRID}: spacing {spacing} is so small that 1/spacing**2 overflows")
      for spacing in ["5e-324", "1e-320", "1e-300"]],
    (EIKONAL + ["--spacing", "1e300"], f"{GRID}: the squared grid extent overflows"),
    (["eikonal", "--shape", "16,16", "--spacing", "1e300,1e300", "--source", "3,3",
      "--speed", "1", "--out", "tt.csv"], f"{GRID}: the squared grid extent overflows"),
    (EIKONAL + ["--spacing", "1.7e308"],
     f"{GRID}: the last cell's coordinate 0.0 + 1.7e+308 * 15 overflows on axis 0"),
    # t_P squared overflows in the march beyond the seed ball, leaving t_P inf.
    (EIKONAL + ["--spacing", "1e150", "--speed", "1e-100"],
     "--speed: the squared traveltimes overflow in the upwind update"),
    (EIKONAL + ["--shape", "4", "--verify-analytic"],
     "--verify-analytic: no cell lies beyond 5.0 cells of the source"),
    (EIKONAL_CSV + ["--speed-csv", "ones.csv", "--verify-analytic"],
     "--verify-analytic: the analytic cone needs a uniform speed"),
    (PROPAGATE + ["--potential", "nan_potential.csv"],
     "--potential: potential contains non-finite values"),
    (PROPAGATE + ["--potential", "cells4x4.csv"],  # a 2-D file for a 1-D grid
     "--potential: file shape (4, 4) does not match --shape (16,)"),
    # 32 cells at this spacing would overflow the last coordinate.
    (PROPAGATE + ["--potential", "cells32.csv", "--spacing", "1e307"],
     "--potential: file shape (32,) does not match --shape (16,)"),
    *[(FIELD_INPUT_BASES[flag] + [flag, name], f"{flag}: {message}")
      for flag in FIELD_INPUT_BASES
      for name, message in [("cells32.csv", "file shape (32,) does not match --shape (64,)"),
                            ("missing.csv", "no such file: missing.csv")]],
    *[(FIELD_INPUT_BASES[flag] + [flag, "complex.csv"],
       f"{flag}: complex values for a real-valued field")
      for flag in ["--potential", "--traveltime"]],
    *[(INITIAL_BASES[shape] + ["--initial", f"{name}_init{shape}.csv"], f"--initial: {message}")
      for shape in INITIAL_BASES for name, (_, _, message) in BAD_INITIAL.items()],
    # Each number flag is typed, so argparse names it alone.
    (PROPAGATE + ["--dt", "-1"], "--dt: must be positive and finite"),
    (PROPAGATE + ["--mass", "0"], "--mass: must be positive and finite"),
    *[(PROPAGATE + ["--gaussian-width", width], "--gaussian-width: must be positive and finite")
      for width in ["0", "nan", "inf"]],
    *[(PROPAGATE + ["--gaussian-carrier", carrier], "--gaussian-carrier: must be finite")
      for carrier in ["inf", "nan"]],
    *[(PROPAGATE + ["--origin", origin], f"{GRID}: origin must be finite")
      for origin in ["nan", "inf"]],
    (PROPAGATE + ["--gaussian-center", "nan"], f"{PACKET}: center must be finite"),
    *[(argv, f"{PACKET}: the carrier phase 2*pi*wavenumber*x overflows") for argv in [
        ["propagate", "--shape", "64", "--gaussian-center", "3e301", "--gaussian-width", "1e150",
         "--gaussian-carrier", "1e10", "--dt", "1e-5", "--n-steps", "2", "--out-prefix", "r",
         "--spacing", "1e300"],
        PROPAGATE + ["--gaussian-center", "1e300", "--gaussian-carrier", "1e10",
                     "--origin", "1e300"],
        PROPAGATE + ["--gaussian-center", "1.7e308", "--gaussian-carrier", "1",
                     "--origin", "1.7e308"],
        PROPAGATE + ["--gaussian-carrier", "1.7e308"]]],
    (PROPAGATE + ["--spacing", "1.7e308"],  # the cell coordinates overflow
     f"{GRID}: the last cell's coordinate 0.0 + 1.7e+308 * 15 overflows on axis 0"),
    (PROPAGATE + ["--n-steps", "-3"], "--n-steps: must be an integer >= 0"),
    (PROPAGATE + ["--save-every", "-2"], "--save-every: must be an integer >= 0"),
    (PROPAGATE + ["--eval-time", "inf"], "--eval-time: must be finite"),
    (ELECTRON_1D + ["--dt", "2e-19", "--eval-time", "1e300"],  # its step overflows
     "--eval-time: must be a step time in [0, 6e-19] s in mode classical"),
    # The checks against the run come before any step.
    *[((PROPAGATE_64 if mode == "classical" else TRAVELTIME_64)
       + [f"--mode={mode}", f"--eval-time={time}"],
       f"--eval-time: must be {'finite' if time in ('nan', 'inf') else window}")
      for mode, (window, outside) in EVAL_WINDOWS.items() for time in ["nan", "inf", *outside]],
    (TRAVELTIME_64 + ["--mode=compare-a8", "--n-steps=1"],
     "--n-steps: must be >= 2 in mode compare-a8, got 1"),
    (PROPAGATE_64 + ["--mode", "modified"], "--traveltime is required for mode modified"),
    (PROPAGATE + ["--mode", "compare-a8", "--traveltime", "inf_tt.csv"],
     "--traveltime: t_P must be non-negative and finite"),
    (MODIFIED_WITH_LOCALTIME, "--localtime-out needs the front speed --vp"),
    *[(argv + ["--vp", vp], f"--vp: must be {rule}")
      for argv, rule in [(MODIFIED_WITH_LOCALTIME, "a number > 0"),
                         (["dispersion", "--voltage", "54"], "a number > 0"),
                         (["compare", "--use-bundled", "--out", "layers.csv"],
                          "positive and finite")]
      for vp in ["0", "-100", "nan"]],
    # Flags the run would ignore.
    (TRAVELTIME_64 + ["--vp", "100", "--mode", "classical"],
     "--traveltime is not used in mode classical"),
    (PROPAGATE_64 + ["--localtime-out", "lt.csv", "--vp", "100"],
     "--localtime-out needs mode modified, not classical"),
    (MODIFIED_WITH_LOCALTIME + ["--vp", "100", "--mode", "compare-a8"],
     "--localtime-out needs mode modified, not compare-a8"),
    (PROPAGATE + ["--initial", "init.csv"],  # with --gaussian-center
     "--initial: not allowed with argument --gaussian-center"),
    (PROPAGATE_INITIAL + ["--gaussian-width", "2"], "--gaussian-width: not allowed with --initial"),
    (PROPAGATE_INITIAL + ["--gaussian-carrier", "0.1"],
     "--gaussian-carrier: not allowed with --initial"),
    (PROPAGATE + ["--vp", "5"], "--vp: not allowed without --traveltime"),
    (["propagate", "--shape", "16", "--spacing", "1", "--gaussian-center", "8", "--mass", "1",
      "--dt", "1e-4", "--n-steps", "2", "--out-prefix", "run"],
     "--gaussian-center: needs --gaussian-width"),
    (PROPAGATE_64 + ["--history-window", "4"], "unrecognized arguments: --history-window 4"),
    *[(["propagate", "--gaussian-width", "0.5", "--mass", "1", "--dt", "1e-4", "--n-steps", "2",
        "--out-prefix", "run", "--spacing", spacing, "--gaussian-center", centre,
        "--shape", ",".join(map(str, shape))],
       f"{STEP}: grid shape {shape} has an axis of fewer than 3 cells")
      for shape, spacing, centre in [((2,), "1", "0.5"), ((2, 5), "1,1", "0.5,2"),
                                     ((5, 2), "1,1", "2,0.5")]],
    (ELECTRON_1D + ["--dt", "1e300"], f"{STEP}: c*H = i*dt*H/(2*hbar) overflows at dt=1e+300"),
    (ELECTRON_2D + ["--dt", "1e300"], f"{STEP}: c*H = i*dt*H/(2*hbar) overflows at dt=1e+300"),
    (ELECTRON_1D + ["--dt", "2e-19", "--spacing", "1e-200"],  # 1/spacing^2 overflows
     f"{STEP}: c*H = i*dt*H/(2*hbar) overflows at dt=2e-19"),
    # The cell volume overflows, or underflows to 0.
    (["propagate", "--shape", "16,16", "--gaussian-center", "7e160,7e160", "--gaussian-width",
      "1e150", "--dt", "1e-19", "--n-steps", "2", "--out-prefix", "r",
      "--spacing", "1e160,1e160"], f"{STEP}: the cell volume inf of spacing (1e+160, 1e+160)"),
    (["propagate", "--shape", "16,16,16", "--gaussian-center", "8e-110,8e-110,8e-110",
      "--gaussian-width", "2e-110", "--dt", "1e-300", "--n-steps", "2", "--out-prefix", "r",
      "--spacing", "1e-110,1e-110,1e-110"], f"{STEP}: the cell volume 0.0 of spacing"),
    # 2/spacing**2 overflows in the stepper, though hbar**2/(2m)/spacing**2 does not.
    (PROPAGATE + ["--spacing", "1e-155"], f"{STEP}: c*H = i*dt*H/(2*hbar) overflows at dt=0.0001"),
    (["dispersion", "--voltage=54"], "one of the arguments --vp --classical is required"),
    (["dispersion", "--classical", "--voltage", "54", "--vp", "1e8"],
     "--vp: not allowed with argument --classical"),
    (["dispersion", "--vp", "1.3e8"],
     "--voltage/--speed: provide at least one --voltage or --speed"),
    *[(["dispersion", "--vp", "1.3e8", flag, value], f"{flag}: must be positive and finite")
      for flag in ["--voltage", "--speed"] for value in ["nan", "inf", "0", "-1"]],
    # The wavenumber underflows to 0, so the table would divide by it.
    (["dispersion", "--vp", "1.3e8", "--voltage", "1e-320"],
     "--voltage: the wavenumber underflows to 0"),
    (["dispersion", "--vp", "1.3e8", "--speed", "1e-320"],
     "--speed: the wavenumber underflows to 0"),
    (["fit"], "one of the arguments --data --use-bundled --generate is required"),
    (["fit", "--data", "x.csv", "--generate", "n=5"],
     "--generate: not allowed with argument --data"),
    (["fit", "--use-bundled", "--data-out", "rec.csv"], "--data-out needs --generate"),
    (["fit", "--data", "missing.csv"], "--data: no such file: missing.csv"),
    (["fit", "--data", "bad.csv"], "--data: bad.csv:3"),
    (["fit", "--data", "one_record.csv"], "--data: need at least 2 records to fit, got 1"),
    (["compare", "--out", "layers.csv", "--data", "one_record.csv"],
     "--data: need at least 2 records to fit, got 1"),
    (["fit", "--data", "classical.csv", "--curves", "c.csv", "--out", "f.json"],
     "--curves: fit clamped to the classical limit"),
    (["compare", "--data", "classical.csv", "--out", "layers.csv"],
     "--vp: fit clamped to the classical limit; pass a finite --vp"),
    (["fit", "--generate", "n=x"], "--generate: invalid literal for int() with base 10: 'x'"),
    *[(["fit", "--generate", "n=5", f"noise={noise}"],
       "--generate: noise_relative must be non-negative") for noise in ["nan", "inf", "-0.1"]],
    *[(["fit", "--generate", "n=5", pair], "--generate: expected key=value with key in "
       f"vP/n/seed/noise/vmin/vmax, got '{pair}'") for pair in ["vP", "foo=1"]],
    (["fit", "--generate", "vP=1.3e8", "n=8", "vmax=1e300"],  # speed overflows
     "--generate: the electron's speed, nu or k overflows"),
    # nu = eV/h overflows from about 7.4e293 V, before the speed does.
    (["dispersion", "--vp", "1.3e8", "--voltage", "1e295"],
     "--voltage: the electron's speed, nu or k overflows at voltage 1e+295 V"),
    (["dispersion", "--vp", "1.3e8", "--speed", "1e295"], "--speed: nu = inf Hz"),
    (["fit", "--generate", "vP=1.3e8", "n=8", "vmax=1e295"],
     "--generate: the electron's speed, nu or k overflows"),
    # np.linspace overflows in (n - 1) * step before it sets the last point.
    (["fit", "--generate", "vP=1.3e8", "n=8", "vmax=1.7976931348623157e+308"],
     "--generate: the electron's speed, nu or k overflows"),
    (["fit", "--generate", "vP=1.3e8", "n=8", "vmax=1e295", "--curves", "c.csv"],
     "--generate: the electron's speed, nu or k overflows"),
    (["fit", "--data", "big_voltage.csv"],
     "--data: the electron's speed, nu or k overflows at voltage 1e+295 V"),
    (["fit", "--generate", "vP=1e-150", "n=8"],  # the squared residuals overflow
     "--generate: the mean squared wavenumber residual overflows"),
    # The sum of nu**2 underflows to 0, or the sums overflow.
    *[(["fit", "--generate", "vP=1.3e8", "n=8", f"vmin={vmin}", f"vmax={vmax}"],
       "--generate: the least-squares sums over the records overflow or underflow")
      for vmin, vmax in [("1e-200", "1e-199"), ("1e139", "1e140")]],
    (["dispersion", "--vp", "1e-300", "--voltage", "54"], "--vp: k_l overflows"),
    (["compare", "--use-bundled", "--out", "layers.csv", "--vp", "1e-300"],
     "--vp: the mean squared wavenumber residual overflows"),
    (["compare", "--use-bundled", "--out", "layers.csv", "--vp", "inf"],
     "--vp: must be positive and finite"),
    # A curve needs two ends: one point would draw curveA,0,0 and curveB,0,0.
    *[([subcommand, "--use-bundled", flag, "layers.csv", "--curve-points", points],
       "--curve-points: must be an integer >= 2")
      for subcommand, flag in [("fit", "--curves"), ("compare", "--out")]
      for points in ["0", "1", "-3", "2.5"]],
]


def write_usage_error_inputs(directory: Path) -> None:
    """The input files the USAGE_ERRORS rows read, written into directory."""
    def scalar(name, spacing, values):
        grid = Grid(values.shape, (spacing,) * values.ndim)
        write_field_csv(ScalarField(grid, values), directory / name)

    potential = np.zeros(16)
    potential[5] = math.nan
    scalar("nan_potential.csv", 1.0, potential)
    scalar("ones.csv", 1.0, np.ones(16))
    scalar("inf_tt.csv", 1.0, np.where(np.arange(16) < 10, 0.0, math.inf))  # cells 10-15 unreached
    for name, value in [("nan", math.nan), ("inf", math.inf), ("zero", 0.0)]:
        scalar(f"{name}_speed.csv", 1.0, np.where(np.arange(16) == 7, value, 1.0))
    scalar("cells32.csv", 1.0 / 31, np.zeros(32))
    scalar("cells4x4.csv", 1.0, np.zeros((4, 4)))
    write_constant_traveltime(directory / "tt64.csv", 4e-4)
    write_field_csv(gaussian_packet(Grid((16,), (1.0,)), (8.0,), 2.0), directory / "init.csv")
    line64 = Grid((64,), (1.0 / 63,))
    write_field_csv(ComplexField(line64, np.full(64, 1.0 + 0.5j)), directory / "complex.csv")
    for shape, grid in [("64", line64), ("12x10", Grid((12, 10), (1 / 11, 1 / 9)))]:
        packet = gaussian_packet(grid, (0.5,) * len(grid.shape), 0.2).values
        for name, (cell, value, _) in BAD_INITIAL.items():
            values = packet.copy()
            interior = tuple(slice(1, -1) for _ in grid.shape)
            values[interior if cell is None else (cell,) * len(grid.shape)] = value
            write_field_csv(ComplexField(grid, values), directory / f"{name}_init{shape}.csv")
    (directory / "one_record.csv").write_text(f"{RECORDS_CSV_HEADER}\n54,1.66e-10\n")
    (directory / "big_voltage.csv").write_text(
        f"{RECORDS_CSV_HEADER}\n54,1.66e-10\n1e295,1e-300\n")
    (directory / "bad.csv").write_text(f"{RECORDS_CSV_HEADER}\n54.0,1.67e-10\nbogus\n")
    write_clamped_records(directory / "classical.csv")


def check_usage_error(code: int, stdout: str, stderr: str, fragment: str,
                      inputs: list[str]) -> None:
    """A usage error exits 2 with fragment in the last line of stderr, prints
    nothing else but argparse's usage, and leaves the working directory
    holding just inputs."""
    lines = stderr.splitlines()
    assert code == 2, (code, stderr)
    assert lines and fragment in lines[-1], stderr
    assert stdout == "" and "Traceback" not in stderr, (stdout, stderr)
    if lines[-1].startswith("error: "):  # raised after argparse, printed by main
        assert len(lines) == 1, stderr
    else:
        assert re.match(r"qfront( [a-z]+)?: error: ", lines[-1]), stderr
    assert sorted(os.listdir()) == inputs, os.listdir()


def usage_error_id(argv: list[str]) -> str:
    """The subcommand and the last flag with its value."""
    return " ".join(argv[:1] + argv[max(len(argv) - 2, 1):]) or "no subcommand"


@pytest.fixture(scope="module")
def usage_error_inputs(tmp_path_factory) -> Path:
    """One directory of the inputs that every row runs in, as in CI."""
    directory = tmp_path_factory.mktemp("usage_error_inputs")
    write_usage_error_inputs(directory)
    return directory


@pytest.mark.parametrize("argv, fragment", USAGE_ERRORS,
                         ids=[usage_error_id(argv) for argv, _ in USAGE_ERRORS])
def test_usage_error_names_its_flag_and_writes_nothing(usage_error_inputs, monkeypatch, capsys,
                                                       argv, fragment):
    monkeypatch.chdir(usage_error_inputs)
    inputs = sorted(os.listdir())
    code = main(argv)
    check_usage_error(code, *capsys.readouterr(), fragment, inputs)


@pytest.mark.parametrize("mode", EVAL_WINDOWS)
def test_eval_time_bounds_as_printed_run(tmp_path, monkeypatch, capsys, mode):
    # Each bound the --eval-time error prints, passed back, is a time the mode reads.
    monkeypatch.chdir(tmp_path)
    write_constant_traveltime(tmp_path / "tt64.csv", 4e-4)
    argv = (PROPAGATE_64 if mode == "classical" else TRAVELTIME_64) + ["--mode", mode]
    assert main(argv + ["--eval-time", "1"]) == 2
    bounds = re.search(r"in \[(.*), (.*)\] s", capsys.readouterr().err).groups()
    for bound in bounds:
        assert main(argv + ["--eval-time", bound]) == 0


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
    # them, and every byte they write or print in this interpreter is pinned.
    monkeypatch.chdir(tmp_path)
    stdout = []
    for argv in readme_commands():
        assert main(argv) == 0, f"README command failed: qfront {' '.join(argv)}"
        stdout.append(capsys.readouterr().out)
    got = {f"README {path.name}": digest(path.read_bytes()) for path in tmp_path.iterdir()}
    got["README stdout"] = digest("".join(stdout).encode())
    assert got == {pin: row[-1] for pin, row in PINS.items() if row[0] is readme}


# --- imports -----------------------------------------------------------------------

def test_fresh_process_resolves_every_public_name(tmp_path):
    # The parameter count covers every exported function, constructor and
    # public method, self and cls excluded, so a new name or option changes it.
    run = subprocess.run([sys.executable, "-c", """if True:
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
        print(len(qfront.__all__), params, qfront.solve_traveltime.__module__)"""],
                         cwd=tmp_path, env=environ(), capture_output=True, text=True, check=True)
    assert run.stdout.split() == ["43", "102", "qfront.eikonal"]

