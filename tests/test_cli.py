import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qfront
from qfront.cli import main
from qfront.fields import ComplexField, Grid, ScalarField, read_field_csv, write_field_csv
from qfront.fit import RECORDS_CSV_HEADER, synthesize_records
from qfront.schrodinger import gaussian_packet

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
    field = read_field_csv(str(out), spacing=(1.0, 1.0))
    assert field.grid.shape == (51, 51)
    assert field.values[25, 25] == 0.0
    assert np.all(np.isfinite(field.values))


def test_eikonal_speed_scales_traveltimes(tmp_path):
    out1, out2 = tmp_path / "tt1.csv", tmp_path / "tt2.csv"
    base = ["eikonal", "--shape", "31,31", "--spacing", "1,1",
            "--source", "15,15"]
    assert main(base + ["--speed", "1.0", "--out", str(out1)]) == 0
    assert main(base + ["--speed", "2.0", "--out", str(out2)]) == 0
    t1 = read_field_csv(str(out1), spacing=(1.0, 1.0)).values
    t2 = read_field_csv(str(out2), spacing=(1.0, 1.0)).values
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
         "--n-steps", "10", "--history-window", "4",
         "--out-prefix", str(prefix)]
    )
    assert code == 0
    manifest = json.loads((tmp_path / "run_manifest.json").read_text())
    assert manifest["mode"] == "classical"
    assert manifest["n_steps"] == 10
    assert manifest["grid"]["shape"] == [64]
    assert manifest["retained_snapshots"] == 4
    assert manifest["max_norm_drift"] < 1e-10
    assert manifest["outputs"] == [str(tmp_path / "run_state.csv")]
    assert manifest["retained_time_range"][0] == pytest.approx(7e-4)
    assert manifest["retained_time_range"][1] == pytest.approx(1e-3)


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
        field = read_field_csv(
            str(tmp_path / f"a8_{suffix}.csv"), spacing=(1.0 / 63,)
        )
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
            "--gaussian-center", "0.5", "--gaussian-width", "0.08",
            "--mass", "1", "--dt", "1e-4", "--n-steps", "2",
            "--out-prefix", str(tmp_path / "run")]
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


@pytest.mark.parametrize("radius", ["inf", "nan"])
def test_eikonal_rejects_non_finite_ball_radius(tmp_path, capsys, radius):
    out = tmp_path / "tt.csv"
    code = main(
        ["eikonal", "--shape", "16", "--spacing", "1", "--source", "3",
         "--speed", "1", "--source-ball-radius", radius, "--out", str(out)]
    )
    assert code == 2
    assert "source_ball_radius must be finite and >= 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("bad", ["nan", "inf"])
@pytest.mark.parametrize("shape", [(64,), (12, 10)])
def test_propagate_rejects_non_finite_initial_state(tmp_path, capsys, shape, bad):
    g = Grid(shape, tuple(1.0 / (n - 1) for n in shape))
    values = gaussian_packet(g, tuple(0.5 for _ in shape), 0.2).values.copy()
    values[(3,) * len(shape)] = float(bad)
    initial = tmp_path / "initial.csv"
    write_field_csv(ComplexField(g, values), str(initial))
    code = main(
        ["propagate", "--shape", ",".join(map(str, shape)),
         "--spacing", ",".join(str(s) for s in g.spacing),
         "--initial", str(initial), "--mass", "1", "--dt", "1e-4",
         "--n-steps", "5", "--out-prefix", str(tmp_path / "run")]
    )
    assert code == 2
    assert "state contains non-finite values" in capsys.readouterr().err
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


def test_propagate_window_violation_is_runtime_error(tmp_path, capsys):
    tt = tmp_path / "tt.csv"
    write_constant_traveltime(tt, 5e-4)
    code = main(
        ["propagate", *GRID_1D, "--mode", "modified",
         "--gaussian-center", "0.5", "--gaussian-width", "0.08",
         "--mass", "1", "--dt", "1e-4", "--n-steps", "10",
         "--history-window", "3", "--traveltime", str(tt),
         "--out-prefix", str(tmp_path / "run")]
    )
    assert code == 1
    assert "runtime error" in capsys.readouterr().err


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


def test_dispersion_requires_particles(capsys):
    assert main(["dispersion", "--vp", "1.3e8"]) == 2
    assert "--voltage" in capsys.readouterr().err


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


# --- imports -----------------------------------------------------------------------

@pytest.mark.parametrize("statement", [
    "import qfront",
    "from qfront.cli import main; assert main(['fit', '--use-bundled']) == 0",
])
def test_fresh_process_without_stepper_leaves_scipy_sparse_unloaded(tmp_path, statement):
    # Only the Crank-Nicolson stepper needs scipy; importing qfront or
    # fitting the bundled data must not pay for scipy.sparse.
    src = str(Path(qfront.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    run = subprocess.run(
        [sys.executable, "-c",
         f"import sys; {statement}; print('scipy.sparse' in sys.modules)"],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    )
    assert run.stdout.splitlines()[-1] == "False"
